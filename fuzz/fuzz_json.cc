// Fuzz target: ParseJson at its default depth cap must never crash, and
// every string (object keys included) and number of a document it
// accepts must re-encode through AppendJsonString / AppendJsonNumber and
// parse back equal.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "net/json.h"
#include "util/check.h"

namespace {

using xsketch::net::JsonValue;

void CheckStringRoundTrip(const std::string& s) {
  std::string text;
  xsketch::net::AppendJsonString(&text, s);
  auto back = xsketch::net::ParseJson(text);
  XS_CHECK_MSG(back.ok() && back.value().kind() == JsonValue::Kind::kString &&
                   back.value().string_value() == s,
               "string does not round-trip");
}

void CheckRoundTrips(const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kString:
      CheckStringRoundTrip(v.string_value());
      break;
    case JsonValue::Kind::kNumber: {
      std::string text;
      xsketch::net::AppendJsonNumber(&text, v.number_value());
      auto back = xsketch::net::ParseJson(text);
      XS_CHECK_MSG(back.ok() &&
                       back.value().kind() == JsonValue::Kind::kNumber &&
                       back.value().number_value() == v.number_value(),
                   "number does not round-trip");
      break;
    }
    case JsonValue::Kind::kArray:
      for (const JsonValue& item : v.array()) CheckRoundTrips(item);
      break;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : v.object()) {
        CheckStringRoundTrip(key);
        CheckRoundTrips(member);
      }
      break;
    default:
      break;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  auto doc = xsketch::net::ParseJson(input);
  if (doc.ok()) CheckRoundTrips(doc.value());
  return 0;
}
