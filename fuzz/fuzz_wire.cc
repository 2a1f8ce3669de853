// Fuzz target: ParseWireFrame and every XSKB payload decoder must reject
// arbitrary bytes cleanly. A parsed frame re-encodes to the bytes it was
// read from, and for every decoder decode(encode(decode(x))) ==
// decode(x): what a peer decodes survives being sent back. Each decoder
// sees both the raw input and, when one parses, the frame's payload.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "net/wire.h"
#include "util/check.h"

namespace {

using namespace xsketch::net;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool Equal(const WireEstimateRequest& a, const WireEstimateRequest& b) {
  return a.deadline_ms == b.deadline_ms && a.doc == b.doc &&
         a.query == b.query;
}

bool Equal(const WireBatchRequest& a, const WireBatchRequest& b) {
  return a.deadline_ms == b.deadline_ms && a.doc == b.doc &&
         a.queries == b.queries;
}

bool Equal(const WireBatchResponse& a, const WireBatchResponse& b) {
  if (a.deadline_exceeded != b.deadline_exceeded ||
      a.abandoned != b.abandoned || a.results.size() != b.results.size()) {
    return false;
  }
  for (size_t i = 0; i < a.results.size(); ++i) {
    const WireBatchResult& x = a.results[i];
    const WireBatchResult& y = b.results[i];
    if (x.ok != y.ok || !BitEqual(x.estimate, y.estimate) ||
        x.code != y.code || x.error != y.error) {
      return false;
    }
  }
  return true;
}

bool Equal(const std::pair<NackCode, std::string>& a,
           const std::pair<NackCode, std::string>& b) {
  return a == b;
}

bool Equal(double a, double b) { return BitEqual(a, b); }

template <typename Decode, typename Encode>
void CheckRoundTrip(std::string_view payload, Decode decode, Encode encode,
                    const char* what) {
  auto first = decode(payload);
  if (!first.ok()) return;
  auto again = decode(encode(first.value()));
  XS_CHECK_MSG(again.ok() && Equal(again.value(), first.value()), what);
}

void CheckDecoders(std::string_view payload) {
  CheckRoundTrip(payload, DecodeEstimateRequest, EncodeEstimateRequest,
                 "estimate request does not round-trip");
  CheckRoundTrip(payload, DecodeBatchRequest, EncodeBatchRequest,
                 "batch request does not round-trip");
  CheckRoundTrip(payload, DecodeBatchResponse, EncodeBatchResponse,
                 "batch response does not round-trip");
  CheckRoundTrip(
      payload, DecodeNack,
      [](const std::pair<NackCode, std::string>& nack) {
        return EncodeNack(nack.first, nack.second);
      },
      "nack does not round-trip");
  CheckRoundTrip(payload, DecodeEstimateOk, EncodeEstimateOk,
                 "estimate response does not round-trip");
}

// Small enough that mutated length fields cross it.
constexpr size_t kMaxFrameBytes = 4096;

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  CheckDecoders(input);
  const WireParseResult r = ParseWireFrame(input, kMaxFrameBytes);
  if (r.outcome != WireParseOutcome::kFrame) return 0;
  XS_CHECK(r.frame.payload.size() <= kMaxFrameBytes);
  std::string encoded;
  AppendWireFrame(&encoded, static_cast<FrameType>(r.frame.type),
                  r.frame.payload);
  XS_CHECK_MSG(r.consumed == encoded.size() &&
                   input.substr(0, r.consumed) == encoded,
               "frame does not re-encode to its bytes");
  CheckDecoders(r.frame.payload);
  return 0;
}
