// Fuzz target: ParseHttpRequest under small limits must answer every
// input with kNeedMore, one request, or an error status it documents. An
// accepted request's body is exactly its Content-Length bytes, and the
// parser consumes exactly that request: the bytes after it (a pipelined
// next request) stay in the buffer, and one byte less needs more.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "net/http.h"
#include "util/check.h"

namespace {

using xsketch::net::HttpLimits;
using xsketch::net::HttpParseOutcome;
using xsketch::net::ParseHttpRequest;

// Small enough that mutations cross both limits.
constexpr HttpLimits kLimits{.max_header_bytes = 256, .max_body_bytes = 64};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  const auto r = ParseHttpRequest(input, kLimits);
  if (r.outcome == HttpParseOutcome::kError) {
    const int s = r.error_status;
    XS_CHECK_MSG(s == 400 || s == 413 || s == 431 || s == 501 || s == 505,
                 "undocumented error status");
    return 0;
  }
  if (r.outcome == HttpParseOutcome::kNeedMore) return 0;

  const size_t header_end = input.find("\r\n\r\n");
  XS_CHECK(header_end != std::string_view::npos);
  XS_CHECK_MSG(header_end + 4 <= kLimits.max_header_bytes,
               "accepted a header section over the limit");
  const std::string* length = r.request.Header("content-length");
  size_t declared = 0;
  if (length != nullptr) {
    XS_CHECK_MSG(!length->empty(), "accepted an empty Content-Length");
    for (const char c : *length) {
      XS_CHECK_MSG(c >= '0' && c <= '9', "accepted a non-digit length");
      declared = declared * 10 + static_cast<size_t>(c - '0');
      XS_CHECK(declared <= kLimits.max_body_bytes);
    }
  }
  XS_CHECK_MSG(r.request.body.size() == declared,
               "body is not Content-Length bytes");
  XS_CHECK_MSG(r.consumed == header_end + 4 + declared,
               "consumed more or less than one request");
  XS_CHECK(input.substr(header_end + 4, declared) == r.request.body);

  // The request alone parses to the same request; a byte less of it
  // needs more.
  const auto alone = ParseHttpRequest(input.substr(0, r.consumed), kLimits);
  XS_CHECK(alone.outcome == HttpParseOutcome::kRequest &&
           alone.consumed == r.consumed && alone.request.body == r.request.body);
  XS_CHECK_MSG(ParseHttpRequest(input.substr(0, r.consumed - 1), kLimits)
                       .outcome == HttpParseOutcome::kNeedMore,
               "a truncated request parsed");
  return 0;
}
