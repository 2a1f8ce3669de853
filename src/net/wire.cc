#include "net/wire.h"

#include <cstring>

namespace xsketch::net {

namespace {

// Little-endian append/read helpers. memcpy keeps them alignment-safe;
// the repo targets little-endian hosts (XSK3 made the same call).
template <typename T>
void Put(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  template <typename T>
  bool Get(T* out) {
    if (data_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool GetBytes(size_t n, std::string* out) {
    if (data_.size() - pos_ < n) return false;
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

util::Status Truncated(const char* what) {
  return util::Status::ParseError(std::string("truncated ") + what +
                                  " payload");
}

void PutString16(std::string* out, std::string_view s) {
  Put<uint16_t>(out, static_cast<uint16_t>(s.size()));
  out->append(s);
}

bool GetString16(Reader& r, std::string* out) {
  uint16_t len = 0;
  if (!r.Get(&len)) return false;
  return r.GetBytes(len, out);
}

}  // namespace

WireParseResult ParseWireFrame(std::string_view buf,
                               size_t max_frame_bytes) {
  WireParseResult result;
  if (buf.size() < 5) return result;  // kNeedMore: type + length
  uint8_t type = 0;
  uint32_t len = 0;
  std::memcpy(&type, buf.data(), 1);
  std::memcpy(&len, buf.data() + 1, 4);
  if (len > max_frame_bytes) {
    result.outcome = WireParseOutcome::kError;
    result.error = "frame payload of " + std::to_string(len) +
                   " bytes exceeds the " + std::to_string(max_frame_bytes) +
                   "-byte limit";
    return result;
  }
  if (buf.size() < 5 + static_cast<size_t>(len)) return result;
  result.outcome = WireParseOutcome::kFrame;
  result.consumed = 5 + static_cast<size_t>(len);
  result.frame.type = type;
  result.frame.payload.assign(buf.data() + 5, len);
  return result;
}

void AppendWireFrame(std::string* out, FrameType type,
                     std::string_view payload) {
  Put<uint8_t>(out, static_cast<uint8_t>(type));
  Put<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

std::string EncodeEstimateRequest(const WireEstimateRequest& req) {
  std::string out;
  Put<uint32_t>(&out, req.deadline_ms);
  PutString16(&out, req.doc);
  PutString16(&out, req.query);
  return out;
}

util::Result<WireEstimateRequest> DecodeEstimateRequest(
    std::string_view payload) {
  WireEstimateRequest req;
  Reader r(payload);
  if (!r.Get(&req.deadline_ms) || !GetString16(r, &req.doc) ||
      !GetString16(r, &req.query) || !r.AtEnd()) {
    return Truncated("estimate request");
  }
  return req;
}

std::string EncodeBatchRequest(const WireBatchRequest& req) {
  std::string out;
  Put<uint32_t>(&out, req.deadline_ms);
  PutString16(&out, req.doc);
  Put<uint32_t>(&out, static_cast<uint32_t>(req.queries.size()));
  for (const std::string& q : req.queries) PutString16(&out, q);
  return out;
}

util::Result<WireBatchRequest> DecodeBatchRequest(std::string_view payload) {
  WireBatchRequest req;
  Reader r(payload);
  uint32_t count = 0;
  if (!r.Get(&req.deadline_ms) || !GetString16(r, &req.doc) ||
      !r.Get(&count)) {
    return Truncated("batch request");
  }
  // Each query costs at least its 2-byte length prefix, so `count` is
  // bounded by the payload the frame actually carried — no multi-GB
  // reserve from a hostile header.
  if (static_cast<size_t>(count) * 2 > payload.size()) {
    return util::Status::ParseError("batch count exceeds frame size");
  }
  req.queries.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (!GetString16(r, &req.queries[i])) return Truncated("batch request");
  }
  if (!r.AtEnd()) return Truncated("batch request");
  return req;
}

std::string EncodeBatchResponse(const WireBatchResponse& resp) {
  std::string out;
  Put<uint8_t>(&out, resp.deadline_exceeded ? 1 : 0);
  Put<uint32_t>(&out, resp.abandoned);
  Put<uint32_t>(&out, static_cast<uint32_t>(resp.results.size()));
  for (const WireBatchResult& r : resp.results) {
    Put<uint8_t>(&out, r.ok ? 1 : 0);
    if (r.ok) {
      Put<double>(&out, r.estimate);
    } else {
      Put<uint8_t>(&out, static_cast<uint8_t>(r.code));
      PutString16(&out, r.error);
    }
  }
  return out;
}

util::Result<WireBatchResponse> DecodeBatchResponse(
    std::string_view payload) {
  WireBatchResponse resp;
  Reader r(payload);
  uint8_t deadline = 0;
  uint32_t count = 0;
  if (!r.Get(&deadline) || !r.Get(&resp.abandoned) || !r.Get(&count)) {
    return Truncated("batch response");
  }
  resp.deadline_exceeded = deadline != 0;
  if (static_cast<size_t>(count) > payload.size()) {
    return util::Status::ParseError("result count exceeds frame size");
  }
  resp.results.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireBatchResult& res = resp.results[i];
    uint8_t ok = 0;
    if (!r.Get(&ok)) return Truncated("batch response");
    res.ok = ok != 0;
    if (res.ok) {
      if (!r.Get(&res.estimate)) return Truncated("batch response");
    } else {
      uint8_t code = 0;
      if (!r.Get(&code) || !GetString16(r, &res.error)) {
        return Truncated("batch response");
      }
      res.code = static_cast<NackCode>(code);
    }
  }
  if (!r.AtEnd()) return Truncated("batch response");
  return resp;
}

std::string EncodeNack(NackCode code, std::string_view message) {
  std::string out;
  Put<uint8_t>(&out, static_cast<uint8_t>(code));
  PutString16(&out, message);
  return out;
}

util::Result<std::pair<NackCode, std::string>> DecodeNack(
    std::string_view payload) {
  Reader r(payload);
  uint8_t code = 0;
  std::string message;
  if (!r.Get(&code) || !GetString16(r, &message) || !r.AtEnd()) {
    return Truncated("nack");
  }
  return std::make_pair(static_cast<NackCode>(code), std::move(message));
}

std::string EncodeEstimateOk(double estimate) {
  std::string out;
  Put<double>(&out, estimate);
  return out;
}

util::Result<double> DecodeEstimateOk(std::string_view payload) {
  Reader r(payload);
  double estimate = 0.0;
  if (!r.Get(&estimate) || !r.AtEnd()) {
    return Truncated("estimate response");
  }
  return estimate;
}

}  // namespace xsketch::net
