#include "net/http.h"

#include <algorithm>
#include <cctype>

namespace xsketch::net {

namespace {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view TrimOws(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool PercentDecode(std::string_view in, std::string* out) {
  out->clear();
  out->reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '+') {
      out->push_back(' ');
    } else if (c == '%') {
      if (i + 2 >= in.size()) return false;
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        if (h >= 'A' && h <= 'F') return h - 'A' + 10;
        return -1;
      };
      const int hi = hex(in[i + 1]);
      const int lo = hex(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out->push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else {
      out->push_back(c);
    }
  }
  return true;
}

HttpParseResult Error(int status, std::string what) {
  HttpParseResult r;
  r.outcome = HttpParseOutcome::kError;
  r.error_status = status;
  r.error = std::move(what);
  return r;
}

}  // namespace

const std::string* HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::optional<std::string> HttpRequest::QueryParam(
    std::string_view key) const {
  std::string_view rest = query;
  while (!rest.empty()) {
    const size_t amp = rest.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? rest : rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    const size_t eq = pair.find('=');
    const std::string_view k =
        eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (k != key) continue;
    const std::string_view v =
        eq == std::string_view::npos ? std::string_view{}
                                     : pair.substr(eq + 1);
    std::string decoded;
    if (!PercentDecode(v, &decoded)) return std::nullopt;
    return decoded;
  }
  return std::nullopt;
}

HttpParseResult ParseHttpRequest(std::string_view buf,
                                 const HttpLimits& limits) {
  const size_t header_end = buf.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    if (buf.size() > limits.max_header_bytes) {
      return Error(431, "header section exceeds " +
                            std::to_string(limits.max_header_bytes) +
                            " bytes");
    }
    return {};  // kNeedMore
  }
  if (header_end + 4 > limits.max_header_bytes) {
    return Error(431, "header section exceeds " +
                          std::to_string(limits.max_header_bytes) + " bytes");
  }

  HttpParseResult result;
  HttpRequest& req = result.request;
  std::string_view head = buf.substr(0, header_end);

  // Request line: METHOD SP target SP HTTP/1.x
  const size_t line_end = head.find("\r\n");
  const std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string_view::npos
                         ? std::string_view::npos
                         : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Error(400, "malformed request line");
  }
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return Error(505, "unsupported protocol version");
  }
  req.keep_alive = version == "HTTP/1.1";
  if (req.method.empty() || req.target.empty() || req.target[0] != '/') {
    return Error(400, "malformed request line");
  }
  const size_t qmark = req.target.find('?');
  req.path = req.target.substr(0, qmark);
  req.query = qmark == std::string::npos ? "" : req.target.substr(qmark + 1);

  // Headers.
  size_t content_length = 0;
  bool have_length = false;
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const size_t eol = rest.find("\r\n");
    const std::string_view hline =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    if (hline.empty()) continue;
    const size_t colon = hline.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Error(400, "malformed header line");
    }
    std::string name = ToLower(TrimOws(hline.substr(0, colon)));
    std::string value(TrimOws(hline.substr(colon + 1)));
    if (name == "content-length") {
      // 1*DIGIT: no sign, no blanks, no base prefix.
      if (have_length || value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        return Error(400, "bad Content-Length");
      }
      // v * 10 + d > cap is tested before it is computed, so no value
      // wraps, however many digits it has.
      const size_t cap = limits.max_body_bytes;
      size_t v = 0;
      for (const char c : value) {
        const size_t d = static_cast<size_t>(c - '0');
        if (v > cap / 10 || (v == cap / 10 && d > cap % 10)) {
          return Error(413, "body exceeds " + std::to_string(cap) + " bytes");
        }
        v = v * 10 + d;
      }
      content_length = v;
      have_length = true;
    } else if (name == "transfer-encoding") {
      return Error(501, "Transfer-Encoding not supported; use "
                        "Content-Length (or the XSKB binary framing)");
    } else if (name == "connection") {
      const std::string lower = ToLower(value);
      if (lower.find("close") != std::string::npos) {
        req.keep_alive = false;
      } else if (lower.find("keep-alive") != std::string::npos) {
        req.keep_alive = true;
      }
    }
    req.headers.emplace_back(std::move(name), std::move(value));
  }

  const size_t total = header_end + 4 + content_length;
  if (buf.size() < total) return {};  // kNeedMore (body still arriving)
  req.body = std::string(buf.substr(header_end + 4, content_length));
  result.outcome = HttpParseOutcome::kRequest;
  result.consumed = total;
  return result;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeHttpResponse(
    int status, std::string_view content_type, std::string_view body,
    bool keep_alive,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string out;
  out.reserve(128 + body.size());
  out.append("HTTP/1.1 ");
  out.append(std::to_string(status));
  out.push_back(' ');
  out.append(HttpStatusText(status));
  out.append("\r\n");
  if (!content_type.empty()) {
    out.append("Content-Type: ");
    out.append(content_type);
    out.append("\r\n");
  }
  out.append("Content-Length: ");
  out.append(std::to_string(body.size()));
  out.append("\r\n");
  out.append(keep_alive ? "Connection: keep-alive\r\n"
                        : "Connection: close\r\n");
  for (const auto& [name, value] : extra_headers) {
    out.append(name);
    out.append(": ");
    out.append(value);
    out.append("\r\n");
  }
  out.append("\r\n");
  out.append(body);
  return out;
}

}  // namespace xsketch::net
