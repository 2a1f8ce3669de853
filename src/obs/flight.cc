#include "obs/flight.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"

namespace xsketch::obs {

namespace {

void AppendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void AppendHex(std::string& out, const std::string& bytes) {
  static const char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  out.push_back('"');
}

void AppendMicros(std::string& out, const char* field, double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", field, us);
  out += buf;
}

}  // namespace

std::string FlightRecord::ToJson() const {
  std::string out = "{";
  out += "\"seq\":" + std::to_string(seq);
  out += ",\"trace_id\":" + std::to_string(trace_id);
  out += ",\"twig_key\":";
  AppendHex(out, twig_key);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (!ok) {
    out += ",\"error\":";
    AppendJsonString(out, error);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"estimate\":%.17g", estimate);
  out += buf;
  out += ",\"sketch_generation\":" + std::to_string(sketch_generation);
  out += ",\"stages_us\":{";
  AppendMicros(out, "parse", parse_us);
  out.push_back(',');
  AppendMicros(out, "prepare", prepare_us);
  out.push_back(',');
  AppendMicros(out, "compile", compile_us);
  out.push_back(',');
  AppendMicros(out, "execute", execute_us);
  out.push_back(',');
  AppendMicros(out, "total", total_us);
  out += "}";
  out += ",\"plan_cache_hit\":";
  out += plan_cache_hit ? "true" : "false";
  out += ",\"slow\":";
  out += slow ? "true" : "false";
  if (!spans.empty()) {
    out += ",\"spans\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
      if (i > 0) out.push_back(',');
      const Span& s = spans[i];
      std::snprintf(buf, sizeof(buf), "{\"stage\":\"%s\"",
                    StageName(s.stage));
      out += buf;
      out += ",\"span_id\":" + std::to_string(s.span_id);
      out += ",\"parent_id\":" + std::to_string(s.parent_id);
      out += ",\"start_ns\":" + std::to_string(s.start_ns);
      out += ",\"dur_ns\":" + std::to_string(s.dur_ns);
      out += ",\"arg\":" + std::to_string(s.arg);
      out += ",\"tid\":" + std::to_string(s.tid);
      out += "}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder()
    : metric_records_(MetricsRegistry::Default().GetCounter(
          "xsketch_flight_records_total",
          "queries recorded by the flight recorder")),
      metric_slow_(MetricsRegistry::Default().GetCounter(
          "xsketch_flight_slow_total",
          "flight records that crossed the slow-query threshold")),
      metric_errors_(MetricsRegistry::Default().GetCounter(
          "xsketch_flight_errors_total",
          "failed queries seen by the flight recorder")),
      metric_dropped_(MetricsRegistry::Default().GetCounter(
          "xsketch_flight_dropped_total",
          "flight records overwritten in full per-thread rings")),
      rings_(metric_records_, metric_dropped_) {}

void FlightRecorder::Record(FlightRecord record) {
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.slow = record.total_us >= kSlowUs;
  if (record.slow) metric_slow_.Increment();
  if (!record.ok) metric_errors_.Increment();
  // Promotion: slow and failed queries keep their full span tree — copied
  // now, before the tracer ring wraps past it.
  if ((record.slow || !record.ok) && record.trace_id != 0 &&
      record.spans.empty()) {
    record.spans = Tracer::Default().SpansForTrace(record.trace_id);
  }
  rings_.Append(std::move(record));
}

std::vector<FlightRecord> FlightRecorder::Dump() const {
  std::vector<FlightRecord> out;
  rings_.ForEach(
      [&out](uint32_t, const FlightRecord& r) { out.push_back(r); });
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq > b.seq;
            });
  if (out.size() > kCapacity) out.resize(kCapacity);
  return out;
}

bool FlightRecorder::FindByKey(const std::string& twig_key,
                               FlightRecord* out) const {
  for (const FlightRecord& r : Dump()) {
    if (r.twig_key == twig_key) {
      *out = r;
      return true;
    }
  }
  return false;
}

std::string FlightRecorder::ToJson() const {
  std::string out = "{\"records\":[";
  bool first = true;
  for (const FlightRecord& r : Dump()) {
    if (!first) out.push_back(',');
    first = false;
    out += r.ToJson();
  }
  out += "]}";
  return out;
}

FlightRecorder::Counters FlightRecorder::counters() const {
  return Counters{metric_records_.value(), metric_slow_.value(),
                  metric_errors_.value(), metric_dropped_.value()};
}

void FlightRecorder::Reset() {
  rings_.Clear();
  metric_records_.Reset();
  metric_slow_.Reset();
  metric_errors_.Reset();
  metric_dropped_.Reset();
  seq_.store(0, std::memory_order_relaxed);
}

}  // namespace xsketch::obs
