#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace xsketch::obs {

namespace internal {
// Defined here, declared in trace.h (SpanScope's inert path inlines the
// read into callers).
constinit thread_local ThreadContext g_thread_ctx;
}  // namespace internal

using internal::g_thread_ctx;

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kQuery: return "query";
    case Stage::kParse: return "parse";
    case Stage::kCompile: return "compile";
    case Stage::kPlanCache: return "plan_cache";
    case Stage::kExecute: return "execute";
    case Stage::kAudit: return "audit";
    case Stage::kBatch: return "batch";
    case Stage::kBatchChunk: return "batch_chunk";
    case Stage::kBuild: return "build";
    case Stage::kBuildIteration: return "build_iteration";
    case Stage::kCatalogLoad: return "catalog_load";
    case Stage::kCatalogMmap: return "catalog_mmap";
    case Stage::kCatalogSwap: return "catalog_swap";
  }
  return "unknown";
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      metric_spans_(MetricsRegistry::Default().GetCounter(
          "xsketch_trace_spans_total",
          "spans recorded by the structural tracer")),
      metric_dropped_(MetricsRegistry::Default().GetCounter(
          "xsketch_trace_spans_dropped_total",
          "spans overwritten in full per-thread rings")),
      rings_(metric_spans_, metric_dropped_) {}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceContext Tracer::ForceTrace() {
  return {next_trace_.fetch_add(1, std::memory_order_relaxed) + 1, 0};
}

std::vector<Span> Tracer::Snapshot() const {
  std::vector<Span> out;
  rings_.ForEach([&out](uint32_t tid, const Span& s) {
    out.push_back(s);
    out.back().tid = tid;
  });
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.span_id < b.span_id;
  });
  return out;
}

std::vector<Span> Tracer::Drain() {
  std::vector<Span> out = Snapshot();
  rings_.Clear();
  return out;
}

std::vector<Span> Tracer::SpansForTrace(uint64_t trace_id) const {
  std::vector<Span> out = Snapshot();
  std::erase_if(out, [trace_id](const Span& s) {
    return s.trace_id != trace_id;
  });
  return out;
}

void Tracer::Reset() {
  rings_.Clear();
  metric_spans_.Reset();
  metric_dropped_.Reset();
}

std::string Tracer::ToChromeJson(const std::vector<Span>& spans) {
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[256];
  for (const Span& s : spans) {
    if (!first) out.push_back(',');
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "{\"name\":\"%s\",\"cat\":\"xsketch\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
        "\"args\":{\"trace_id\":%llu,\"span_id\":%llu,"
        "\"parent_id\":%llu,\"arg\":%llu}}",
        StageName(s.stage), static_cast<double>(s.start_ns) / 1000.0,
        static_cast<double>(s.dur_ns) / 1000.0, s.tid,
        static_cast<unsigned long long>(s.trace_id),
        static_cast<unsigned long long>(s.span_id),
        static_cast<unsigned long long>(s.parent_id),
        static_cast<unsigned long long>(s.arg));
    out += buf;
  }
  out += "]}";
  return out;
}

SpanScope::SpanScope(const TraceContext& ctx, Stage stage, uint64_t arg)
    : trace_id_(0), span_id_(0), restore_(true) {
  // An explicit context replaces the thread-current one for the scope's
  // duration — including the unsampled case, which must also suppress
  // nested thread-current scopes (a worker running an unsampled query
  // must not attach spans to a stale context).
  prev_trace_ = g_thread_ctx.trace_id;
  prev_span_ = g_thread_ctx.span_id;
  if (!ctx.sampled()) {
    g_thread_ctx = {0, 0};
    return;
  }
  Open(ctx.trace_id, ctx.parent_span, stage, arg);
}

void SpanScope::Open(uint64_t trace_id, uint64_t parent, Stage stage,
                     uint64_t arg) {
  Tracer& tracer = Tracer::Default();
  trace_id_ = trace_id;
  parent_id_ = parent;
  span_id_ = tracer.NextSpanId();
  stage_ = stage;
  arg_ = arg;
  if (!restore_) {
    prev_trace_ = g_thread_ctx.trace_id;
    prev_span_ = g_thread_ctx.span_id;
    restore_ = true;
  }
  g_thread_ctx = {trace_id_, span_id_};
  start_ns_ = tracer.NowNs();
}

void SpanScope::Close() {
  if (trace_id_ != 0) {
    Tracer& tracer = Tracer::Default();
    Span s;
    s.trace_id = trace_id_;
    s.span_id = span_id_;
    s.parent_id = parent_id_;
    s.start_ns = start_ns_;
    s.dur_ns = tracer.NowNs() - start_ns_;
    s.arg = arg_;
    s.stage = stage_;
    tracer.rings_.Append(s);
  }
  g_thread_ctx = {prev_trace_, prev_span_};
}

TraceContext CurrentTraceContext() {
  return {g_thread_ctx.trace_id, g_thread_ctx.span_id};
}

}  // namespace xsketch::obs
