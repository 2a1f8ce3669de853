// Structured span tracing: low-overhead per-stage latency attribution
// across the serving path.
//
// A trace is a tree of spans covering one request (a query, a batch, a
// catalog load, an XBUILD run). Spans carry a monotonic start/duration, a
// parent link, the recording thread, and one stage-specific integer
// payload. Completed spans land in per-thread bounded rings
// (obs/thread_rings.h) — recording never blocks on another thread, never
// allocates on the hot path beyond the ring slot, and overwrites the
// oldest span when full. The registry counters xsketch_trace_spans_total
// and xsketch_trace_spans_dropped_total are the only span counts;
// recorded() and dropped() read them.
//
// Cost model: the entire tracer is gated on whether the current thread is
// inside a sampled trace. An unsampled SpanScope is one thread-local read
// and a branch — no clock read, no atomic, no lock — which is what keeps
// the serving path within its <2% overhead budget (gated by
// bench/perf_batch --delta). A sampled span costs two steady_clock reads
// plus an uncontended ring append.
//
// Context propagation is implicit within a thread: SpanScope pushes
// itself as the thread-current span, so instrumented callees
// (xpath parse, TwigCompiler::Compile, the plan cache) attach as children
// without any signature changes. Cross-thread propagation (batch fan-out)
// is explicit: capture SpanScope::context() and hand it to the worker's
// SpanScope constructor.
//
// Sampling is caller-owned: a request is traced only under a root its
// owner opens with Tracer::ForceTrace() (the trace CLI; later the wire
// context of a daemon request). Library code — the estimation service,
// catalog loads, XBUILD — never starts a trace; it attaches its spans to
// the calling thread's trace when there is one and stays on the no-op
// path otherwise.
//
// Export: Chrome trace_event JSON (load into chrome://tracing or
// Perfetto), stability tier "diagnostic" — field additions allowed, field
// meanings stable (see DESIGN.md §11).

#ifndef XSKETCH_OBS_TRACE_H_
#define XSKETCH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/thread_rings.h"

namespace xsketch::obs {

// Span taxonomy of the serving path (DESIGN.md §11).
enum class Stage : uint8_t {
  kQuery = 0,        // end-to-end root of one estimate request
  kParse,            // xpath/for-clause text -> TwigQuery
  kCompile,          // TwigCompiler::Compile (lowering)
  kPlanCache,        // service plan-cache lookup (arg: 1 hit / 0 miss)
  kExecute,          // compiled program execution
  kAudit,            // exact-evaluator accuracy audit of one query
  kBatch,            // EstimateBatch root (arg: query count)
  kBatchChunk,       // one thread-pool task of a batch (arg: chunk size)
  kBuild,            // XBuild::Build root
  kBuildIteration,   // one accepted-refinement search iteration (arg: #)
  kCatalogLoad,      // SketchCatalog::Put end-to-end
  kCatalogMmap,      // mmap + validation inside a Put (arg: frozen bytes)
  kCatalogSwap,      // generation install under the catalog lock
};
inline constexpr int kStageCount = 13;
const char* StageName(Stage stage);

// One completed span. start_ns is monotonic, measured from the process
// tracer's construction; tid is a small sequential per-thread number
// (ring registration order), not an OS thread id.
struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint64_t arg = 0;  // stage-specific payload (see Stage comments)
  uint32_t tid = 0;
  Stage stage = Stage::kQuery;
};

// Handle identifying a sampled trace plus the span new children attach
// to. Default-constructed (trace_id 0) means "not sampled": every
// SpanScope built from it is a no-op.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  bool sampled() const { return trace_id != 0; }
};

// Process-wide tracer. All methods are thread-safe.
class Tracer {
 public:
  // Completed spans retained per recording thread; older spans are
  // overwritten (and counted as dropped).
  static constexpr size_t kRingCapacity = 8192;

  static Tracer& Default();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // New trace root, always sampled: the one way a trace starts. Open a
  // SpanScope on the returned context to make it thread-current.
  TraceContext ForceTrace();

  // All completed spans across every thread ring, start-ordered. Safe
  // with concurrent recorders (each ring is copied under its lock).
  std::vector<Span> Snapshot() const;
  // Snapshot + clear (counters kept).
  std::vector<Span> Drain();
  // Completed spans of one trace, start-ordered.
  std::vector<Span> SpansForTrace(uint64_t trace_id) const;
  // Clears every ring and the recorded/dropped counters.
  void Reset();

  uint64_t recorded() const { return metric_spans_.value(); }
  uint64_t dropped() const { return metric_dropped_.value(); }

  // Chrome trace_event JSON ("traceEvents" array of complete "X" events,
  // timestamps in microseconds): chrome://tracing / Perfetto compatible.
  static std::string ToChromeJson(const std::vector<Span>& spans);

 private:
  friend class SpanScope;

  Tracer();

  uint64_t NowNs() const;
  uint64_t NextSpanId() {
    return next_span_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_trace_{0};
  std::atomic<uint64_t> next_span_{0};
  // Registry counters (obs/metrics.h), the rings' appended/dropped counts.
  Counter& metric_spans_;
  Counter& metric_dropped_;
  ThreadRings<Span, kRingCapacity> rings_;
};

namespace internal {
// Thread-current trace context: what a parameterless SpanScope attaches
// to. Lives in the header so SpanScope's inert fast path inlines into
// callers; constinit guarantees constant initialization, so the access
// compiles to a direct TLS load with no init-wrapper call. Not part of
// the public surface — use CurrentTraceContext().
struct ThreadContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};
extern constinit thread_local ThreadContext g_thread_ctx;
}  // namespace internal

// RAII span. Records on destruction; no-op (one thread-local read + a
// branch, no clock access — the whole inert path is inline) when the
// governing context is unsampled. The inert cost is what the <2% serving
// overhead budget rides on, gated by bench/perf_batch --delta.
//
//   { SpanScope s(Stage::kCompile); ... }        // child of thread-current
//   { SpanScope s(ctx, Stage::kBatchChunk); ...} // explicit parent (fan-out)
class SpanScope {
 public:
  // Child of the calling thread's current span; inert when the thread is
  // not inside a sampled trace.
  explicit SpanScope(Stage stage, uint64_t arg = 0)
      : trace_id_(0), span_id_(0), restore_(false) {
    // Members of the variable itself, never a reference bound to it: GCC
    // null-checks such a reference with the flags of an `add` that the
    // linker's TLS relaxation turns into a flag-less `lea`, which makes
    // -fsanitize=undefined report a null pointer that is not there.
    if (internal::g_thread_ctx.trace_id == 0) return;
    Open(internal::g_thread_ctx.trace_id, internal::g_thread_ctx.span_id,
         stage, arg);
  }
  // Child of an explicit context (cross-thread handoff or a trace root);
  // inert when !ctx.sampled(). While alive it is the thread-current span,
  // so nested thread-current scopes attach beneath it — and an unsampled
  // ctx also suppresses nested scopes for its duration.
  SpanScope(const TraceContext& ctx, Stage stage, uint64_t arg = 0);
  ~SpanScope() {
    // restore_ implies there is work: a span to record (sampled) and/or a
    // masked thread context to put back (explicit-ctx scopes).
    if (restore_) Close();
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool recording() const { return trace_id_ != 0; }
  // Context for children of this span (cross-thread propagation); {0,0}
  // for an inert scope.
  TraceContext context() const { return {trace_id_, span_id_}; }
  // Updates the stage payload before the span closes (e.g. hit/miss known
  // only mid-scope).
  void set_arg(uint64_t arg) { arg_ = arg; }

 private:
  void Open(uint64_t trace_id, uint64_t parent, Stage stage, uint64_t arg);
  void Close();

  // No default member initializers: the inline constructors set only what
  // the inert path needs (trace_id_, span_id_, restore_); Open fills the
  // rest before any read.
  uint64_t trace_id_;
  uint64_t span_id_;
  uint64_t parent_id_;
  uint64_t start_ns_;
  uint64_t arg_;
  uint64_t prev_trace_;
  uint64_t prev_span_;
  bool restore_;
  Stage stage_;
};

// The calling thread's current trace context ({0,0} outside any sampled
// span) — what a thread-current SpanScope would attach to.
TraceContext CurrentTraceContext();

}  // namespace xsketch::obs

#endif  // XSKETCH_OBS_TRACE_H_
