// The benchmark's own span recorder. A traced run records a span around
// each call it makes into a library layer: name, start, end, parent span
// and request id. Spans stay in per-thread memory while the run measures
// and are written to one file when it ends. A layer's self time is its
// span's duration minus the time its child spans cover.
//
// The library is not instrumented from here: spans cover exactly the
// public calls the benchmark makes, so anything a call does internally
// (admission-queue wait, flight-recorder bookkeeping, pool hand-offs)
// lands in that call's self time.

#ifndef XSBENCH_TRACE_H_
#define XSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xsbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // static string, e.g. "service.prepare"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index in the same log, -1 for a root
  uint32_t flags = 0;   // span-specific, e.g. kFlagHit
  uint64_t req = 0;     // request id shared by a request's spans
};

inline constexpr uint32_t kFlagHit = 1;   // service.prepare: plan-cache hit
inline constexpr uint32_t kFlagMiss = 2;  // service.prepare: plan-cache miss

// Spans of one thread. Fixed capacity: once full, Begin returns -1 and
// later spans are not kept.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

  int Begin(const char* name, uint64_t req, int parent) {
    if (spans_.size() == spans_.capacity()) return -1;
    spans_.push_back({name, NowNs(), 0, parent, 0, req});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int index, uint32_t flags = 0) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    spans_[index].flags |= flags;
  }
  void Flag(int index, uint32_t flags) {
    if (index >= 0) spans_[index].flags |= flags;
  }
  void SetEnd(int index, int64_t end_ns) {
    if (index >= 0) spans_[index].end_ns = end_ns;
  }
  // Records a span whose times were taken elsewhere.
  int Add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t req,
          int parent, uint32_t flags = 0) {
    if (spans_.size() == spans_.capacity()) return -1;
    spans_.push_back({name, start_ns, end_ns, parent, flags, req});
    return static_cast<int>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// RAII span; a null log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t req, int parent = -1)
      : log_(log), index_(log ? log->Begin(name, req, parent) : -1) {}
  ~ScopedSpan() {
    if (log_) log_->End(index_, flags_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }
  void set_flags(uint32_t flags) { flags_ |= flags; }

 private:
  SpanLog* log_;
  int index_;
  uint32_t flags_ = 0;
};

// Owns the logs of one run.
class Tracer {
 public:
  // A new log for one thread; valid until the tracer is destroyed.
  SpanLog* NewLog(size_t capacity);

  // Self times (or, with self == false, durations) in microseconds of
  // every span named `name` whose flags contain `flags`.
  std::vector<double> TimesUs(const char* name, uint32_t flags = 0,
                              bool self = true) const;
  // Median of TimesUs; 0 when no such span was recorded.
  double MedianUs(const char* name, uint32_t flags = 0,
                  bool self = true) const;
  // Per request id: the summed durations (microseconds) of the spans
  // named `name`.
  std::vector<double> PerRequestSumsUs(const char* name) const;

  // Writes every span as tab-separated text:
  //   log  index  name  start_ns  end_ns  parent  req  flags
  // Returns false when the file cannot be written.
  bool WriteFile(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace xsbench

#endif  // XSBENCH_TRACE_H_
