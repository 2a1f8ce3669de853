// Flight recorder: an always-on ring of the last N completed query
// records — the post-mortem surface for "what did the slow/failing
// queries look like" without any sampling configured up front.
//
// Every completed query on the serving path (EstimationService batch and
// single-query estimates, the trace CLI) appends a FlightRecord: the
// twig's canonical plan-cache key, per-stage microseconds (parse /
// prepare / compile / execute / total), the estimate, the sketch
// generation it ran against, and the error status. Records land in
// per-thread bounded rings (obs/thread_rings.h, shared with the tracer:
// the owning thread appends under an uncontended lock, old records are
// overwritten and counted as dropped), stamped with a global sequence
// number so Dump() can interleave threads into true completion order.
// The xsketch_flight_* registry counters are the only record counts;
// counters() reads them.
//
// Slow-query promotion: records whose total latency reaches kSlowUs —
// and every failed record — are marked and, when
// the query was also trace-sampled, carry the full span tree copied out
// of the tracer at record time, so the post-mortem includes the per-stage
// breakdown even after the tracer ring has wrapped.
//
// The recorder is dumpable on demand (Dump / ToJson — what the daemon
// will expose) and feeds the differential harness: invariant failures
// attach the matching record to the repro message automatically.

#ifndef XSKETCH_OBS_FLIGHT_H_
#define XSKETCH_OBS_FLIGHT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/thread_rings.h"
#include "obs/trace.h"

namespace xsketch::obs {

// One completed query, as the flight recorder retains it.
struct FlightRecord {
  // Global completion order (1-based; stamped by Record).
  uint64_t seq = 0;
  // Trace id when the query was trace-sampled, else 0.
  uint64_t trace_id = 0;
  // Canonical plan-cache key bytes (service::CanonicalTwigKey); hex in
  // the JSON dump.
  std::string twig_key;
  double estimate = 0.0;
  // Sketch generation served (SketchHandle::generation(), stamped via
  // ServiceOptions::sketch_generation; 0 when not catalog-backed).
  uint64_t sketch_generation = 0;
  bool ok = true;
  std::string error;  // status message for failed queries
  // Per-stage attribution, microseconds. Stages outside the recording
  // layer stay 0 (e.g. parse_us for service-side records: parsing
  // happened before the service saw the twig).
  double parse_us = 0.0;
  double prepare_us = 0.0;  // plan-cache lookup + compile
  double compile_us = 0.0;  // lowering only (inside prepare)
  double execute_us = 0.0;
  double total_us = 0.0;
  bool plan_cache_hit = false;
  // Crossed the slow threshold (error records promote too).
  bool slow = false;
  // Full span tree of this query's trace, copied at record time for
  // promoted records with a sampled trace; empty otherwise.
  std::vector<Span> spans;

  std::string ToJson() const;
};

class FlightRecorder {
 public:
  // Records retained per recording thread (so bursts on one thread cannot
  // evict another thread's records), and at most this many in a Dump():
  // the "last N" of the post-mortem surface.
  static constexpr size_t kCapacity = 256;
  // Queries at or above this total latency promote their span tree.
  static constexpr double kSlowUs = 1000.0;

  static FlightRecorder& Default();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one completed query. Stamps seq; marks slow/error records and
  // promotes their span tree from Tracer::Default() when trace-sampled.
  void Record(FlightRecord record);

  // The retained records, newest first, at most kCapacity of them.
  std::vector<FlightRecord> Dump() const;
  // Newest retained record whose twig_key matches; false when none does.
  bool FindByKey(const std::string& twig_key, FlightRecord* out) const;
  // {"records":[...]} rendering of Dump() (newest first).
  std::string ToJson() const;

  struct Counters {
    uint64_t recorded = 0;
    uint64_t slow = 0;
    uint64_t errors = 0;
    uint64_t dropped = 0;  // overwritten before ever being dumped
  };
  Counters counters() const;

  // Clears every ring and the counters.
  void Reset();

 private:
  FlightRecorder();

  // Completion-order stamp for FlightRecord::seq (an id, not a count).
  std::atomic<uint64_t> seq_{0};
  // Registry counters (obs/metrics.h); records/dropped are the rings'.
  Counter& metric_records_;
  Counter& metric_slow_;
  Counter& metric_errors_;
  Counter& metric_dropped_;
  ThreadRings<FlightRecord, kCapacity> rings_;
};

}  // namespace xsketch::obs

#endif  // XSKETCH_OBS_FLIGHT_H_
