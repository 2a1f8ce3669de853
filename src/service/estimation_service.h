// EstimationService: the concurrent batch estimation engine.
//
// The paper's evaluation (§6, Table 2) runs thousand-query workloads
// against one synopsis; this is the serving-shaped version of that setting:
// the service serves one FrozenSynopsis (heap-frozen after XBUILD or
// mmap-loaded from an XSK3 file), lowers queries to CompiledTwig programs
// through one shared TwigCompiler (core/compile.h), and fans batches out
// across a fixed thread pool. Compiled execution is
// the only serving path; it is bit-identical to the reference interpreter
// (core::Estimator, kept as the test oracle and the XBUILD scorer) —
// estimates AND EstimateStats counters. Per-query work is independent, so
// batch results are bit-identical to running the queries sequentially in
// batch order.
//
// Every query is validated first: malformed twigs come back as per-query
// Status::InvalidArgument entries, never aborts, and never poison the rest
// of the batch.
//
// Prepare() returns a shareable program through an internal LRU plan cache
// of kPlanCacheCapacity programs keyed by the twig's canonical byte
// encoding, so repeated query shapes skip lowering entirely;
// EstimateBatch and Estimate route through the same cache.
//
// Tracing (obs/trace.h) is the caller's decision: a batch or estimate
// records its span tree only when the calling thread is inside a sampled
// trace (a Tracer::ForceTrace() root), and attaches under the caller's
// span. Tracing never touches the estimate computation: results stay
// bit-identical traced or not (pinned by the differential harness's
// bit-identity-traced invariant).

#ifndef XSKETCH_SERVICE_ESTIMATION_SERVICE_H_
#define XSKETCH_SERVICE_ESTIMATION_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compile.h"
#include "core/frozen.h"
#include "obs/metrics.h"
#include "query/twig.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsketch::service {

// Canonical byte encoding of a twig: a node-count prefix, then one
// length-prefixed record per node in arena order. Node order, parent
// links, and child creation order fully determine the evaluation, so
// equal keys imply interchangeable compiled plans. This is the plan-cache
// key and the flight recorder's query identity (FlightRecord::twig_key).
std::string CanonicalTwigKey(const query::TwigQuery& twig);

struct ServiceOptions {
  // Worker threads estimating in parallel. 0 picks the hardware
  // concurrency; otherwise must be >= 1. A one-thread service starts no
  // worker: EstimateBatch runs on the calling thread.
  int num_threads = 0;
  // Forwarded to the shared TwigCompiler.
  core::EstimatorOptions estimator;

  // Sketch generation stamped into flight records — SketchCatalog sets
  // it for the service each generation owns; 0 otherwise.
  uint64_t sketch_generation = 0;

  util::Status Validate() const;
};

// Aggregate observability for one EstimateBatch call.
struct BatchStats {
  size_t queries = 0;
  size_t failed = 0;              // per-query InvalidArgument results
  // Deadline accounting (EstimateBatch with a deadline): queries whose
  // chunk was abandoned because the deadline had passed before the chunk
  // started. Abandoned queries get DeadlineExceeded results and are not
  // counted in `failed`; everything finished before the cutoff is
  // reported normally — the partial-stats contract.
  size_t abandoned = 0;
  bool deadline_exceeded = false;
  double wall_ms = 0.0;           // end-to-end batch wall time
  double p50_latency_us = 0.0;    // per-query estimation latency
  double p95_latency_us = 0.0;
  // Plan-cache activity of this batch's own queries (exact even when
  // batches overlap): one lookup per query that passed validation.
  uint64_t plan_cache_lookups = 0;
  uint64_t plan_cache_hits = 0;
  // Sums of the per-query EstimateStats counters (successful queries).
  int64_t covered_terms = 0;      // E_i
  int64_t uniformity_terms = 0;   // U_i
  int64_t conditioned_nodes = 0;  // D_i
  int64_t value_fractions = 0;
  int64_t existential_terms = 0;
  int64_t descendant_chains = 0;
};

class EstimationService {
 public:
  // Compiled programs kept in the LRU plan cache.
  static constexpr size_t kPlanCacheCapacity = 256;

  // A service over `frozen` — heap-frozen from a TwigXSketch or
  // mmap-loaded from an XSK3 file (core/frozen_io.h); validates
  // `options`. Every estimate runs as a compiled program over the frozen
  // arrays. The returned service is immutable and safe to share across
  // threads.
  static util::Result<std::unique_ptr<EstimationService>> Create(
      std::shared_ptr<const core::FrozenSynopsis> frozen,
      const ServiceOptions& options = {});

  ~EstimationService();

  EstimationService(const EstimationService&) = delete;
  EstimationService& operator=(const EstimationService&) = delete;

  // Absolute per-request deadline, on the clock EstimateBatch checks.
  using Deadline = std::chrono::steady_clock::time_point;

  // Estimates every query in `queries` across the worker pool (on the
  // calling thread for a one-thread service), preserving order: result i
  // corresponds to queries[i]. Per-query failures (malformed
  // twigs) surface as failed Results. When `stats` is non-null it
  // receives the batch's aggregate observability.
  //
  // Deadline semantics (engaged `deadline`): the deadline is checked at
  // chunk boundaries — a chunk whose start time is already past it is
  // abandoned wholesale, its queries get DeadlineExceeded results, and
  // BatchStats reports the partial picture (completed-query stats plus
  // `abandoned` / `deadline_exceeded`). Queries already executing when
  // the deadline passes run to completion: estimation work is short and
  // chunk-granular cancellation keeps results deterministic per chunk.
  std::vector<util::Result<core::EstimateStats>> EstimateBatch(
      std::span<const query::TwigQuery> queries,
      BatchStats* stats = nullptr,
      std::optional<Deadline> deadline = std::nullopt) const;

  // Single-query convenience: Prepare + ExecuteWithStats, traced and
  // flight-recorded like one batch query.
  util::Result<core::EstimateStats> Estimate(
      const query::TwigQuery& twig) const;

  // Lowers `twig` to a compiled program through the LRU plan cache:
  // repeated shapes return the cached program, new shapes compile and may
  // evict the least-recently-used entry. Malformed twigs return
  // InvalidArgument. The returned program is immutable, shareable across
  // threads, and valid while this service is alive (it references the
  // service's frozen synopsis). Thread-safe.
  util::Result<std::shared_ptr<const core::CompiledTwig>> Prepare(
      const query::TwigQuery& twig) const;

  struct PlanCacheCounters {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t evictions = 0;
    size_t size = 0;  // programs currently cached
  };
  // Lifetime plan-cache activity for this service (the registry's
  // xsketch_service_plan_cache_*_total series sum it over all services).
  PlanCacheCounters plan_cache_counters() const;

  const core::TwigCompiler& compiler() const { return *compiler_; }
  const core::FrozenSynopsis& frozen() const { return *frozen_; }
  // Tag names usable for parsing path queries against this service (the
  // frozen synopsis carries its own interner).
  const util::StringInterner& tags() const { return frozen_->tags(); }
  int num_threads() const { return num_threads_; }

 private:
  EstimationService(std::shared_ptr<const core::FrozenSynopsis> frozen,
                    const ServiceOptions& options);

  // Per-query stage attribution for the flight recorder: the canonical
  // key (encoded once, reused as the record identity) plus where the time
  // went.
  struct QueryAttribution {
    std::string key;
    double prepare_us = 0.0;  // plan-cache lookup + compile
    double compile_us = 0.0;  // lowering only (cache misses)
    double execute_us = 0.0;
    bool plan_cache_lookup = false;  // passed validation, reached the cache
    bool plan_cache_hit = false;
  };

  // Prepare with optional attribution (attr may be null: the public
  // Prepare() path, which skips the extra clock reads).
  util::Result<std::shared_ptr<const core::CompiledTwig>> PrepareAttributed(
      const query::TwigQuery& twig, QueryAttribution* attr) const;

  // One query: Prepare + ExecuteWithStats, attributed, with
  // kPlanCache/kExecute spans when traced.
  util::Result<core::EstimateStats> EstimateCompiled(
      const query::TwigQuery& twig, QueryAttribution* attr) const;

  // Appends one completed query to FlightRecorder::Default().
  void RecordFlight(const query::TwigQuery& twig, uint64_t trace_id,
                    QueryAttribution&& attr, double total_us,
                    const util::Result<core::EstimateStats>& result) const;

  // Process-wide registry handles (see obs/metrics.h). Shared across all
  // services in the process; BatchStats carries the per-batch values.
  struct Metrics {
    obs::Counter* batches;
    obs::Counter* queries;
    obs::Counter* failed;
    obs::Histogram* latency_us;
    // Batch queries abandoned at a chunk boundary because the request
    // deadline had already passed.
    obs::Counter* deadline_abandoned;
    // Queries currently executing across all workers (chunk-granular;
    // Gauge::Add/Sub keep concurrent updates lossless).
    obs::Gauge* inflight;
  };

  // LRU plan cache: most-recently-used at the front of the list; the map
  // indexes entries by the twig's canonical byte encoding. Guarded by
  // plan_mu_ (compilation itself happens outside the lock — a racing
  // thread may compile the same shape twice; both programs are identical
  // and first-insert wins).
  struct PlanEntry {
    std::string key;
    std::shared_ptr<const core::CompiledTwig> plan;
  };
  using PlanList = std::list<PlanEntry>;

  ServiceOptions options_;
  // The synopsis every program executes over: self-contained (owns or
  // pins its storage).
  std::shared_ptr<const core::FrozenSynopsis> frozen_;
  std::unique_ptr<const core::TwigCompiler> compiler_;
  mutable std::mutex plan_mu_;
  mutable PlanList plan_lru_;
  mutable std::unordered_map<std::string, PlanList::iterator> plan_index_;
  // This service's plan-cache activity (see plan_cache_counters()).
  mutable obs::OwnedCounter plan_cache_lookups_{
      "xsketch_service_plan_cache_lookups_total",
      "compiled-plan cache lookups"};
  mutable obs::OwnedCounter plan_cache_hits_{
      "xsketch_service_plan_cache_hits_total", "compiled-plan cache hits"};
  mutable obs::OwnedCounter plan_cache_evictions_{
      "xsketch_service_plan_cache_evictions_total",
      "compiled plans evicted from the LRU cache"};
  int num_threads_ = 1;
  // Batch workers; null when num_threads_ == 1 (batches run inline).
  std::unique_ptr<util::ThreadPool> pool_;
  Metrics metrics_;
};

}  // namespace xsketch::service

#endif  // XSKETCH_SERVICE_ESTIMATION_SERVICE_H_
