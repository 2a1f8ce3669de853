#include "service/estimation_service.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "obs/flight.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/percentiles.h"

namespace xsketch::service {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

// Plan-cache keying (see the header comment): the explicit length
// prefixes make the encoding self-delimiting by construction — no record
// can absorb bytes of its neighbor, so two distinct twigs can never
// concatenate to the same key (defense in depth on top of the fixed-width
// record layout).
std::string CanonicalTwigKey(const query::TwigQuery& twig) {
  std::string key;
  key.reserve(4 + static_cast<size_t>(twig.size()) * 28);
  auto put = [&key](const void* p, size_t n) {
    key.append(static_cast<const char*>(p), n);
  };
  const int32_t node_count = twig.size();
  put(&node_count, sizeof(node_count));
  for (int t = 0; t < twig.size(); ++t) {
    const auto& node = twig.node(t);
    const uint8_t record_len =
        node.pred.has_value() ? 26 : 10;  // bytes after this prefix
    put(&record_len, 1);
    put(&node.tag, sizeof(node.tag));
    const uint8_t axis = static_cast<uint8_t>(node.axis);
    const uint8_t flags = (node.existential ? 1 : 0) |
                          (node.pred.has_value() ? 2 : 0);
    put(&axis, 1);
    put(&flags, 1);
    if (node.pred.has_value()) {
      put(&node.pred->lo, sizeof(node.pred->lo));
      put(&node.pred->hi, sizeof(node.pred->hi));
    }
    const int32_t parent = static_cast<int32_t>(node.parent);
    put(&parent, sizeof(parent));
  }
  return key;
}

util::Status ServiceOptions::Validate() const {
  if (num_threads < 0) {
    return util::Status::InvalidArgument(
        "num_threads must be >= 0 (got " + std::to_string(num_threads) +
        "; 0 means hardware concurrency)");
  }
  return estimator.Validate();
}

util::Result<std::unique_ptr<EstimationService>> EstimationService::Create(
    std::shared_ptr<const core::FrozenSynopsis> frozen,
    const ServiceOptions& options) {
  if (util::Status st = options.Validate(); !st.ok()) return st;
  if (frozen == nullptr) {
    return util::Status::InvalidArgument("frozen synopsis must not be null");
  }
  return std::unique_ptr<EstimationService>(
      new EstimationService(std::move(frozen), options));
}

EstimationService::EstimationService(
    std::shared_ptr<const core::FrozenSynopsis> frozen,
    const ServiceOptions& options)
    : options_(options),
      frozen_(std::move(frozen)),
      compiler_(std::make_unique<const core::TwigCompiler>(frozen_,
                                                           options.estimator)),
      num_threads_(options.num_threads > 0
                       ? options.num_threads
                       : util::ThreadPool::HardwareThreads()) {
  if (num_threads_ > 1) {
    pool_ = std::make_unique<util::ThreadPool>(num_threads_);
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metrics_.batches =
      &reg.GetCounter("xsketch_service_batches_total", "EstimateBatch calls");
  metrics_.queries = &reg.GetCounter("xsketch_service_queries_total",
                                     "queries submitted in batches");
  metrics_.failed =
      &reg.GetCounter("xsketch_service_failed_queries_total",
                      "per-query failures (malformed twigs) in batches");
  metrics_.latency_us =
      &reg.GetHistogram("xsketch_service_query_latency_us",
                        obs::LatencyBucketsUs(),
                        "per-query estimation latency (microseconds)");
  metrics_.deadline_abandoned = &reg.GetCounter(
      "xsketch_service_deadline_abandoned_total",
      "batch queries abandoned at chunk boundaries past their deadline");
  metrics_.inflight =
      &reg.GetGauge("xsketch_service_inflight_queries",
                    "batch queries currently executing across workers");
}

util::Result<std::shared_ptr<const core::CompiledTwig>>
EstimationService::Prepare(const query::TwigQuery& twig) const {
  return PrepareAttributed(twig, nullptr);
}

util::Result<std::shared_ptr<const core::CompiledTwig>>
EstimationService::PrepareAttributed(const query::TwigQuery& twig,
                                     QueryAttribution* attr) const {
  const Clock::time_point prep_start =
      attr != nullptr ? Clock::now() : Clock::time_point{};
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  std::string key = CanonicalTwigKey(twig);
  obs::SpanScope cache_span(obs::Stage::kPlanCache);
  plan_cache_lookups_.Increment();
  if (attr != nullptr) attr->plan_cache_lookup = true;
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = plan_index_.find(key);
    if (it != plan_index_.end()) {
      plan_cache_hits_.Increment();
      plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
      cache_span.set_arg(1);  // hit
      if (attr != nullptr) {
        attr->key = std::move(key);
        attr->plan_cache_hit = true;
        attr->prepare_us = MicrosBetween(prep_start, Clock::now());
      }
      return it->second->plan;
    }
  }
  // Miss: compile outside the lock (the compiler is const and thread-safe;
  // a racing thread compiling the same shape produces an identical
  // program, and first-insert wins below).
  const Clock::time_point compile_start =
      attr != nullptr ? Clock::now() : Clock::time_point{};
  auto compiled = compiler_->Compile(twig);
  if (attr != nullptr) {
    attr->compile_us = MicrosBetween(compile_start, Clock::now());
  }
  if (!compiled.ok()) {
    if (attr != nullptr) {
      attr->key = std::move(key);
      attr->prepare_us = MicrosBetween(prep_start, Clock::now());
    }
    return compiled.status();
  }
  std::shared_ptr<const core::CompiledTwig> plan = compiled.value();
  if (attr != nullptr) {
    attr->key = key;
    attr->prepare_us = MicrosBetween(prep_start, Clock::now());
  }
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto it = plan_index_.find(key);
  if (it != plan_index_.end()) {
    plan_lru_.splice(plan_lru_.begin(), plan_lru_, it->second);
    return it->second->plan;
  }
  plan_lru_.push_front(PlanEntry{std::move(key), plan});
  plan_index_.emplace(plan_lru_.front().key, plan_lru_.begin());
  while (plan_lru_.size() > kPlanCacheCapacity) {
    plan_index_.erase(plan_lru_.back().key);
    plan_lru_.pop_back();
    plan_cache_evictions_.Increment();
  }
  return plan;
}

EstimationService::PlanCacheCounters EstimationService::plan_cache_counters()
    const {
  // Hits before lookups, so hits <= lookups (see obs::OwnedCounter).
  PlanCacheCounters c;
  c.hits = plan_cache_hits_.value();
  c.lookups = plan_cache_lookups_.value();
  c.evictions = plan_cache_evictions_.value();
  std::lock_guard<std::mutex> lock(plan_mu_);
  c.size = plan_lru_.size();
  return c;
}

util::Result<core::EstimateStats> EstimationService::EstimateCompiled(
    const query::TwigQuery& twig, QueryAttribution* attr) const {
  auto plan = PrepareAttributed(twig, attr);
  if (!plan.ok()) return plan.status();
  obs::SpanScope exec_span(obs::Stage::kExecute);
  const Clock::time_point exec_start = Clock::now();
  core::EstimateStats stats = plan.value()->ExecuteWithStats();
  attr->execute_us = MicrosBetween(exec_start, Clock::now());
  return stats;
}

void EstimationService::RecordFlight(
    const query::TwigQuery& twig, uint64_t trace_id, QueryAttribution&& attr,
    double total_us, const util::Result<core::EstimateStats>& result) const {
  obs::FlightRecord rec;
  rec.trace_id = trace_id;
  // A twig that fails validation is rejected before its key is encoded;
  // do it here so every record carries its query identity.
  rec.twig_key = attr.key.empty() ? CanonicalTwigKey(twig)
                                  : std::move(attr.key);
  rec.sketch_generation = options_.sketch_generation;
  rec.ok = result.ok();
  if (result.ok()) {
    rec.estimate = result.value().estimate;
  } else {
    rec.error = result.status().message();
  }
  rec.prepare_us = attr.prepare_us;
  rec.compile_us = attr.compile_us;
  rec.execute_us = attr.execute_us;
  rec.total_us = total_us;
  rec.plan_cache_hit = attr.plan_cache_hit;
  obs::FlightRecorder::Default().Record(std::move(rec));
}

EstimationService::~EstimationService() = default;

util::Result<core::EstimateStats> EstimationService::Estimate(
    const query::TwigQuery& twig) const {
  const uint64_t trace_id = obs::CurrentTraceContext().trace_id;
  const Clock::time_point start = Clock::now();
  QueryAttribution attr;
  util::Result<core::EstimateStats> result = [&] {
    // The kQuery span must close before the flight record is taken so
    // slow/error promotion sees the complete tree.
    obs::SpanScope qspan(obs::Stage::kQuery);
    return EstimateCompiled(twig, &attr);
  }();
  RecordFlight(twig, trace_id, std::move(attr),
               MicrosBetween(start, Clock::now()), result);
  return result;
}

std::vector<util::Result<core::EstimateStats>>
EstimationService::EstimateBatch(std::span<const query::TwigQuery> queries,
                                 BatchStats* stats,
                                 std::optional<Deadline> deadline) const {
  const Clock::time_point batch_start = Clock::now();

  const size_t n = queries.size();
  // A batch under the caller's sampled trace records its whole span tree
  // (envelope, chunks, every query) beneath the caller's span.
  obs::SpanScope batch_span(obs::Stage::kBatch, n);
  // Result<T> has no default constructor; stage into optionals and move
  // into the final vector once every slot is filled.
  std::vector<std::optional<util::Result<core::EstimateStats>>> staged(n);
  std::vector<double> latencies_us(n, 0.0);
  // Per-query plan-cache outcome: 0 no lookup (invalid or abandoned),
  // 1 miss, 2 hit.
  std::vector<uint8_t> plan_outcome(n, 0);

  // ~4 chunks per worker: bounds scheduling overhead while still
  // smoothing skewed per-query latencies.
  const size_t chunk = std::max<size_t>(
      1, n / (static_cast<size_t>(num_threads_) * 4));
  const obs::TraceContext chunk_ctx = batch_span.context();
  auto run_chunk = [this, queries, chunk_ctx, deadline, &staged,
                    &latencies_us, &plan_outcome](size_t begin, size_t end) {
    // Explicit handoff: the chunk span attaches under the batch envelope
    // (and an unsampled batch suppresses every nested span on a worker
    // for the chunk's duration).
    obs::SpanScope chunk_span(chunk_ctx, obs::Stage::kBatchChunk,
                              end - begin);
    // Deadline check at the chunk boundary: a chunk starting past the
    // request deadline is abandoned wholesale — its queries report
    // DeadlineExceeded and no estimation work runs. Chunks already in
    // flight finish (cancellation is chunk-granular by design).
    if (deadline.has_value() && Clock::now() >= *deadline) {
      for (size_t i = begin; i < end; ++i) {
        staged[i].emplace(util::Status::DeadlineExceeded(
            "batch deadline passed before query chunk started"));
      }
      metrics_.deadline_abandoned->Increment(end - begin);
      return;
    }
    metrics_.inflight->Add(static_cast<double>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      const Clock::time_point q_start = Clock::now();
      QueryAttribution attr;
      {
        obs::SpanScope qspan(obs::Stage::kQuery, i);
        staged[i].emplace(EstimateCompiled(queries[i], &attr));
      }
      latencies_us[i] = MicrosBetween(q_start, Clock::now());
      plan_outcome[i] = attr.plan_cache_lookup ? 1 + attr.plan_cache_hit : 0;
      // Exemplar: the batch's trace id rides along so the latency
      // histogram can point at the worst window's trace.
      metrics_.latency_us->Observe(latencies_us[i], chunk_ctx.trace_id);
      RecordFlight(queries[i], chunk_ctx.trace_id, std::move(attr),
                   latencies_us[i], *staged[i]);
    }
    metrics_.inflight->Sub(static_cast<double>(end - begin));
  };
  if (pool_ == nullptr) {
    for (size_t begin = 0; begin < n; begin += chunk) {
      run_chunk(begin, std::min(n, begin + chunk));
    }
  } else {
    util::TaskGroup group(pool_.get());
    for (size_t begin = 0; begin < n; begin += chunk) {
      const size_t end = std::min(n, begin + chunk);
      group.Submit([&run_chunk, begin, end] { run_chunk(begin, end); });
    }
    group.Wait();
  }

  std::vector<util::Result<core::EstimateStats>> results;
  results.reserve(n);
  size_t failed = 0;
  size_t abandoned = 0;
  BatchStats agg;
  for (size_t i = 0; i < n; ++i) {
    XS_CHECK(staged[i].has_value());
    if (staged[i]->ok()) {
      const core::EstimateStats& s = staged[i]->value();
      agg.covered_terms += s.covered_terms;
      agg.uniformity_terms += s.uniformity_terms;
      agg.conditioned_nodes += s.conditioned_nodes;
      agg.value_fractions += s.value_fractions;
      agg.existential_terms += s.existential_terms;
      agg.descendant_chains += s.descendant_chains;
    } else if (staged[i]->status().code() ==
               util::StatusCode::kDeadlineExceeded) {
      ++abandoned;  // partial-stats contract: not a query failure
    } else {
      ++failed;
    }
    results.push_back(std::move(*staged[i]));
  }

  metrics_.batches->Increment();
  metrics_.queries->Increment(n);
  metrics_.failed->Increment(failed);

  if (stats != nullptr) {
    agg.queries = n;
    agg.failed = failed;
    agg.abandoned = abandoned;
    agg.deadline_exceeded = abandoned > 0;
    agg.wall_ms = MicrosBetween(batch_start, Clock::now()) / 1000.0;
    if (abandoned == 0) {
      agg.p50_latency_us = util::Percentile(latencies_us, 0.50);
      agg.p95_latency_us = util::Percentile(latencies_us, 0.95);
    } else {
      // Partial stats: percentile over the queries that actually ran —
      // abandoned slots never got a latency and would drag the
      // distribution toward zero.
      std::vector<double> ran;
      ran.reserve(n - abandoned);
      for (size_t i = 0; i < n; ++i) {
        if (results[i].ok() ||
            results[i].status().code() !=
                util::StatusCode::kDeadlineExceeded) {
          ran.push_back(latencies_us[i]);
        }
      }
      agg.p50_latency_us = util::Percentile(ran, 0.50);
      agg.p95_latency_us = util::Percentile(ran, 0.95);
    }
    for (const uint8_t outcome : plan_outcome) {
      agg.plan_cache_lookups += outcome != 0;
      agg.plan_cache_hits += outcome == 2;
    }
    *stats = agg;
  }
  return results;
}

}  // namespace xsketch::service
