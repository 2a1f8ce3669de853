// Batch estimation throughput: queries/sec of the EstimationService at
// 1, 2, 4, 8 worker threads against the sequential Estimator baseline
// (the single-thread configuration of bench/perf_micro.cc's
// BM_EstimateTwig, lifted to a whole workload).
//
// Workload: XMark positive twigs (§6.1 shape) plus explicit '//'-heavy
// paths so the shared descendant-path cache sees real contention. Every
// parallel run is checked bit-identical against the sequential baseline.
//
// Scale knobs (see bench_common.h): XS_BENCH_SCALE, XS_BENCH_QUERIES,
// plus XS_BENCH_BATCH_REPEATS (default 3) timed repetitions per row.
//
// The "compiled" row is the prepared-query hot path (core/compile.h):
// every query lowered once by a shared TwigCompiler, then executed from
// its CompiledTwig program. Prepare cost is reported separately (us/query,
// cold expansion cache); the row's q/s is execute-only, which is what a
// plan-caching service amortizes to.
//
// --smoke: assert-only correctness pass on tiny inputs (no timing
// claims) — bit-identity against the sequential baseline plus BatchStats
// sanity invariants. Wired into ctest as part of bench_smoke so the
// bench harness itself cannot rot unnoticed.
//
// --delta: timing gates for scripts/ci_check.sh — (1) interpreted vs
// compiled single-thread throughput on a small fixed workload, failing if
// the compiled path regresses below the speedup gate; (2) the tracing
// overhead gate: the compiled row with tracing instrumentation present
// but unsampled must stay within XS_BENCH_TRACE_MAX_OVERHEAD (default 2%)
// of the uninstrumented loop — the no-op SpanScope is one thread-local
// read plus a branch, and this gate keeps it that way.
//
// The full run also prints a "traced" row: the 4-thread service batch run
// under a forced trace root (Tracer::ForceTrace), so every query records
// its span tree, with the flight recorder on — the worst-case
// observability configuration, checked bit-identical like every other
// row.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>

#include "bench_common.h"
#include "core/compile.h"
#include "core/frozen.h"
#include "obs/trace.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"

namespace {

using namespace xsketch;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool delta = argc > 1 && std::strcmp(argv[1], "--delta") == 0;
  // --delta pins its own workload size so the CI gate is stable under the
  // XS_BENCH_* environment.
  const bench::DataSet data =
      smoke ? bench::DataSet{"XMark",
                             data::GenerateXMark({.seed = 42, .scale = 0.02})}
      : delta
          ? bench::DataSet{"XMark",
                           data::GenerateXMark({.seed = 42, .scale = 0.05})}
          : bench::MakeXMark();
  const int num_queries = smoke ? 40 : delta ? 150 : bench::BenchQueries();
  const int repeats =
      (smoke || delta) ? (delta ? 3 : 1)
                       : bench::EnvInt("XS_BENCH_BATCH_REPEATS", 3);

  query::WorkloadOptions wopts;
  wopts.seed = 55;
  wopts.num_queries = num_queries;
  wopts.value_pred_fraction = 0.3;
  const query::Workload workload =
      query::GeneratePositiveWorkload(data.doc, wopts);

  std::vector<query::TwigQuery> queries;
  queries.reserve(workload.queries.size());
  for (const auto& wq : workload.queries) queries.push_back(wq.twig);
  for (const char* p :
       {"//item//keyword", "//person//name", "//open_auction//increase",
        "//site//text", "//europe//item", "//text//keyword"}) {
    auto q = query::ParsePath(p, data.doc.tags());
    if (q.ok()) queries.push_back(std::move(q).value());
  }

  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(data.doc);
  if (!smoke && !delta) {
    std::printf("# %s scale=%.2f, %zu queries, coarsest synopsis %.1f KB\n",
                data.name.c_str(), bench::BenchScale(), queries.size(),
                sketch.SizeBytes() / 1024.0);
  }

  // Sequential baseline: one-at-a-time EstimateWithStats, fresh estimator
  // (cold path cache) per timed repetition, best-of-repeats.
  std::vector<core::EstimateStats> expected;
  double seq_best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    core::Estimator est(sketch);
    std::vector<core::EstimateStats> run;
    run.reserve(queries.size());
    const Clock::time_point start = Clock::now();
    for (const query::TwigQuery& q : queries) {
      run.push_back(est.EstimateWithStats(q));
    }
    const double qps =
        static_cast<double>(queries.size()) / SecondsSince(start);
    seq_best = std::max(seq_best, qps);
    if (r == 0) expected = std::move(run);
  }
  if (!smoke && !delta) {
    std::printf("%-12s %12.0f q/s   (baseline)\n", "sequential", seq_best);
  }

  // Compiled prepared-query path: lower every query once through a shared
  // compiler (cold '//'-expansion cache, timed separately as prepare
  // cost), then run the programs. Execute-only q/s is the steady state a
  // plan-caching service amortizes to.
  const auto frozen = std::make_shared<const core::FrozenSynopsis>(sketch);
  const core::TwigCompiler compiler(frozen);
  std::vector<std::shared_ptr<const core::CompiledTwig>> plans;
  plans.reserve(queries.size());
  const Clock::time_point pstart = Clock::now();
  for (const query::TwigQuery& q : queries) {
    auto plan = compiler.Compile(q);
    if (!plan.ok()) {
      std::fprintf(stderr, "compile: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    plans.push_back(std::move(plan).value());
  }
  const double prepare_us =
      SecondsSince(pstart) * 1e6 / static_cast<double>(queries.size());

  double comp_best = 0.0;
  size_t comp_mismatches = 0;
  {
    std::vector<double> out(queries.size());
    core::ExecScratch scratch;
    for (int r = 0; r < repeats; ++r) {
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < queries.size(); ++i) {
        out[i] = plans[i]->Execute(scratch);
      }
      comp_best = std::max(
          comp_best, static_cast<double>(queries.size()) / SecondsSince(start));
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      if (std::memcmp(&out[i], &expected[i].estimate, sizeof(double)) != 0) {
        ++comp_mismatches;
      }
    }
  }
  if (comp_mismatches != 0) {
    std::fprintf(stderr, "compiled path MISMATCH: %zu of %zu estimates\n",
                 comp_mismatches, queries.size());
    return 1;
  }
  if (!smoke && !delta) {
    std::printf("%-12s %12.0f q/s   %5.2fx   prepare %5.1f us/q   %s\n",
                "compiled", comp_best, comp_best / seq_best, prepare_us,
                "bit-identical");
  }

  if (delta) {
    // Tracing overhead gate: the same execute-only loop with an unsampled
    // SpanScope around every query must stay within the overhead budget
    // of the bare loop. Both variants are re-timed here, interleaved and
    // with the workload repeated per timed pass, so the comparison sees
    // the same cache state and enough work for the clock to resolve.
    const double max_overhead =
        bench::EnvDouble("XS_BENCH_TRACE_MAX_OVERHEAD", 0.02);
    constexpr int kPasses = 20;
    double plain_best = 0.0, traced_off_best = 0.0;
    {
      std::vector<double> out(queries.size());
      core::ExecScratch scratch;
      const double per_pass = static_cast<double>(queries.size()) * kPasses;
      for (int r = 0; r < 7; ++r) {
        Clock::time_point start = Clock::now();
        for (int p = 0; p < kPasses; ++p) {
          for (size_t i = 0; i < queries.size(); ++i) {
            out[i] = plans[i]->Execute(scratch);
          }
        }
        plain_best = std::max(plain_best, per_pass / SecondsSince(start));
        start = Clock::now();
        for (int p = 0; p < kPasses; ++p) {
          for (size_t i = 0; i < queries.size(); ++i) {
            obs::SpanScope span(obs::Stage::kExecute);
            out[i] = plans[i]->Execute(scratch);
          }
        }
        traced_off_best =
            std::max(traced_off_best, per_pass / SecondsSince(start));
      }
    }
    const double overhead =
        plain_best > 0.0 ? 1.0 - traced_off_best / plain_best : 0.0;
    std::printf(
        "bench_trace: untraced %.0f q/s, tracing-off %.0f q/s "
        "(overhead %.2f%%, gate <= %.2f%%)\n",
        plain_best, traced_off_best, overhead * 100.0, max_overhead * 100.0);
    if (overhead > max_overhead) {
      std::fprintf(stderr,
                   "bench_trace FAILED: tracing-off overhead %.2f%% exceeds "
                   "the %.2f%% gate\n",
                   overhead * 100.0, max_overhead * 100.0);
      return 1;
    }

    // CI gate: the compiled hot path must stay comfortably ahead of the
    // memoized interpreter on the same single-thread workload. The gate is
    // a *relative* threshold, not "any slower": best-of-3 q/s on a small
    // workload jitters ~±20% on a loaded CI box, so an absolute comparison
    // fails open (a real 30% regression hides inside the noise) and fails
    // closed (a noisy run flags nothing). The compiled path runs ~3x the
    // interpreter when healthy; requiring 2.0x leaves a documented noise
    // margin while still catching any regression that halves the win.
    // Override for unusual machines: XS_BENCH_DELTA_MIN_SPEEDUP.
    const double min_speedup =
        bench::EnvDouble("XS_BENCH_DELTA_MIN_SPEEDUP", 2.0);
    double interp_best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      core::Estimator est(sketch);
      const Clock::time_point start = Clock::now();
      for (const query::TwigQuery& q : queries) (void)est.Estimate(q);
      interp_best = std::max(interp_best, static_cast<double>(queries.size()) /
                                              SecondsSince(start));
    }
    const double speedup = comp_best / interp_best;
    std::printf(
        "bench_delta: interpreted %.0f q/s, compiled %.0f q/s (%.2fx, "
        "gate >= %.2fx)\n",
        interp_best, comp_best, speedup, min_speedup);
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "bench_delta FAILED: compiled/interpreted speedup %.2fx "
                   "below the %.2fx gate\n",
                   speedup, min_speedup);
      return 1;
    }
    return 0;
  }

  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (int threads : thread_counts) {
    service::ServiceOptions opts;
    opts.num_threads = threads;
    double best = 0.0;
    size_t mismatches = 0;
    service::BatchStats stats;
    for (int r = 0; r < repeats; ++r) {
      // Fresh service per repetition: cold plan cache, fair comparison.
      auto svc = service::EstimationService::Create(
          std::make_shared<const core::FrozenSynopsis>(sketch), opts);
      if (!svc.ok()) {
        std::fprintf(stderr, "%s\n", svc.status().ToString().c_str());
        return 1;
      }
      const Clock::time_point start = Clock::now();
      auto results = svc.value()->EstimateBatch(queries, &stats);
      const double qps =
          static_cast<double>(queries.size()) / SecondsSince(start);
      best = std::max(best, qps);
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok() ||
            std::memcmp(&results[i].value().estimate, &expected[i].estimate,
                        sizeof(double)) != 0) {
          ++mismatches;
        }
      }
    }
    if (smoke) {
      // Assert-only: bit-identity plus BatchStats internal consistency.
      if (mismatches != 0 || stats.queries != queries.size() ||
          stats.p50_latency_us > stats.p95_latency_us ||
          stats.plan_cache_lookups != queries.size() ||
          stats.plan_cache_hits > stats.plan_cache_lookups) {
        std::fprintf(
            stderr,
            "perf_batch --smoke FAILED at %d threads: "
            "%zu mismatches, %zu/%zu queries, p50 %.1f p95 %.1f, "
            "plan cache %llu/%llu\n",
            threads, mismatches, stats.queries, queries.size(),
            stats.p50_latency_us, stats.p95_latency_us,
            static_cast<unsigned long long>(stats.plan_cache_hits),
            static_cast<unsigned long long>(stats.plan_cache_lookups));
        return 1;
      }
      continue;
    }
    const double plan_hit_rate =
        stats.plan_cache_lookups == 0
            ? 0.0
            : static_cast<double>(stats.plan_cache_hits) /
                  static_cast<double>(stats.plan_cache_lookups);
    std::printf(
        "%2d threads   %12.0f q/s   %5.2fx   p50 %6.1f us  p95 %6.1f us  "
        "plan cache %5.1f%% of %llu   %s\n",
        threads, best, best / seq_best, stats.p50_latency_us,
        stats.p95_latency_us, plan_hit_rate * 100.0,
        static_cast<unsigned long long>(stats.plan_cache_lookups),
        mismatches == 0 ? "bit-identical" : "MISMATCH");
    if (mismatches != 0) return 1;
  }

  // Tracing-enabled row: the batch under a forced trace root, so every
  // query is span-recorded, and the flight recorder on — the worst-case
  // observability configuration. Estimates must stay bit-identical; the
  // q/s delta against the 4-thread row above is the visible cost of full
  // tracing.
  {
    service::ServiceOptions opts;
    opts.num_threads = 4;
    double best = 0.0;
    size_t mismatches = 0;
    for (int r = 0; r < repeats; ++r) {
      auto svc = service::EstimationService::Create(
          std::make_shared<const core::FrozenSynopsis>(sketch), opts);
      if (!svc.ok()) {
        std::fprintf(stderr, "%s\n", svc.status().ToString().c_str());
        return 1;
      }
      const Clock::time_point start = Clock::now();
      auto results = [&] {
        obs::SpanScope root(obs::Tracer::Default().ForceTrace(),
                            obs::Stage::kQuery);
        return svc.value()->EstimateBatch(queries);
      }();
      best = std::max(best,
                      static_cast<double>(queries.size()) /
                          SecondsSince(start));
      for (size_t i = 0; i < results.size(); ++i) {
        if (!results[i].ok() ||
            std::memcmp(&results[i].value().estimate, &expected[i].estimate,
                        sizeof(double)) != 0) {
          ++mismatches;
        }
      }
      // Bounded rings still hold the last batch; drain between reps so
      // the drop counter reflects one run, not the whole bench.
      (void)obs::Tracer::Default().Drain();
    }
    if (smoke) {
      if (mismatches != 0) {
        std::fprintf(stderr,
                     "perf_batch --smoke FAILED: %zu mismatches with "
                     "tracing on\n",
                     mismatches);
        return 1;
      }
    } else {
      std::printf("%-12s %12.0f q/s   %5.2fx   forced root, 4 threads   %s\n",
                  "traced", best, best / seq_best,
                  mismatches == 0 ? "bit-identical" : "MISMATCH");
      if (mismatches != 0) return 1;
    }
  }
  if (smoke) std::printf("perf_batch --smoke OK\n");
  return 0;
}
