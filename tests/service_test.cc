// Tests for the concurrent batch estimation engine: the thread pool, the
// EstimationService facade, and the thread safety of the shared
// descendant-path cache. The cache-hammer tests are the ThreadSanitizer
// targets driven by tests/run_sanitizers.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/twig_xsketch.h"
#include "data/imdb.h"
#include "data/xmark.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"
#include "test_env.h"
#include "util/thread_pool.h"

namespace xsketch::service {
namespace {

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    pool.Submit([&sum, i] { sum.fetch_add(i); });
  }
  pool.Shutdown();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingWork) {
  // One worker, many queued tasks: Shutdown races with a mostly-full
  // queue and must still run everything exactly once.
  util::ThreadPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolTest, ShutdownIsIdempotentAndDtorSafe) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Shutdown();
  pool.Shutdown();  // no-op
  EXPECT_EQ(ran.load(), 1);
}  // pool dtor runs Shutdown a third time

// --- Fixtures ------------------------------------------------------------

const xml::Document& XMarkDoc() {
  static const xml::Document* doc =
      new xml::Document(data::GenerateXMark({.seed = 42, .scale = 0.1}));
  return *doc;
}

const query::Workload& XMarkWorkload() {
  static const query::Workload* w = [] {
    query::WorkloadOptions wopts;
    wopts.seed = 55;
    wopts.num_queries = 120;
    wopts.value_pred_fraction = 0.3;
    return new query::Workload(
        query::GeneratePositiveWorkload(XMarkDoc(), wopts));
  }();
  return *w;
}

std::vector<query::TwigQuery> WorkloadQueries() {
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : XMarkWorkload().queries) queries.push_back(wq.twig);
  return queries;
}

// --- EstimationService ---------------------------------------------------

TEST(EstimationServiceTest, CreateValidatesOptions) {
  ServiceOptions bad;
  bad.num_threads = -2;
  auto svc = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), bad);
  ASSERT_FALSE(svc.ok());
  EXPECT_EQ(svc.status().code(), util::StatusCode::kInvalidArgument);

  ServiceOptions bad_est;
  bad_est.estimator.max_descendant_paths = 0;
  auto svc2 = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), bad_est);
  ASSERT_FALSE(svc2.ok());
  EXPECT_EQ(svc2.status().code(), util::StatusCode::kInvalidArgument);
}

// Batch results must be bit-identical to running the one-at-a-time
// estimator sequentially in batch order, for any thread count.
TEST(EstimationServiceTest, BatchMatchesSequentialBitIdentical) {
  const std::vector<query::TwigQuery> queries = WorkloadQueries();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(XMarkDoc());
  core::Estimator sequential(sketch);

  for (int threads : {1, 4, 8}) {
    ServiceOptions opts;
    opts.num_threads = threads;
    auto svc = EstimationService::Create(Freeze(sketch), opts);
    ASSERT_TRUE(svc.ok()) << svc.status().ToString();

    BatchStats stats;
    auto results = svc.value()->EstimateBatch(queries, &stats);
    ASSERT_EQ(results.size(), queries.size());
    EXPECT_EQ(stats.queries, queries.size());
    EXPECT_EQ(stats.failed, 0u);

    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      const core::EstimateStats seq =
          sequential.EstimateWithStats(queries[i]);
      const core::EstimateStats& par = results[i].value();
      // Bit-identical doubles, not EXPECT_DOUBLE_EQ's 4-ulp tolerance.
      EXPECT_EQ(std::memcmp(&seq.estimate, &par.estimate, sizeof(double)),
                0)
          << "query " << i << " at " << threads << " threads: "
          << seq.estimate << " vs " << par.estimate;
      EXPECT_EQ(seq.covered_terms, par.covered_terms);
      EXPECT_EQ(seq.uniformity_terms, par.uniformity_terms);
      EXPECT_EQ(seq.descendant_chains, par.descendant_chains);
    }
  }
}

TEST(EstimationServiceTest, BatchStatsAggregates) {
  // The generated workload alone never expands a non-root '//' step, so
  // mix in explicit descendant queries.
  std::vector<query::TwigQuery> queries = WorkloadQueries();
  for (const char* p : {"//person//name", "//open_auction//increase",
                        "//text//keyword"}) {
    auto q = query::ParsePath(p, XMarkDoc().tags());
    ASSERT_TRUE(q.ok()) << p;
    queries.push_back(std::move(q).value());
  }
  ServiceOptions opts;
  opts.num_threads = 4;
  auto svc = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), opts);
  ASSERT_TRUE(svc.ok());

  BatchStats stats;
  auto results = svc.value()->EstimateBatch(queries, &stats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GE(stats.p95_latency_us, stats.p50_latency_us);
  EXPECT_GT(stats.uniformity_terms + stats.covered_terms, 0);
  // Every query is a plan-cache lookup, and a second identical batch
  // reuses every program.
  EXPECT_EQ(stats.plan_cache_lookups, queries.size());
  BatchStats again;
  svc.value()->EstimateBatch(queries, &again);
  EXPECT_EQ(again.plan_cache_lookups, queries.size());
  EXPECT_EQ(again.plan_cache_hits, queries.size());
}

// Per-batch plan-cache numbers come from the batch's own queries, so two
// batches overlapping on one service each report exactly their own
// lookups (lifetime-counter deltas would count the other batch's too).
TEST(EstimationServiceTest, OverlappingBatchesReportOwnPlanCacheStats) {
  const std::vector<query::TwigQuery> workload = WorkloadQueries();
  std::vector<query::TwigQuery> queries;
  while (queries.size() < 2000) {
    queries.push_back(workload[queries.size() % workload.size()]);
  }
  ServiceOptions opts;
  opts.num_threads = 2;
  auto svc = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), opts);
  ASSERT_TRUE(svc.ok());

  constexpr int kCallers = 2;
  BatchStats stats[kCallers];
  std::atomic<int> ready{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      // Start both batches together so they overlap.
      ready.fetch_add(1);
      while (ready.load() < kCallers) std::this_thread::yield();
      svc.value()->EstimateBatch(queries, &stats[c]);
    });
  }
  for (auto& t : callers) t.join();

  for (const BatchStats& s : stats) {
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.plan_cache_lookups, queries.size());
    EXPECT_LE(s.plan_cache_hits, s.plan_cache_lookups);
  }
  const auto lifetime = svc.value()->plan_cache_counters();
  EXPECT_EQ(lifetime.lookups, kCallers * queries.size());
  EXPECT_EQ(lifetime.hits, stats[0].plan_cache_hits + stats[1].plan_cache_hits);
}

TEST(EstimationServiceTest, MalformedQueriesFailPerQueryNotPerBatch) {
  std::vector<query::TwigQuery> queries = WorkloadQueries();
  queries.resize(4);
  queries.insert(queries.begin() + 2, query::TwigQuery());  // empty twig

  ServiceOptions opts;
  opts.num_threads = 2;
  auto svc = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), opts);
  ASSERT_TRUE(svc.ok());

  BatchStats stats;
  auto results = svc.value()->EstimateBatch(queries, &stats);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_FALSE(results[2].ok());
  EXPECT_EQ(results[2].status().code(), util::StatusCode::kInvalidArgument);
  for (size_t i : {0u, 1u, 3u, 4u}) {
    EXPECT_TRUE(results[i].ok()) << i;
  }
}

TEST(EstimationServiceTest, EmptyBatch) {
  auto svc =
      EstimationService::Create(
          Freeze(core::TwigXSketch::Coarsest(XMarkDoc())));
  ASSERT_TRUE(svc.ok());
  BatchStats stats;
  auto results = svc.value()->EstimateBatch({}, &stats);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(stats.queries, 0u);
}

// A one-thread service starts no worker and runs batches on the calling
// thread, with the same results as a pooled service.
TEST(EstimationServiceTest, OneThreadServiceRunsBatchesOnTheCaller) {
  const std::vector<query::TwigQuery> queries = WorkloadQueries();
  const size_t threads_before = ProcessThreadCount();
  ServiceOptions one;
  one.num_threads = 1;
  auto inline_svc = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), one);
  ASSERT_TRUE(inline_svc.ok());
  EXPECT_EQ(inline_svc.value()->num_threads(), 1);
  EXPECT_EQ(ProcessThreadCount(), threads_before);

  ServiceOptions four;
  four.num_threads = 4;
  auto pooled = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), four);
  ASSERT_TRUE(pooled.ok());
  const auto got = inline_svc.value()->EstimateBatch(queries);
  const auto want = pooled.value()->EstimateBatch(queries);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].ok() && want[i].ok()) << i;
    EXPECT_EQ(std::memcmp(&got[i].value().estimate,
                          &want[i].value().estimate, sizeof(double)),
              0)
        << i;
  }

  // The chunk-boundary deadline contract holds inline too.
  BatchStats stats;
  const auto expired = inline_svc.value()->EstimateBatch(
      queries, &stats, std::chrono::steady_clock::now());
  EXPECT_TRUE(stats.deadline_exceeded);
  EXPECT_EQ(stats.abandoned, queries.size());
  for (const auto& r : expired) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  }
}

// --- Shared path cache under contention (ThreadSanitizer target) --------

// 8 threads hammer one Estimator with descendant-heavy queries over a
// recursive-ish schema, all missing then hitting the same sharded cache
// entries. Under TSan this flags any unsynchronized access to the cache;
// under normal builds it checks cross-thread determinism.
TEST(SharedPathCacheTest, ConcurrentDescendantExpansion) {
  const xml::Document& doc = XMarkDoc();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  core::Estimator estimator(sketch);

  const char* paths[] = {
      "//item/name",        "//person//name",  "//open_auction//increase",
      "//closed_auction",   "//text//keyword", "//listitem//text",
      "//bidder/increase",  "//europe//item",
  };
  std::vector<query::TwigQuery> twigs;
  for (const char* p : paths) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok()) << p;
    twigs.push_back(std::move(q).value());
  }
  std::vector<double> expected;
  {
    core::Estimator reference(sketch);
    for (const auto& t : twigs) expected.push_back(reference.Estimate(t));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int r = 0; r < kRounds; ++r) {
        // Stagger start offsets so threads collide on different entries.
        const size_t at = (static_cast<size_t>(ti) + r) % twigs.size();
        const double got = estimator.Estimate(twigs[at]);
        if (std::memcmp(&got, &expected[at], sizeof(double)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  const auto counters = estimator.path_cache_counters();
  EXPECT_GT(counters.lookups, 0u);
  EXPECT_GT(counters.hits, 0u);
}

// Same hammer through the service's public batch API.
TEST(SharedPathCacheTest, ConcurrentBatchesShareOneCache) {
  const std::vector<query::TwigQuery> queries = WorkloadQueries();
  ServiceOptions opts;
  opts.num_threads = 8;
  auto svc = EstimationService::Create(
      Freeze(core::TwigXSketch::Coarsest(XMarkDoc())), opts);
  ASSERT_TRUE(svc.ok());

  auto first = svc.value()->EstimateBatch(queries);
  auto second = svc.value()->EstimateBatch(queries);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    ASSERT_TRUE(first[i].ok());
    ASSERT_TRUE(second[i].ok());
    EXPECT_EQ(first[i].value().estimate, second[i].value().estimate) << i;
  }
}

}  // namespace
}  // namespace xsketch::service
