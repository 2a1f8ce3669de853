// Tests for the compiled query path: FrozenSynopsis snapshot invariants,
// TwigCompiler lowering (including the max_path_length resolution the
// compiler performs once per sketch), bit-identity of CompiledTwig
// execution against the reference estimator, the service's LRU plan
// cache, and concurrent Prepare/Execute (a ThreadSanitizer target driven
// by tests/run_sanitizers.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/compile.h"
#include "core/estimator.h"
#include "core/frozen.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "data/xmark.h"
#include "obs/explain.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"
#include "xsketch_api.h"
#include "test_env.h"

namespace xsketch::core {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<query::TwigQuery> XMarkWorkload(const xml::Document& doc,
                                            int num_queries) {
  query::WorkloadOptions wopts;
  wopts.seed = 11;
  wopts.num_queries = num_queries;
  wopts.value_pred_fraction = 0.3;
  const query::Workload wl = query::GeneratePositiveWorkload(doc, wopts);
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : wl.queries) queries.push_back(wq.twig);
  return queries;
}

// --- FrozenSynopsis ------------------------------------------------------

TEST(FrozenSynopsisTest, MirrorsSketchStructure) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Synopsis& syn = sketch.synopsis();
  FrozenSynopsis frozen(sketch);

  ASSERT_EQ(frozen.node_count(), syn.node_count());
  EXPECT_EQ(frozen.doc_max_depth(), doc.max_depth());
  EXPECT_EQ(frozen.root_node(), syn.RootNode());

  for (SynNodeId n = 0; n < frozen.node_count(); ++n) {
    const SynNode& node = syn.node(n);
    EXPECT_EQ(frozen.tag(n), node.tag);
    EXPECT_EQ(frozen.count(n), static_cast<double>(node.count));
    // CSR adjacency preserves the synopsis's edge order.
    ASSERT_EQ(frozen.edges_end(n) - frozen.edges_begin(n),
              static_cast<ptrdiff_t>(node.children.size()));
    const FrozenSynopsis::Edge* e = frozen.edges_begin(n);
    for (const SynEdge& se : node.children) {
      EXPECT_EQ(e->child, se.child);
      EXPECT_EQ(e->child_tag, syn.node(se.child).tag);
      // Pre-divided Forward Uniformity: the same division the estimator
      // performs per query.
      EXPECT_TRUE(BitEqual(
          e->avg, static_cast<double>(se.child_count) / node.count));
      ++e;
    }
    EXPECT_EQ(frozen.FindEdge(n, kInvalidSynNode), nullptr);
  }

  // Tag index preserves NodesWithTag order.
  for (xml::TagId t = 0; t < doc.tag_count(); ++t) {
    const std::span<const core::SynNodeId> got = frozen.NodesWithTag(t);
    const std::vector<core::SynNodeId>& want = syn.NodesWithTag(t);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
  }
  EXPECT_GT(frozen.SizeBytes(), 0u);
}

TEST(FrozenSynopsisTest, StaticProbsMatchUnconditionedHistogram) {
  // On a refined sketch the frozen Condition({}) slice must be bitwise
  // what the live histogram produces for an empty context.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  core::BuildOptions bopts;
  bopts.budget_bytes = 16 * 1024;
  TwigXSketch sketch = core::XBuild(doc, bopts).Build();
  FrozenSynopsis frozen(sketch);

  size_t checked = 0;
  for (SynNodeId n = 0; n < frozen.node_count(); ++n) {
    if (frozen.hist_empty(n)) continue;
    const auto pts = sketch.summary(n).hist.Condition({});
    ASSERT_EQ(pts.size(), frozen.bucket_count(n));
    for (size_t b = 0; b < pts.size(); ++b) {
      EXPECT_TRUE(BitEqual(pts[b].prob, frozen.static_probs(n)[b]));
    }
    checked += pts.size();
  }
  EXPECT_GT(checked, 0u);
}

// --- CompiledTwig bit-identity -------------------------------------------

TEST(CompiledTwigTest, BitIdenticalToEstimator) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Estimator estimator(sketch);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);
  const TwigCompiler compiler(frozen);

  const auto queries = XMarkWorkload(doc, 60);
  ASSERT_FALSE(queries.empty());
  for (const auto& q : queries) {
    auto plan = compiler.Compile(q);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const double expected = estimator.Estimate(q);
    EXPECT_TRUE(BitEqual(plan.value()->Execute(), expected));

    const EstimateStats want = estimator.EstimateWithStats(q);
    const EstimateStats got = plan.value()->ExecuteWithStats();
    EXPECT_TRUE(BitEqual(got.estimate, want.estimate));
    EXPECT_EQ(got.covered_terms, want.covered_terms);
    EXPECT_EQ(got.uniformity_terms, want.uniformity_terms);
    EXPECT_EQ(got.conditioned_nodes, want.conditioned_nodes);
    EXPECT_EQ(got.value_fractions, want.value_fractions);
    EXPECT_EQ(got.existential_terms, want.existential_terms);
    EXPECT_EQ(got.descendant_chains, want.descendant_chains);
  }
}

TEST(CompiledTwigTest, UnknownTagCompilesToZero) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);
  const TwigCompiler compiler(frozen);

  query::TwigQuery twig;
  twig.AddNode(-1, query::Axis::kDescendant, query::kUnknownTag);
  auto plan = compiler.Compile(twig);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value()->root_count(), 0u);
  EXPECT_TRUE(BitEqual(plan.value()->Execute(), 0.0));
}

TEST(CompiledTwigTest, RejectsMalformedTwig) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);
  const TwigCompiler compiler(frozen);

  query::TwigQuery twig;  // empty: Validate() fails
  auto plan = compiler.Compile(twig);
  EXPECT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), util::StatusCode::kInvalidArgument);
}

// --- max_path_length resolution (compile-time, once) ---------------------

TEST(CompiledTwigTest, DefaultPathLengthCapResolvesToDocDepth) {
  // max_path_length = 0 means "document max depth + 1". The compiler
  // resolves that once at construction; an explicit cap of the same value
  // must produce bitwise-identical programs and estimates.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);

  EstimatorOptions defaulted;  // max_path_length = 0
  EstimatorOptions explicit_cap;
  explicit_cap.max_path_length = static_cast<int>(doc.max_depth()) + 1;

  const TwigCompiler c_default(frozen, defaulted);
  const TwigCompiler c_explicit(frozen, explicit_cap);
  EXPECT_EQ(c_default.path_length_cap(), explicit_cap.max_path_length);
  EXPECT_EQ(c_explicit.path_length_cap(), explicit_cap.max_path_length);

  for (const char* p : {"//item//keyword", "//person//name", "//bidder"}) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    auto pd = c_default.Compile(q.value());
    auto pe = c_explicit.Compile(q.value());
    ASSERT_TRUE(pd.ok() && pe.ok());
    EXPECT_EQ(pd.value()->path_length_cap(), pe.value()->path_length_cap());
    EXPECT_EQ(pd.value()->step_count(), pe.value()->step_count());
    EXPECT_TRUE(BitEqual(pd.value()->Execute(), pe.value()->Execute()));
  }
}

TEST(CompiledTwigTest, TruncatedPathLengthCapMatchesEstimator) {
  // A non-default cap prunes '//' expansions identically in both
  // implementations — bit-identity must hold under every option value,
  // not just the default.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const FrozenSynopsis>(sketch);

  EstimatorOptions opts;
  opts.max_path_length = 3;
  const Estimator estimator(sketch, opts);
  const TwigCompiler compiler(frozen, opts);
  EXPECT_EQ(compiler.path_length_cap(), 3);

  for (const char* p : {"//item//keyword", "//person//name",
                        "//open_auction//increase"}) {
    auto q = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(q.ok());
    auto plan = compiler.Compile(q.value());
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(BitEqual(plan.value()->Execute(), estimator.Estimate(q.value())));
  }
}

// --- Plan cache ----------------------------------------------------------

// `count` distinct plan-cache shapes over the bibliography: //paper[year>i].
std::vector<query::TwigQuery> PredicateShapes(const xml::Document& doc,
                                              size_t count) {
  std::vector<query::TwigQuery> queries;
  for (size_t i = 0; i < count; ++i) {
    auto q = query::ParsePath("//paper[year>" + std::to_string(i) + "]",
                              doc.tags());
    EXPECT_TRUE(q.ok()) << i;
    queries.push_back(std::move(q).value());
  }
  return queries;
}

TEST(PlanCacheTest, RepeatedPrepareHitsAndReturnsSharedProgram) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch), {});
  ASSERT_TRUE(svc.ok());

  auto q = query::ParsePath("//author/paper", doc.tags());
  ASSERT_TRUE(q.ok());
  auto p1 = svc.value()->Prepare(q.value());
  auto p2 = svc.value()->Prepare(q.value());
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get());  // cached, not recompiled

  const auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, 2u);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.size, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());

  // kPlanCacheCapacity + 1 distinct shapes: the predicate bound is part
  // of the canonical key.
  constexpr size_t kCapacity = service::EstimationService::kPlanCacheCapacity;
  const std::vector<query::TwigQuery> queries =
      PredicateShapes(doc, kCapacity + 1);

  // Fill to capacity, then overflow: the least recently used entry
  // (queries[0]) is evicted.
  for (const auto& q : queries) ASSERT_TRUE(svc.value()->Prepare(q).ok());
  auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, kCapacity + 1);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.size, kCapacity);

  // The newest shape is resident (hit); queries[0] was evicted (miss,
  // which in turn evicts queries[1], now the least recently used).
  ASSERT_TRUE(svc.value()->Prepare(queries.back()).ok());
  EXPECT_EQ(svc.value()->plan_cache_counters().hits, 1u);
  ASSERT_TRUE(svc.value()->Prepare(queries[0]).ok());
  c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, kCapacity + 3);
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(c.size, kCapacity);
  ASSERT_TRUE(svc.value()->Prepare(queries[1]).ok());
  EXPECT_EQ(svc.value()->plan_cache_counters().hits, 1u);
}

// --- Concurrency (ThreadSanitizer target) --------------------------------

TEST(CompileConcurrencyTest, ConcurrentPrepareExecuteBitIdentical) {
  // 8 threads hammer Prepare + Execute on a shared service with more
  // distinct shapes than plan-cache slots, forcing concurrent
  // compile/evict/hit traffic. Every result must be bitwise what the
  // sequential reference computes.
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Estimator reference(sketch);

  constexpr size_t kCapacity = service::EstimationService::kPlanCacheCapacity;
  auto queries = XMarkWorkload(doc, 48);
  for (size_t i = 0; i <= kCapacity; ++i) {
    auto q = query::ParsePath("//item[location>" + std::to_string(i) + "]",
                              doc.tags());
    ASSERT_TRUE(q.ok());
    queries.push_back(std::move(q).value());
  }
  std::vector<double> expected;
  for (const auto& q : queries) expected.push_back(reference.Estimate(q));

  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ExecScratch scratch;
      for (int r = 0; r < kRounds; ++r) {
        for (size_t i = t % 3; i < queries.size(); i += 1 + t % 3) {
          auto plan = svc.value()->Prepare(queries[i]);
          if (!plan.ok() ||
              !BitEqual(plan.value()->Execute(scratch), expected[i])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);

  const auto c = svc.value()->plan_cache_counters();
  EXPECT_LE(c.hits, c.lookups);
  EXPECT_LE(c.size, kCapacity);
  EXPECT_GT(c.evictions, 0u);
}

// --- Tier-1 facade -------------------------------------------------------

TEST(ApiSessionTest, PrepareExecuteExplainAgree) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  const Estimator reference(sketch);

  auto session = api::Session::Open(TwigXSketch::Coarsest(doc));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  for (const char* p :
       {"//author/paper", "//author[book]/paper/keyword", "//paper"}) {
    auto prepared = session.value().Prepare(p);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto twig = query::ParsePath(p, doc.tags());
    ASSERT_TRUE(twig.ok());
    const double expected = reference.Estimate(twig.value());
    EXPECT_TRUE(BitEqual(prepared.value().Execute(), expected));
    EXPECT_TRUE(
        BitEqual(prepared.value().ExecuteWithStats().estimate, expected));

    // Explain runs the compiled program with its explain sink: the
    // estimate is bitwise the untraced output, and the tree is the one
    // the reference interpreter records.
    obs::ExplainTrace trace, reference_trace;
    auto explained = session.value().Explain(twig.value(), &trace);
    ASSERT_TRUE(explained.ok());
    EXPECT_TRUE(BitEqual(explained.value().estimate, expected));
    EXPECT_TRUE(BitEqual(trace.estimate(), expected));
    reference.EstimateWithTrace(twig.value(), &reference_trace);
    EXPECT_EQ(trace.ToJson(), reference_trace.ToJson()) << p;
    EXPECT_EQ(trace.ToText(), reference_trace.ToText()) << p;
  }

  // Parse errors surface through Prepare(string_view).
  EXPECT_FALSE(session.value().Prepare("//[broken").ok());
}

TEST(ApiSessionTest, ExecuteBatchMatchesPrepared) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  auto session = api::Session::Open(TwigXSketch::Coarsest(doc));
  ASSERT_TRUE(session.ok());

  const auto queries = XMarkWorkload(doc, 24);
  service::BatchStats stats;
  auto results = session.value().ExecuteBatch(queries, &stats);
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_EQ(stats.queries, queries.size());
  EXPECT_EQ(stats.plan_cache_lookups, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    auto prepared = session.value().Prepare(queries[i]);
    ASSERT_TRUE(prepared.ok());
    EXPECT_TRUE(
        BitEqual(results[i].value().estimate, prepared.value().Execute()));
  }
}

}  // namespace
}  // namespace xsketch::core
