// Tests for the compiled query path: FrozenSynopsis snapshot invariants,
// TwigCompiler lowering (including the max_path_length resolution the
// compiler performs once per sketch), bit-identity of CompiledTwig
// execution against the reference estimator, the service's byte-bounded
// plan cache, and concurrent Prepare/Execute (a ThreadSanitizer target
// driven by tests/run_sanitizers.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string_view>
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

// Counts the calling thread's operator new calls, so a test can show a
// code path allocates nothing. Deallocation is replaced alongside so the
// sanitizers see one allocator for both; it is kept out of line, or GCC
// inlines free() against a `new` call and warns of a mismatch.
namespace {
thread_local uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

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

// Prepares distinct shapes (//paper[year>i], i = 0, 1, ...) until the
// cache has evicted, checking the byte budget after every insert.
// Returns the number of shapes prepared.
size_t OverflowPlanCache(const service::EstimationService& svc,
                         const xml::Document& doc) {
  constexpr size_t kBudget = service::EstimationService::kPlanCacheBytes;
  size_t i = 0;
  while (svc.plan_cache_counters().evictions == 0) {
    auto q = query::ParsePath("//paper[year>" + std::to_string(i) + "]",
                              doc.tags());
    EXPECT_TRUE(q.ok()) << i;
    EXPECT_TRUE(svc.Prepare(q.value()).ok()) << i;
    EXPECT_LE(svc.plan_cache_counters().bytes, kBudget) << i;
    if (++i > 100 * kBudget / 1024) {
      ADD_FAILURE() << "no eviction after " << i << " shapes";
      break;
    }
  }
  return i;
}

TEST(PlanCacheTest, ResidentBytesStayWithinBudget) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());
  constexpr size_t kBudget = service::EstimationService::kPlanCacheBytes;

  // Every program is charged its exact size plus bookkeeping.
  auto one = svc.value()->Prepare(std::string_view("//paper[year>0]"));
  ASSERT_TRUE(one.ok());
  auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.size, 1u);
  EXPECT_GT(c.bytes, one.value()->SizeBytes());

  const size_t shapes = OverflowPlanCache(*svc.value(), doc);
  c = svc.value()->plan_cache_counters();
  EXPECT_GT(c.evictions, 0u);
  EXPECT_LT(c.size, shapes);
  EXPECT_LE(c.bytes, kBudget);
  // The budget is used, not just respected: each shard fills to within
  // one entry of its share before it evicts.
  EXPECT_GT(c.bytes, kBudget / 2);

  // Twice as many shapes again: the bound holds through steady eviction.
  for (size_t i = shapes; i < 3 * shapes; ++i) {
    ASSERT_TRUE(svc.value()
                    ->Prepare("//paper[year>" + std::to_string(i) + "]")
                    .ok());
    ASSERT_LE(svc.value()->plan_cache_counters().bytes, kBudget) << i;
  }
  EXPECT_GT(svc.value()->plan_cache_counters().evictions, shapes);
}

TEST(PlanCacheTest, ReferencedHotShapeSurvivesOneOffScan) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());

  auto hot = query::ParsePath("//author[book]/paper/keyword", doc.tags());
  ASSERT_TRUE(hot.ok());
  auto first = svc.value()->Prepare(hot.value());
  ASSERT_TRUE(first.ok());
  // A scan of one-off shapes three times larger than the budget, the hot
  // shape hit every 16 of them: it is never evicted (a recompile would
  // return a different program, since `first` keeps the old one alive).
  const size_t scan = 3 * OverflowPlanCache(*svc.value(), doc);
  size_t hot_hits = 0;
  for (size_t i = 0; i < scan; ++i) {
    ASSERT_TRUE(svc.value()
                    ->Prepare("//book[year>" + std::to_string(i) + "]")
                    .ok());
    if (i % 16 == 0) {
      auto again = svc.value()->Prepare(hot.value());
      ASSERT_TRUE(again.ok());
      ASSERT_EQ(again.value().get(), first.value().get()) << i;
      ++hot_hits;
    }
  }
  const auto c = svc.value()->plan_cache_counters();
  EXPECT_GT(c.evictions, scan);
  EXPECT_GE(c.hits, hot_hits);
}

TEST(PlanCacheTest, TextAndTwigKeysShareOneProgram) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());
  const service::EstimationService& s = *svc.value();

  auto by_text = s.Prepare(std::string_view("//author[book]/paper"));
  ASSERT_TRUE(by_text.ok());
  auto twig = query::ParsePath("//author[book]/paper", doc.tags());
  ASSERT_TRUE(twig.ok());
  auto by_twig = s.Prepare(twig.value());
  ASSERT_TRUE(by_twig.ok());
  // Whitespace variants parse to the same twig: the first is found by its
  // twig key (and becomes a text key itself), the repeat by its text.
  constexpr std::string_view kSpaced = " // author [ book ] / paper ";
  auto spaced = s.Prepare(kSpaced);
  ASSERT_TRUE(spaced.ok());
  auto spaced_again = s.Prepare(kSpaced);
  ASSERT_TRUE(spaced_again.ok());
  auto text_again = s.Prepare(std::string_view("//author[book]/paper"));
  ASSERT_TRUE(text_again.ok());

  for (const auto* p : {&by_twig, &spaced, &spaced_again, &text_again}) {
    EXPECT_EQ(p->value().get(), by_text.value().get());
  }
  const auto c = s.plan_cache_counters();
  EXPECT_EQ(c.lookups, 5u);
  EXPECT_EQ(c.hits, 4u);
  EXPECT_EQ(c.size, 1u);  // one program, charged once
  EXPECT_EQ(c.evictions, 0u);

  // A text key never aliases a twig of different bytes.
  auto other = s.Prepare(std::string_view("//author[book]/paper[year>1]"));
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other.value().get(), by_text.value().get());
  EXPECT_EQ(s.plan_cache_counters().size, 2u);
}

TEST(PlanCacheTest, ParseErrorsAreNeverCached) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());

  auto first = svc.value()->Prepare(std::string_view("//[broken"));
  ASSERT_FALSE(first.ok());
  auto second = svc.value()->Prepare(std::string_view("//[broken"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().ToString(), first.status().ToString());
  const auto c = svc.value()->plan_cache_counters();
  EXPECT_EQ(c.lookups, 0u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.size, 0u);
  EXPECT_EQ(c.bytes, 0u);
}

TEST(PlanCacheTest, OversizedTextIsServedUncached) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());
  const service::EstimationService& s = *svc.value();
  constexpr size_t kBudget = service::EstimationService::kPlanCacheBytes;

  // A path text larger than a shard's share of the budget (trailing
  // blanks parse): its program is cached under the twig key only, and the
  // text is not kept.
  const std::string padded = "//author/paper" + std::string(200 << 10, ' ');
  ASSERT_GT(padded.size(), service::PlanCache::kShardBytes);
  auto first = s.Prepare(std::string_view(padded));
  ASSERT_TRUE(first.ok());
  auto second = s.Prepare(std::string_view(padded));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().get(), first.value().get());
  EXPECT_TRUE(BitEqual(second.value()->Execute(), first.value()->Execute()));
  const auto c = s.plan_cache_counters();
  EXPECT_EQ(c.size, 1u);
  EXPECT_EQ(c.hits, 1u);  // the repeat found the twig key
  EXPECT_LE(c.bytes, kBudget);
  EXPECT_LT(c.bytes, padded.size());
}

TEST(PlanCacheTest, HitsAllocateNothing) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());
  const std::string_view text = "//author[book]/paper/keyword";
  auto twig = query::ParsePath(text, doc.tags());
  ASSERT_TRUE(twig.ok());
  // The misses allocate (program, keys, this thread's key buffer).
  ASSERT_TRUE(svc.value()->Prepare(text).ok());
  ASSERT_TRUE(svc.value()->Prepare(twig.value()).ok());

  const uint64_t before = t_allocations;
  for (int i = 0; i < 100; ++i) {
    auto a = svc.value()->Prepare(text);
    auto b = svc.value()->Prepare(twig.value());
    if (!a.ok() || !b.ok() || a.value().get() != b.value().get()) {
      ADD_FAILURE() << "hit " << i;
    }
  }
  EXPECT_EQ(t_allocations, before);
  EXPECT_EQ(svc.value()->plan_cache_counters().hits, 201u);
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

  // One-off shapes whose programs together outweigh the cache twice.
  constexpr size_t kBudget = service::EstimationService::kPlanCacheBytes;
  auto queries = XMarkWorkload(doc, 48);
  const TwigCompiler compiler(Freeze(sketch));
  size_t shape_bytes = 0;
  for (size_t i = 0; shape_bytes <= 2 * kBudget; ++i) {
    auto q = query::ParsePath(
        "//open_auction[initial>" + std::to_string(i) + "]//bidder",
        doc.tags());
    ASSERT_TRUE(q.ok());
    shape_bytes += compiler.Compile(q.value()).value()->SizeBytes();
    queries.push_back(std::move(q).value());
  }
  std::vector<double> expected;
  for (const auto& q : queries) expected.push_back(reference.Estimate(q));

  auto svc = service::EstimationService::Create(Freeze(sketch));
  ASSERT_TRUE(svc.ok());

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
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
  EXPECT_LE(c.bytes, kBudget);
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
