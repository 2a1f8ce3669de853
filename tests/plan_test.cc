// Golden plan-choice regressions for the cost-based twig join planner
// (src/plan): pinned join orders and cost terms over a fixed document and
// sketch, sub-twig extraction semantics, the estimate-vs-naive work
// guarantee on pinned cases, and Prepare/Plan thread-safety (the TSan
// target in tests/run_sanitizers.sh runs this binary).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/twig_xsketch.h"
#include "exec/streams.h"
#include "exec/structural_join.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "query/evaluator.h"
#include "query/xpath_parser.h"
#include "xml/document.h"
#include "xsketch_api.h"

namespace xsketch::plan {
namespace {

using exec::JoinEdge;
using query::Axis;
using query::TwigQuery;

// The golden document: a site with 42 categories (each named), of which
// only 2 carry items (5 each, with priced children). Tag extents differ
// by 4x+, so join order matters: seeding //site/category/item at the
// (category, item) edge costs 10 intermediate rows, the syntactic
// (site, category) seed costs 42.
xml::Document GoldenDoc() {
  xml::Document doc;
  const xml::NodeId site = doc.AddNode(xml::kInvalidNode, "site");
  for (int i = 0; i < 40; ++i) {
    const xml::NodeId cat = doc.AddNode(site, "category");
    doc.AddNode(cat, "name");
  }
  for (int i = 0; i < 2; ++i) {
    const xml::NodeId cat = doc.AddNode(site, "category");
    doc.AddNode(cat, "name");
    for (int j = 0; j < 5; ++j) {
      const xml::NodeId item = doc.AddNode(cat, "item");
      doc.SetValue(doc.AddNode(item, "price"), std::to_string(10 * (j + 1)));
    }
  }
  doc.Seal();
  return doc;
}

TwigQuery Parse(const xml::Document& doc, const std::string& path) {
  auto q = query::ParsePath(path, doc.tags());
  EXPECT_TRUE(q.ok()) << path << ": " << q.status().ToString();
  return q.value();
}

// --- ExtractSubTwig ------------------------------------------------------------------

TEST(ExtractSubTwigTest, SubsetKeepsAxesPredsAndExistentialFilters) {
  // //t0/t1[t2]//t3 with a predicate on t3 (raw tag ids; no document
  // needed to exercise extraction).
  TwigQuery q;
  const int t0 = q.AddNode(TwigQuery::kNoParent, Axis::kDescendant, 0);
  const int t1 = q.AddNode(t0, Axis::kChild, 1);
  q.AddNode(t1, Axis::kChild, 2, /*existential=*/true);
  const int t3 = q.AddNode(t1, Axis::kDescendant, 3, false,
                           query::ValuePredicate{1, 7});

  // Subset {t1, t3}: t1 becomes the (unanchored) root, the existential
  // t2 subtree rides along, t0 is gone.
  const TwigQuery sub = ExtractSubTwig(q, {t1, t3});
  ASSERT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.node(0).tag, 1u);
  EXPECT_EQ(sub.node(0).axis, Axis::kDescendant);  // no longer anchored
  EXPECT_FALSE(sub.node(0).existential);
  // Children of the new root: binding t3 (pred kept) + existential t2.
  ASSERT_EQ(sub.node(0).children.size(), 2u);
  const auto& n1 = sub.node(sub.node(0).children[0]);
  const auto& n2 = sub.node(sub.node(0).children[1]);
  const auto& binding = n1.existential ? n2 : n1;
  const auto& exist = n1.existential ? n1 : n2;
  EXPECT_EQ(binding.tag, 3u);
  EXPECT_EQ(binding.axis, Axis::kDescendant);
  ASSERT_TRUE(binding.pred.has_value());
  EXPECT_EQ(binding.pred->lo, 1);
  EXPECT_EQ(binding.pred->hi, 7);
  EXPECT_EQ(exist.tag, 2u);
  EXPECT_TRUE(exist.existential);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(ExtractSubTwigTest, OriginalRootKeepsItsAxis) {
  TwigQuery q;
  const int r = q.AddNode(TwigQuery::kNoParent, Axis::kChild, 0);
  const int c = q.AddNode(r, Axis::kChild, 1);
  const TwigQuery sub = ExtractSubTwig(q, {r, c});
  EXPECT_EQ(sub.node(0).axis, Axis::kChild);  // still anchored
}

// Extraction is the planner's cost model *and* the executor's logical
// accounting: card(ExtractSubTwig(S)) under the exact evaluator equals
// the executor's logical_rows for the join prefix covering S.
TEST(ExtractSubTwigTest, ExtractionMatchesExecutorLogicalRows) {
  const xml::Document doc = GoldenDoc();
  const query::ExactEvaluator exact(doc);
  const exec::StreamIndex index(doc);
  const exec::StructuralJoinExecutor executor(index);

  const TwigQuery q = Parse(doc, "//site/category//item");
  const auto sk = exec::MakeBindingSkeleton(q);
  ASSERT_EQ(sk.edges.size(), 2u);
  const auto r = executor.ExecuteBinary(q, sk.edges);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The prefix after the first (syntactic) join covers {site, category}.
  const uint64_t prefix_card = exact.Selectivity(ExtractSubTwig(q, {0, 1}));
  EXPECT_EQ(r.value().logical_rows, prefix_card);
  EXPECT_EQ(prefix_card, 42u);
}

// --- Golden plans over a fixed sketch ------------------------------------------------

// A one-thread service over `sketch`: the planner's estimate source.
std::unique_ptr<service::EstimationService> OneThreadService(
    const core::TwigXSketch& sketch) {
  service::ServiceOptions opts;
  opts.num_threads = 1;
  auto svc = service::EstimationService::Create(
      std::make_shared<const core::FrozenSynopsis>(sketch), opts);
  EXPECT_TRUE(svc.ok()) << svc.status().ToString();
  return std::move(svc).value();
}

class PlannerGoldenTest : public ::testing::Test {
 protected:
  PlannerGoldenTest()
      : doc_(GoldenDoc()),
        sketch_(core::TwigXSketch::Coarsest(doc_)),
        estimator_(sketch_),
        service_(OneThreadService(sketch_)),
        cards_(*service_),
        exact_(doc_),
        exact_cards_(exact_) {}

  xml::Document doc_;
  core::TwigXSketch sketch_;
  core::Estimator estimator_;  // reference estimates for the assertions
  std::unique_ptr<service::EstimationService> service_;
  ServiceCardinalities cards_;
  query::ExactEvaluator exact_;
  ExactCardinalities exact_cards_;
};

TEST_F(PlannerGoldenTest, SingleBindingNodeHasEmptyOrder) {
  const TwigQuery q = Parse(doc_, "//site");
  const auto plan = PlanTwig(q, cards_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().order.empty());
  EXPECT_TRUE(plan.value().optimized);
  EXPECT_EQ(plan.value().binary_cost, 0.0);
}

TEST_F(PlannerGoldenTest, ChainJoinOrderIsPinned) {
  // //site/category/item/price (nodes 0..3): the cheap seed is the
  // (category, item) edge — 10 true intermediate rows vs 42 for the
  // syntactic (site, category) seed — and the coarsest sketch estimates
  // this document exactly (uniform fanouts), so the estimate-driven and
  // exact-driven DPs pin the same chain:
  //   (1<-2) seed, then site joins in, then price.
  const TwigQuery q = Parse(doc_, "//site/category/item/price");
  const std::vector<JoinEdge> want = {{1, 2}, {0, 1}, {2, 3}};
  for (const CardinalityProvider* cards :
       {static_cast<const CardinalityProvider*>(&cards_),
        static_cast<const CardinalityProvider*>(&exact_cards_)}) {
    const auto plan = PlanTwig(q, *cards);
    ASSERT_TRUE(plan.ok()) << cards->name();
    EXPECT_EQ(plan.value().order, want) << cards->name();
    EXPECT_TRUE(plan.value().optimized);
    // Chain costs: intermediates {cat,item} = 10 and {site,cat,item} =
    // 10; result 10.
    EXPECT_NEAR(plan.value().binary_cost, 20.0, 1e-9) << cards->name();
    EXPECT_NEAR(plan.value().result_estimate, 10.0, 1e-9) << cards->name();
  }

  // The plan executes to the exact count, with less work than naive.
  const exec::StreamIndex index(doc_);
  const exec::StructuralJoinExecutor executor(index);
  const auto plan = PlanTwig(q, cards_);
  ASSERT_TRUE(plan.ok());
  const auto chosen = executor.ExecuteBinary(q, plan.value().order);
  const auto naive = executor.ExecuteNaive(q);
  ASSERT_TRUE(chosen.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(chosen.value().matches, exact_.Selectivity(q));
  EXPECT_EQ(chosen.value().matches, naive.value().matches);
  EXPECT_EQ(chosen.value().logical_rows, 20u);
  EXPECT_EQ(naive.value().logical_rows, 52u);  // 42 + 10
}

TEST_F(PlannerGoldenTest, EstimatePlanNeverWorseThanNaiveOnPinnedCases) {
  // Pinned workload sample: estimate-driven join orders must not exceed
  // the naive order's true intermediate work on any of these.
  const exec::StreamIndex index(doc_);
  const exec::StructuralJoinExecutor executor(index);
  PlannerOptions popts;
  popts.consider_holistic = false;
  for (const char* path :
       {"//site/category/item", "//site/category/item/price",
        "//category[name]/item", "//site//item", "//site/category[item]",
        "//category/item[price>20]"}) {
    const TwigQuery q = Parse(doc_, path);
    const auto plan = PlanTwig(q, cards_, popts);
    ASSERT_TRUE(plan.ok()) << path;
    const auto est = executor.ExecuteBinary(q, plan.value().order);
    const auto naive = executor.ExecuteNaive(q);
    ASSERT_TRUE(est.ok()) << path;
    ASSERT_TRUE(naive.ok()) << path;
    EXPECT_LE(est.value().logical_rows, naive.value().logical_rows) << path;
    EXPECT_EQ(est.value().matches, naive.value().matches) << path;
    EXPECT_EQ(est.value().matches, exact_.Selectivity(q)) << path;
  }
}

TEST_F(PlannerGoldenTest, CostTermsArePinnedToTheProvider) {
  // The DP's cost terms are provider cardinalities of extracted
  // sub-twigs — pin the arithmetic, not just the ordering.
  const TwigQuery q = Parse(doc_, "//site/category/item");
  const auto plan = PlanTwig(q, cards_);
  ASSERT_TRUE(plan.ok());
  const auto& p = plan.value();
  ASSERT_EQ(p.order.size(), 2u);
  ASSERT_EQ(p.step_cards.size(), 2u);

  const double full_est = estimator_.Estimate(q);
  EXPECT_DOUBLE_EQ(p.result_estimate, full_est);
  EXPECT_DOUBLE_EQ(p.step_cards.back(), full_est);
  // binary_cost = sum of the non-final step cards.
  EXPECT_DOUBLE_EQ(p.binary_cost, p.step_cards.front());
  // The pinned intermediate is itself an estimator call on the extracted
  // seed-pair sub-twig.
  const JoinEdge seed = p.order.front();
  const double seed_est =
      estimator_.Estimate(ExtractSubTwig(q, {seed.parent, seed.child}));
  EXPECT_DOUBLE_EQ(p.step_cards.front(), seed_est);
}

TEST_F(PlannerGoldenTest, DeterministicAcrossRepeatedRuns) {
  const TwigQuery q = Parse(doc_, "//category[name]/item");
  const auto a = PlanTwig(q, cards_);
  const auto b = PlanTwig(q, cards_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().order, b.value().order);
  EXPECT_EQ(a.value().binary_cost, b.value().binary_cost);
  EXPECT_EQ(a.value().use_holistic, b.value().use_holistic);
  EXPECT_EQ(a.value().ToString(), b.value().ToString());
}

// Cardinalities by twig size: `label` for single-node twigs (label
// streams and single binding nodes), `larger` for every other sub-twig.
class SizeCardinalities final : public CardinalityProvider {
 public:
  SizeCardinalities(double label, double larger)
      : label_(label), larger_(larger) {}

  util::Result<double> Cardinality(const TwigQuery& twig) const override {
    return twig.size() == 1 ? label_ : larger_;
  }
  std::string_view name() const override { return "size"; }

 private:
  double label_;
  double larger_;
};

TEST_F(PlannerGoldenTest, HolisticDecisionFollowsTheCostFactor) {
  // Three binding nodes and an existential name: the holistic scan costs
  // four label streams; the binary plan costs two single-node inputs,
  // the existential-filtered category input, one intermediate and the
  // result.
  const TwigQuery q = Parse(doc_, "//site/category[name]/item");
  const SizeCardinalities cheap_labels(1, 1000);  // 4 vs 3002 rows
  const auto cheap = PlanTwig(q, cheap_labels);
  ASSERT_TRUE(cheap.ok());
  EXPECT_EQ(cheap.value().holistic_cost, 4.0);
  EXPECT_TRUE(cheap.value().use_holistic);
  // The best binary order is still reported alongside the choice.
  EXPECT_EQ(cheap.value().order.size(), 2u);

  const SizeCardinalities costly_labels(1000, 1);  // 4000 vs 2003 rows
  const auto costly = PlanTwig(q, costly_labels);
  ASSERT_TRUE(costly.ok());
  EXPECT_EQ(costly.value().holistic_cost, 4000.0);
  EXPECT_FALSE(costly.value().use_holistic);

  PlannerOptions popts;
  popts.consider_holistic = false;
  const auto off = PlanTwig(q, cheap_labels, popts);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().use_holistic);
}

TEST_F(PlannerGoldenTest, WideTwigFallsBackToNaiveOrder) {
  // 21 binding nodes, one more than the subset DP takes.
  TwigQuery q;
  const int site = q.AddNode(TwigQuery::kNoParent, Axis::kDescendant,
                             doc_.LookupTag("site"));
  for (int i = 0; i < 20; ++i) {
    q.AddNode(site, Axis::kChild, doc_.LookupTag("category"));
  }
  const auto plan = PlanTwig(q, cards_);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan.value().optimized);
  EXPECT_EQ(plan.value().order, NaiveOrder(q));
}

TEST_F(PlannerGoldenTest, InvalidTwigIsRejected) {
  TwigQuery q;  // empty
  const auto plan = PlanTwig(q, cards_);
  EXPECT_EQ(plan.status().code(), util::StatusCode::kInvalidArgument);
}

// --- Session facade + concurrency (the TSan target) ----------------------------------

TEST(SessionPlanTest, ConcurrentPrepareAndPlanAreRaceFree) {
  const xml::Document doc = GoldenDoc();
  auto session = api::Session::Open(core::TwigXSketch::Coarsest(doc));
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  std::vector<TwigQuery> queries;
  for (const char* path : {"//site/category/item", "//site//item",
                           "//category[name]/item", "//site/category"}) {
    queries.push_back(Parse(doc, path));
  }

  // Hammer Plan (which runs Prepare per sub-twig through the shared LRU
  // plan cache) and Prepare from many threads at once; results must be
  // identical across threads and runs.
  const auto baseline = session.value().Plan(queries[0]);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::vector<std::thread> threads;
  std::vector<int> failures(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 16; ++i) {
        const auto& q = queries[(t + i) % queries.size()];
        const auto plan = session.value().Plan(q);
        if (!plan.ok()) ++failures[t];
        const auto prepared = session.value().Prepare(q);
        if (!prepared.ok()) ++failures[t];
        const auto again = session.value().Plan(queries[0]);
        if (!again.ok() || again.value().order != baseline.value().order ||
            again.value().binary_cost != baseline.value().binary_cost) {
          ++failures[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace xsketch::plan
