#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "data/figures.h"
#include "data/imdb.h"
#include "query/workload.h"
#include "xml/parser.h"

namespace xsketch::core {
namespace {

xml::Document Parse(const char* text) {
  auto r = xml::ParseDocument(text);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

SynNodeId NodeByTag(const Synopsis& syn, const xml::Document& doc,
                    const char* tag) {
  const auto& nodes = syn.NodesWithTag(doc.LookupTag(tag));
  EXPECT_FALSE(nodes.empty()) << tag;
  return nodes[0];
}

// Bit-identity fingerprint of a built sketch: the synopsis node of every
// element, then the XSK3 image of the frozen synopsis.
std::string Fingerprint(const TwigXSketch& sketch) {
  std::string out;
  for (xml::NodeId e = 0; e < sketch.doc().size(); ++e) {
    const SynNodeId n = sketch.synopsis().NodeOf(e);
    out.append(reinterpret_cast<const char*>(&n), sizeof(n));
  }
  auto image = SaveFrozen(FrozenSynopsis(sketch));
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return out + image.value();
}

// --- Individual refinement operations ---------------------------------------------

class RefinementTest : public ::testing::Test {
 protected:
  RefinementTest()
      : doc_(Parse("<r><a><x/><k/></a><a><x/></a><b><x/><x/><x/></b></r>")),
        sketch_(TwigXSketch::Coarsest(doc_)) {}

  xml::Document doc_;
  TwigXSketch sketch_;
};

TEST_F(RefinementTest, BStabilizeSplitsTarget) {
  const Synopsis& syn = sketch_.synopsis();
  SynNodeId a = NodeByTag(syn, doc_, "a");
  SynNodeId x = NodeByTag(syn, doc_, "x");
  ASSERT_FALSE(syn.FindEdge(a, x)->backward_stable);
  const size_t nodes_before = syn.node_count();

  Refinement r{Refinement::Kind::kBStabilize, x, a, {}};
  ASSERT_TRUE(ApplyRefinement(&sketch_, r));
  EXPECT_EQ(sketch_.synopsis().node_count(), nodes_before + 1);
  // The edge from a to one of the x-halves is now B-stable.
  bool found = false;
  for (SynNodeId n : sketch_.synopsis().NodesWithTag(doc_.LookupTag("x"))) {
    const SynEdge* e = sketch_.synopsis().FindEdge(a, n);
    if (e != nullptr) {
      EXPECT_TRUE(e->backward_stable);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RefinementTest, BStabilizeOnStableEdgeRefused) {
  const Synopsis& syn = sketch_.synopsis();
  SynNodeId r_node = NodeByTag(syn, doc_, "r");
  SynNodeId a = NodeByTag(syn, doc_, "a");
  ASSERT_TRUE(syn.FindEdge(r_node, a)->backward_stable);
  Refinement r{Refinement::Kind::kBStabilize, a, r_node, {}};
  EXPECT_FALSE(ApplyRefinement(&sketch_, r));
}

TEST_F(RefinementTest, FStabilizeSplitsSource) {
  const Synopsis& syn = sketch_.synopsis();
  SynNodeId a = NodeByTag(syn, doc_, "a");
  SynNodeId k = NodeByTag(syn, doc_, "k");
  ASSERT_FALSE(syn.FindEdge(a, k)->forward_stable);
  Refinement r{Refinement::Kind::kFStabilize, a, k, {}};
  ASSERT_TRUE(ApplyRefinement(&sketch_, r));
  // One a-half now has an F-stable edge to k.
  bool found = false;
  for (SynNodeId n : sketch_.synopsis().NodesWithTag(doc_.LookupTag("a"))) {
    const SynEdge* e = sketch_.synopsis().FindEdge(n, k);
    if (e != nullptr && e->forward_stable) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(RefinementTest, EdgeRefineDoublesBudget) {
  // Start from 1-bucket histograms so refinement is applicable somewhere.
  CoarsestOptions copts;
  copts.initial_buckets = 1;
  TwigXSketch tight = TwigXSketch::Coarsest(doc_, copts);
  bool applied = false;
  for (SynNodeId n = 0; n < tight.synopsis().node_count(); ++n) {
    const NodeSummary& s = tight.summary(n);
    if (!s.scope.empty() && s.hist.bucket_count() >= s.bucket_budget) {
      const int before = s.bucket_budget;
      Refinement r{Refinement::Kind::kEdgeRefine, n, kInvalidSynNode, {}};
      ASSERT_TRUE(ApplyRefinement(&tight, r));
      EXPECT_EQ(tight.summary(n).bucket_budget, before * 2);
      applied = true;
      break;
    }
  }
  EXPECT_TRUE(applied);
}

TEST_F(RefinementTest, EdgeExpandAddsDimension) {
  const Synopsis& syn = sketch_.synopsis();
  SynNodeId a = NodeByTag(syn, doc_, "a");
  SynNodeId k = NodeByTag(syn, doc_, "k");
  const size_t before = sketch_.summary(a).scope.size();
  Refinement r{Refinement::Kind::kEdgeExpand, a, kInvalidSynNode,
               CountRef{true, a, k}};
  ASSERT_TRUE(ApplyRefinement(&sketch_, r));
  EXPECT_EQ(sketch_.summary(a).scope.size(), before + 1);
  EXPECT_FALSE(ApplyRefinement(&sketch_, r));  // duplicate refused
}

TEST_F(RefinementTest, ValueRefineRequiresValues) {
  const Synopsis& syn = sketch_.synopsis();
  SynNodeId a = NodeByTag(syn, doc_, "a");
  Refinement r{Refinement::Kind::kValueRefine, a, kInvalidSynNode, {}};
  EXPECT_FALSE(ApplyRefinement(&sketch_, r));  // a has no values
}

// --- XBuild ------------------------------------------------------------------------

TEST(XBuildTest, RespectsBudgetAndGrows) {
  xml::Document doc = data::GenerateImdb({.seed = 8, .scale = 0.05});
  BuildOptions opts;
  TwigXSketch coarse = TwigXSketch::Coarsest(doc, opts.coarsest);
  const size_t coarse_size = coarse.SizeBytes();

  opts.budget_bytes = coarse_size + 2048;
  opts.seed = 5;
  opts.candidates_per_iteration = 6;
  opts.sample_queries = 12;
  XBuild build(doc, opts);
  int steps = 0;
  size_t last_size = coarse_size;
  TwigXSketch result = build.Build([&](const TwigXSketch&, size_t size) {
    ++steps;
    EXPECT_GT(size, last_size);
    last_size = size;
  });
  EXPECT_GT(steps, 0);
  EXPECT_GE(result.SizeBytes(), coarse_size);
  // Budget is a stopping criterion; one refinement may overshoot slightly.
  EXPECT_LT(result.SizeBytes(), opts.budget_bytes + 4096);
}

TEST(XBuildTest, RefinementReducesSampleError) {
  // On the skewed IMDB-like data, a refined synopsis must estimate a held
  // out workload no worse than the coarsest one.
  xml::Document doc = data::GenerateImdb({.seed = 8, .scale = 0.05});
  BuildOptions opts;
  opts.budget_bytes = TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() +
                      6 * 1024;
  opts.seed = 7;
  opts.candidates_per_iteration = 8;
  opts.sample_queries = 16;
  XBuild build(doc, opts);
  TwigXSketch refined = build.Build();

  query::WorkloadOptions wopts;
  wopts.seed = 1234;  // distinct from the builder's sample workload
  wopts.num_queries = 60;
  query::Workload holdout = query::GeneratePositiveWorkload(doc, wopts);

  const double coarse_err = XBuild::WorkloadError(
      TwigXSketch::Coarsest(doc, opts.coarsest), holdout);
  const double refined_err = XBuild::WorkloadError(refined, holdout);
  EXPECT_LE(refined_err, coarse_err * 1.10);
}

TEST(XBuildTest, DeterministicForSeed) {
  xml::Document doc = data::GenerateImdb({.seed = 9, .scale = 0.03});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 1024;
  opts.seed = 3;
  opts.candidates_per_iteration = 4;
  opts.sample_queries = 8;
  TwigXSketch a = XBuild(doc, opts).Build();
  TwigXSketch b = XBuild(doc, opts).Build();
  EXPECT_EQ(a.SizeBytes(), b.SizeBytes());
  EXPECT_EQ(a.synopsis().node_count(), b.synopsis().node_count());
}

TEST(XBuildTest, BackwardCountsCanBeEnabled) {
  xml::Document doc = data::GenerateImdb({.seed = 10, .scale = 0.03});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 3072;
  opts.seed = 11;
  opts.allow_backward_counts = true;
  opts.candidates_per_iteration = 6;
  opts.sample_queries = 10;
  TwigXSketch sketch = XBuild(doc, opts).Build();
  // Construction remains sound (estimates finite on a fresh workload).
  query::WorkloadOptions wopts;
  wopts.seed = 77;
  wopts.num_queries = 20;
  query::Workload w = query::GeneratePositiveWorkload(doc, wopts);
  const double err = XBuild::WorkloadError(sketch, w);
  EXPECT_GE(err, 0.0);
  EXPECT_TRUE(std::isfinite(err));
}

// --- Parallel candidate scoring ---------------------------------------------------

TEST(XBuildParallelTest, ParallelBuildBitIdenticalToSequential) {
  xml::Document doc = data::GenerateImdb({.seed = 12, .scale = 0.05});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 4096;
  opts.seed = 5;
  opts.candidates_per_iteration = 8;
  opts.sample_queries = 12;
  opts.allow_backward_counts = true;
  opts.allow_value_correlation = true;

  opts.num_threads = 1;
  BuildStats seq_stats;
  TwigXSketch sequential = XBuild(doc, opts).Build({}, &seq_stats);

  for (int threads : {2, 4}) {
    opts.num_threads = threads;
    BuildStats par_stats;
    TwigXSketch parallel = XBuild(doc, opts).Build({}, &par_stats);
    EXPECT_EQ(Fingerprint(parallel), Fingerprint(sequential)) << threads;
    EXPECT_EQ(par_stats.iterations, seq_stats.iterations) << threads;
    EXPECT_EQ(par_stats.accepted_by_kind, seq_stats.accepted_by_kind)
        << threads;
    EXPECT_EQ(par_stats.num_threads, threads);
  }
  EXPECT_EQ(seq_stats.num_threads, 1);
}

TEST(XBuildParallelTest, HardwareConcurrencyDefaultMatchesSequential) {
  xml::Document doc = data::GenerateImdb({.seed = 13, .scale = 0.03});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 2048;
  opts.seed = 21;
  opts.candidates_per_iteration = 6;
  opts.sample_queries = 10;

  opts.num_threads = 1;
  TwigXSketch sequential = XBuild(doc, opts).Build();
  opts.num_threads = 0;  // hardware concurrency
  TwigXSketch parallel = XBuild(doc, opts).Build();
  EXPECT_EQ(Fingerprint(parallel), Fingerprint(sequential));
}

TEST(XBuildStatsTest, StatsAreConsistent) {
  xml::Document doc = data::GenerateImdb({.seed = 14, .scale = 0.04});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 3072;
  opts.seed = 9;
  opts.candidates_per_iteration = 6;
  opts.sample_queries = 10;
  opts.num_threads = 2;

  BuildStats stats;
  TwigXSketch sketch = XBuild(doc, opts).Build({}, &stats);

  EXPECT_GT(stats.iterations, 0);
  EXPECT_EQ(stats.final_size_bytes, sketch.SizeBytes());
  EXPECT_GT(stats.candidates_generated, 0);
  EXPECT_GE(stats.candidates_generated, stats.candidates_applicable);
  EXPECT_EQ(stats.candidates_scored, stats.candidates_applicable);
  int64_t accepted = 0;
  for (int64_t c : stats.accepted_by_kind) accepted += c;
  EXPECT_EQ(accepted, stats.iterations);
  EXPECT_LE(stats.iterations, stats.candidates_applicable);
  EXPECT_GT(stats.wall_ms, 0.0);
  EXPECT_GE(stats.scoring_p95_ms, stats.scoring_p50_ms);
  EXPECT_GE(stats.final_error, 0.0);
  EXPECT_TRUE(std::isfinite(stats.final_error));
}

TEST(XBuildStatsTest, UnscoredBuildCountsFirstApplicable) {
  xml::Document doc = data::GenerateImdb({.seed = 15, .scale = 0.03});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 1024;
  opts.seed = 4;
  opts.score_candidates = false;
  opts.num_threads = 4;  // ignored: nothing to score in the ablation

  BuildStats stats;
  XBuild(doc, opts).Build({}, &stats);
  EXPECT_EQ(stats.num_threads, 1);
  EXPECT_EQ(stats.candidates_scored, 0);
  EXPECT_EQ(stats.final_error, 0.0);
  EXPECT_GT(stats.iterations, 0);
}

TEST(RefinementKindNameTest, AllKindsNamed) {
  for (int k = 0; k < BuildStats::kNumKinds; ++k) {
    EXPECT_STRNE(RefinementKindName(static_cast<Refinement::Kind>(k)),
                 "unknown");
  }
}

TEST(XBuildTest, StopsOnFullyStableDocument) {
  // Figure-4 documents are fully stable with exact histograms: XBUILD may
  // find no useful refinement and must terminate anyway.
  xml::Document doc = data::MakeFigure4A();
  BuildOptions opts;
  opts.budget_bytes = 1 << 20;
  opts.seed = 2;
  opts.candidates_per_iteration = 4;
  opts.sample_queries = 6;
  TwigXSketch sketch = XBuild(doc, opts).Build();
  EXPECT_LT(sketch.SizeBytes(), opts.budget_bytes);
}

}  // namespace
}  // namespace xsketch::core
