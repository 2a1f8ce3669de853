#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "data/figures.h"
#include "data/imdb.h"
#include "data/swissprot.h"
#include "data/xmark.h"
#include "query/evaluator.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "util/random.h"
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

// --- Golden builds ----------------------------------------------------------------

// A small build configuration whose result is pinned by hash: any change to
// the accepted refinement sequence (or to what a refinement produces)
// changes the element partition or the XSK3 image.
struct GoldenCase {
  const char* name;
  const char* doc;             // "xmark", "imdb" or "sprot"
  size_t extra_budget;         // bytes over the coarsest sketch
  double value_pred_fraction;  // 0: P sample, 0.5: P+V sample
  bool allow_backward_counts;
  bool allow_value_correlation;
  uint64_t hash;               // FNV-1a 64 of Fingerprint()
};

const GoldenCase kGoldenCases[] = {
    {"xmark-2k-P", "xmark", 2048, 0.0, false, false,
     0x75d5b89e8730e58eull},
    {"xmark-2k-PV", "xmark", 2048, 0.5, false, false,
     0x1b1dce693333cfefull},
    {"xmark-6k-P", "xmark", 6144, 0.0, false, false,
     0xbbae0ab3796f88ffull},
    {"xmark-6k-PV", "xmark", 6144, 0.5, false, false,
     0xd86ef15252ebb4a6ull},
    {"imdb-2k-P", "imdb", 2048, 0.0, false, false,
     0x021e739d9ecfd945ull},
    {"imdb-2k-PV", "imdb", 2048, 0.5, false, false,
     0x2b58c9549e9c4489ull},
    {"imdb-6k-P", "imdb", 6144, 0.0, false, false,
     0xc2c2624d6ef3ca94ull},
    {"imdb-6k-PV", "imdb", 6144, 0.5, false, false,
     0x8729b0cf22aeb6faull},
    {"sprot-2k-P", "sprot", 2048, 0.0, false, false,
     0x3ea489fd973a94c5ull},
    {"sprot-2k-PV", "sprot", 2048, 0.5, false, false,
     0x7463e9e3af5a6913ull},
    {"sprot-6k-P", "sprot", 6144, 0.0, false, false,
     0xa495a80db5ae390aull},
    {"sprot-6k-PV", "sprot", 6144, 0.5, false, false,
     0x5be6654ed77dcc9dull},
    {"imdb-4k-P-backward", "imdb", 4096, 0.0, true, false,
     0x9766aed085497d17ull},
    {"imdb-4k-PV-valuecorr", "imdb", 4096, 0.5, false, true,
     0x6f3486b70f2d68a7ull},
};

xml::Document GoldenDoc(const GoldenCase& c) {
  const std::string doc = c.doc;
  if (doc == "xmark") return data::GenerateXMark({.seed = 42, .scale = 0.02});
  if (doc == "imdb") return data::GenerateImdb({.seed = 7, .scale = 0.03});
  return data::GenerateSwissProt({.seed = 11, .scale = 0.02});
}

BuildOptions GoldenOptions(const GoldenCase& c, const xml::Document& doc) {
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + c.extra_budget;
  opts.seed = 31;
  opts.sample_value_pred_fraction = c.value_pred_fraction;
  opts.allow_backward_counts = c.allow_backward_counts;
  opts.allow_value_correlation = c.allow_value_correlation;
  return opts;
}

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(XBuildGoldenTest, BuildsMatchRecordedHashes) {
  for (const GoldenCase& c : kGoldenCases) {
    xml::Document doc = GoldenDoc(c);
    TwigXSketch sketch = XBuild(doc, GoldenOptions(c, doc)).Build();
    const uint64_t hash = Fnv1a64(Fingerprint(sketch));
    EXPECT_EQ(hash, c.hash) << c.name << ": got 0x" << std::hex << hash;
  }
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

template <typename T>
void AppendBytes(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void AppendRefs(std::string* out, const std::vector<CountRef>& refs) {
  for (const CountRef& r : refs) {
    AppendBytes(out, r.forward);
    AppendBytes(out, r.from);
    AppendBytes(out, r.to);
  }
  out->push_back('|');
}

void AppendHistogram(std::string* out, const hist::EdgeHistogram& h) {
  for (const hist::EdgeHistogram::Bucket& b : h.buckets()) {
    for (uint32_t x : b.lo) AppendBytes(out, x);
    for (uint32_t x : b.hi) AppendBytes(out, x);
    for (double x : b.mean) AppendBytes(out, x);
    AppendBytes(out, b.fraction);
  }
  out->push_back('|');
}

// Everything an estimate can read at synopsis node n: its count, its
// outgoing edges, its parents and its summary.
std::string NodeData(const TwigXSketch& sketch, SynNodeId n) {
  std::string out;
  const SynNode& node = sketch.synopsis().node(n);
  AppendBytes(&out, node.count);
  for (const SynEdge& e : node.children) {
    AppendBytes(&out, e.child);
    AppendBytes(&out, e.child_count);
    AppendBytes(&out, e.parent_count);
    AppendBytes(&out, e.backward_stable);
    AppendBytes(&out, e.forward_stable);
  }
  out.push_back('|');
  for (SynNodeId p : node.parents) AppendBytes(&out, p);
  out.push_back('|');
  const NodeSummary& s = sketch.summary(n);
  AppendRefs(&out, s.scope);
  AppendHistogram(&out, s.hist);
  AppendBytes(&out, s.bucket_budget);
  for (const hist::ValueHistogram::Bucket& b : s.values.buckets()) {
    AppendBytes(&out, b.lo);
    AppendBytes(&out, b.hi);
    AppendBytes(&out, b.count);
  }
  out.push_back('|');
  AppendBytes(&out, s.value_bucket_budget);
  AppendRefs(&out, s.value_scope);
  AppendHistogram(&out, s.joint_values);
  AppendBytes(&out, s.value_offset);
  return out;
}

// Follows XBuild::Build's greedy loop with `xbuild`'s candidate sampler,
// scoring on `workload` through a SampleScorer, and checks every scored
// candidate: the delta-scored error (only the queries a candidate can
// change are re-estimated) must equal re-estimating the whole workload,
// and every node whose data the refinement changed must be in the changed
// set it reports. Leaves the final sketch in `*result` and counts in
// `*partial` the candidates that skipped some query.
void FollowGreedyBuild(const XBuild& xbuild, const xml::Document& doc,
                       const BuildOptions& opts,
                       const query::Workload& workload,
                       std::optional<TwigXSketch>* result, int64_t* partial) {
  TwigXSketch sketch = TwigXSketch::Coarsest(doc, opts.coarsest);
  SampleScorer scorer(sketch, workload, opts.estimator);
  ASSERT_EQ(Bits(scorer.error()),
            Bits(XBuild::WorkloadError(sketch, workload, opts.estimator)));

  util::Rng rng(opts.seed);
  int64_t checked = 0;
  int stall = 0;
  while (sketch.SizeBytes() < opts.budget_bytes && stall < 15) {
    const std::vector<Refinement> candidates =
        xbuild.GenerateCandidates(sketch, rng);
    if (candidates.empty()) break;
    const size_t size_before = sketch.SizeBytes();
    std::vector<std::string> base_data;
    for (SynNodeId n = 0; n < sketch.synopsis().node_count(); ++n) {
      base_data.push_back(NodeData(sketch, n));
    }
    std::optional<TwigXSketch> best_sketch;
    SampleScorer::Trial best;
    double best_gain = 0.0;
    for (const Refinement& r : candidates) {
      TwigXSketch trial = sketch;
      std::vector<SynNodeId> changed;
      if (!ApplyRefinement(&trial, r, &changed)) continue;
      const size_t size_after = trial.SizeBytes();
      if (size_after <= size_before) continue;
      for (SynNodeId n = 0; n < trial.synopsis().node_count(); ++n) {
        if (n < base_data.size() && NodeData(trial, n) == base_data[n]) {
          continue;
        }
        ASSERT_NE(std::find(changed.begin(), changed.end(), n),
                  changed.end())
            << RefinementKindName(r.kind) << " at node " << r.node
            << " changed node " << n << " without reporting it";
      }
      SampleScorer::Trial scored = scorer.Score(trial, changed);
      ASSERT_EQ(Bits(scored.error),
                Bits(XBuild::WorkloadError(trial, workload, opts.estimator)))
          << RefinementKindName(r.kind) << " at node " << r.node
          << " (candidate " << checked << ")";
      ++checked;
      if (scored.reads.size() < workload.queries.size()) ++*partial;
      const double gain = (scorer.error() - scored.error) /
                          static_cast<double>(size_after - size_before);
      if (!best_sketch || gain > best_gain) {
        best_gain = gain;
        best = std::move(scored);
        best_sketch.emplace(std::move(trial));
      }
    }
    if (!best_sketch) {
      ++stall;
      continue;
    }
    stall = 0;
    sketch = std::move(*best_sketch);
    scorer.Accept(std::move(best));
  }
  EXPECT_GT(checked, 0);
  result->emplace(std::move(sketch));
}

// Every candidate of the golden builds, scored on the build's own sample.
// The final sketch must be the golden one, which shows the loop scored
// exactly the candidates Build scores.
TEST(XBuildDeltaTest, DeltaErrorEqualsFullRescoreBitwise) {
  for (const GoldenCase& c : kGoldenCases) {
    SCOPED_TRACE(c.name);
    xml::Document doc = GoldenDoc(c);
    const BuildOptions opts = GoldenOptions(c, doc);
    const XBuild xbuild(doc, opts);
    std::optional<TwigXSketch> sketch;
    int64_t partial = 0;
    FollowGreedyBuild(xbuild, doc, opts, xbuild.SampleWorkload(), &sketch,
                      &partial);
    if (HasFatalFailure()) return;
    EXPECT_GT(partial, 0);  // delta scoring skipped some queries
    EXPECT_EQ(Fnv1a64(Fingerprint(*sketch)), c.hash);
  }
}

// XBUILD's sample roots every '//' at the twig root. Twigs with '//' steps
// below the root (over XMark's recursive parlist/listitem) must score
// bit for bit like re-estimating the whole workload too.
TEST(XBuildDeltaTest, InnerDescendantStepsScoreLikeFullRescore) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.02});
  BuildOptions opts;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + 6144;
  opts.seed = 31;
  query::Workload workload;
  const query::ExactEvaluator exact(doc);
  for (const char* path :
       {"//item//listitem//text", "//description//parlist/listitem",
        "//regions//item[shipping]//text", "//site//open_auction/bidder",
        "//item[description//parlist]/name", "//people//person/name",
        "//item/name"}) {
    auto twig = query::ParsePath(path, doc.tags());
    ASSERT_TRUE(twig.ok()) << path << ": " << twig.status().ToString();
    const uint64_t truth = exact.Selectivity(twig.value());
    workload.queries.push_back({std::move(twig).value(), truth});
  }
  std::optional<TwigXSketch> sketch;
  int64_t partial = 0;
  FollowGreedyBuild(XBuild(doc, opts), doc, opts, workload, &sketch,
                    &partial);
  EXPECT_GT(partial, 0);  // the root-only twig was skipped at times
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
  EXPECT_GE(stats.candidates_generated, stats.candidates_scored);
  int64_t accepted = 0;
  for (int64_t c : stats.accepted_by_kind) accepted += c;
  EXPECT_EQ(accepted, stats.iterations);
  EXPECT_LE(stats.iterations, stats.candidates_scored);
  // A candidate re-estimates at most the whole sample.
  EXPECT_GT(stats.queries_rescored, 0);
  EXPECT_LE(stats.queries_rescored,
            stats.candidates_scored * opts.sample_queries);
  EXPECT_GT(stats.copy_ms, 0.0);
  EXPECT_GT(stats.apply_ms, 0.0);
  EXPECT_GT(stats.rescore_ms, 0.0);
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
  EXPECT_EQ(stats.queries_rescored, 0);
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
