// XBUILD: greedy marginal-gains construction of a Twig XSKETCH (paper §5).
//
// Starting from the coarsest (label-split) synopsis, XBUILD repeatedly
// generates candidate refinement operations on a sample of synopsis nodes
// (sampling probability proportional to extent size and unstable degree),
// scores each candidate by the relative-error reduction per byte on a
// sample twig workload, and applies the best one, until the space budget
// is exhausted.
//
// A candidate costs what it changes. A split recounts only the edges
// around the split node (Synopsis::SplitNode), and scoring re-estimates
// only the sample queries whose estimate read a node the refinement
// changed (SampleScorer); the other estimates carry over from the current
// sketch. The scored error is bit for bit that of re-estimating the whole
// sample, so the accepted refinement sequence is the same.
//
// Refinement operations:
//   b-stabilize(u→v): split v by "has parent in u"  → new B-stable edge
//   f-stabilize(u→v): split u by "has child in v"   → new F-stable edge
//   edge-refine(n):   double the bucket budget of H_n
//   edge-expand(n,e): add a count dimension to H_n (lifting an
//                     independence assumption across edge e)
//   value-refine(n):  double the bucket budget of the value histogram
//
// The paper's prototype (§6.1) restricts edge-expand to forward counts;
// `allow_backward_counts` enables the paper's stated extension.
// True workload selectivities come from exact evaluation on the document
// (DESIGN.md §3 substitution for the "large reference summary").

#ifndef XSKETCH_CORE_BUILDER_H_
#define XSKETCH_CORE_BUILDER_H_

#include <array>
#include <functional>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/twig_xsketch.h"
#include "query/workload.h"

namespace xsketch::core {

struct BuildOptions {
  size_t budget_bytes = 50 * 1024;
  uint64_t seed = 99;

  // Threads scoring candidate refinements in parallel: the calling thread
  // and num_threads - 1 pool workers. 0 picks the hardware concurrency; 1
  // keeps everything on the calling thread. The built sketch is
  // bit-identical at every thread count: each candidate is scored
  // independently (its own sketch copy and re-estimated queries) against
  // the same read-only base, and ties break on candidate index.
  int num_threads = 1;

  // Candidate refinements evaluated per iteration.
  int candidates_per_iteration = 10;
  // Sample workload used for marginal-gain scoring.
  int sample_queries = 28;
  // Shape of the sample workload (value_pred_fraction should mirror the
  // target workload: P vs P+V).
  double sample_value_pred_fraction = 0.0;
  double sample_existential_prob = 0.4;

  // Ablation switch: when false, XBUILD applies the first applicable
  // sampled candidate instead of scoring candidates against the sample
  // workload — i.e. frequency-proportional but workload-oblivious
  // allocation, the strategy the paper criticizes in CST/StatiX.
  bool score_candidates = true;

  bool enable_structural = true;
  bool enable_edge_refine = true;
  bool enable_edge_expand = true;
  bool enable_value_refine = true;
  // Paper prototype restriction: forward counts only. Enabling this allows
  // edge-expand to add backward (ancestor) count dimensions.
  bool allow_backward_counts = false;
  // Paper prototype restriction: single-dimensional value histograms.
  // Enabling this allows value-expand to build joint H^v(V, C...)
  // histograms correlating values with edge counts (paper §3.2).
  bool allow_value_correlation = false;
  int max_hist_dims = 4;

  CoarsestOptions coarsest;
  EstimatorOptions estimator;
};

// One refinement operation (see file comment).
struct Refinement {
  enum class Kind {
    kBStabilize,
    kFStabilize,
    kEdgeRefine,
    kEdgeExpand,
    kValueRefine,
    kValueExpand,
  };
  Kind kind = Kind::kEdgeRefine;
  SynNodeId node = kInvalidSynNode;   // refined node (v / u / n)
  SynNodeId other = kInvalidSynNode;  // stabilize: other endpoint
  CountRef ref;                       // edge-expand: the new dimension
};

// Applies `r` to `sketch`; returns false when inapplicable (e.g. the edge
// became stable already, the subset is degenerate, or the scope already
// contains the dimension). When `r` applies and `changed` is non-null,
// appends the nodes whose data `r` may have changed: for a split, the
// nodes TwigXSketch::SplitNode reports; for every other kind, the refined
// node.
bool ApplyRefinement(TwigXSketch* sketch, const Refinement& r,
                     std::vector<SynNodeId>* changed = nullptr);

// Short display name of a refinement kind ("b-stabilize", "edge-refine", ...).
const char* RefinementKindName(Refinement::Kind kind);

// Aggregate observability for one XBuild::Build run.
struct BuildStats {
  static constexpr int kNumKinds = 6;  // Refinement::Kind cardinality

  int num_threads = 0;       // resolved scoring thread count
  int iterations = 0;        // accepted refinements
  int64_t candidates_generated = 0;
  // Candidates that applied cleanly, grew the sketch and were scored on
  // the sample workload.
  int64_t candidates_scored = 0;
  // Sample-query estimates run to score candidates: each candidate
  // re-estimates only the queries it can change.
  int64_t queries_rescored = 0;
  // Per-candidate scoring phases, summed over scoring tasks (work across
  // all workers, not wall time): copying the current sketch (and freeing
  // the copy), applying the refinement to the copy, and re-estimating the
  // changed queries.
  double copy_ms = 0.0;
  double apply_ms = 0.0;
  double rescore_ms = 0.0;
  // Accepted refinements by kind, indexed by Refinement::Kind.
  std::array<int64_t, kNumKinds> accepted_by_kind = {};
  // Per-iteration candidate-scoring wall time (the parallelized section).
  double scoring_p50_ms = 0.0;
  double scoring_p95_ms = 0.0;
  double wall_ms = 0.0;      // end-to-end Build wall time
  size_t final_size_bytes = 0;
  // Final sketch error on the internal sample workload (the quantity the
  // greedy search minimizes); 0 when score_candidates is off.
  double final_error = 0.0;
};

// The sample-workload error of the sketch XBUILD is refining (the base),
// kept per query: each query's estimate and the synopsis nodes it read
// (Estimator::EstimateWithReads). A candidate re-estimates only the
// queries whose read set meets the nodes its refinement changed, and
// builds its error from the full per-query vector, so the result is bit
// for bit XBuild::WorkloadError of the candidate. Every query is
// re-estimated when the refinement flips HasBackwardDims(), and queries
// with a '//' step below the root always are (their expansion reads
// nodes the read set does not record).
class SampleScorer {
 public:
  // One scored candidate; Accept() makes it the base.
  struct Trial {
    double error = 0.0;
    std::vector<double> estimates;
    bool backward_dims = false;
    // The re-estimated queries with their new read sets.
    std::vector<std::pair<size_t, std::vector<SynNodeId>>> reads;
  };

  // Estimates every query of `workload` on `sketch`, the first base. The
  // workload must outlive the scorer.
  SampleScorer(const TwigXSketch& sketch, const query::Workload& workload,
               const EstimatorOptions& options);

  // The base's error.
  double error() const { return error_; }

  // Scores `trial`: the base after a refinement that changed only the
  // `changed` nodes (see ApplyRefinement). Safe to call concurrently.
  Trial Score(const TwigXSketch& trial,
              std::vector<SynNodeId> changed) const;

  // Makes a trial scored against the current base the new base.
  void Accept(Trial trial);

 private:
  const query::Workload& workload_;
  EstimatorOptions options_;
  double sanity_bound_;
  std::vector<bool> always_rescore_;  // a '//' step below the root
  double error_;
  std::vector<double> estimates_;
  std::vector<std::vector<SynNodeId>> reads_;
  bool backward_dims_;
};

class XBuild {
 public:
  XBuild(const xml::Document& doc, const BuildOptions& options);

  // Invoked after every accepted refinement (budget sweeps hook this to
  // snapshot intermediate synopses).
  using StepCallback =
      std::function<void(const TwigXSketch& sketch, size_t size_bytes)>;

  // Runs the greedy search. When `stats` is non-null it receives the
  // run's aggregate observability.
  TwigXSketch Build(const StepCallback& on_step = StepCallback(),
                    BuildStats* stats = nullptr);

  // Average relative error of `sketch` on `workload` by estimating every
  // query (exposed for benches and tests; uses the paper's sanity-bounded
  // metric). The full-rescore oracle SampleScorer must reproduce.
  static double WorkloadError(const TwigXSketch& sketch,
                              const query::Workload& workload,
                              const EstimatorOptions& options = {});

  // The sample workload Build scores candidates on (exact true counts).
  query::Workload SampleWorkload() const;

  // One iteration's candidate refinements, sampled at nodes drawn with
  // probability proportional to extent size and unstable degree.
  std::vector<Refinement> GenerateCandidates(const TwigXSketch& sketch,
                                             util::Rng& rng) const;

 private:
  const xml::Document& doc_;
  BuildOptions options_;
};

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_BUILDER_H_
