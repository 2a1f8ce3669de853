// Compiled twig programs: the prepared-query hot path.
//
// The reference estimator (core/estimator.h) re-derives everything per
// call: '//' label-path expansion, covered-dimension lookups, Forward
// Uniformity divisions, histogram conditioning, value-fraction lookups.
// TwigCompiler performs all of that statically, lowering a TwigQuery
// against one FrozenSynopsis into a CompiledTwig — a flat instruction
// sequence (plans / children / chains / steps / value sites in CSR
// arrays) that a tight interpreter executes with no allocation on the
// common path. A program is one exact-size block: the header and every
// array back to back, SizeBytes() its exact size (what the service's
// byte-bounded plan cache charges). The compiler lowers into reusable
// per-thread scratch and copies the result into that block once, so a
// warm compile allocates only the block.
//
//   * '//' expansion happens at compile time, memoized ACROSS queries in
//     the compiler's shared DescendantPathCache (the same structure the
//     estimator uses per instance, here amortized over every query
//     prepared against the sketch).
//   * EstimatorOptions::max_path_length = 0 ("document max depth + 1") is
//     resolved once at compiler construction and stamped into every
//     CompiledTwig (path_length_cap()).
//   * Uniformity fanouts, existence fractions, bucket-box bounds and value
//     fractions are precomputed doubles produced by the same IEEE-754
//     expressions the estimator would evaluate, so execution is
//     bit-identical to Estimator::Estimate / EstimateWithStats — including
//     the EstimateStats counters, which the stats-mode interpreter
//     increments at exactly the reference call sites.
//   * Histogram-bucket work (E/U/D sums) is vectorized with the
//     elementwise SIMD kernels in util/simd.h; every float *reduction*
//     stays scalar and in reference order, which is what preserves
//     bit-identity (see the "vector-fast" plan flag below).
//
// Execution modes mirror the estimator's:
//   Execute()          == Estimator::Estimate     (memoized, vector-fast)
//   ExecuteWithStats() == EstimateWithStats       (faithful counters; the
//                         memo is off and the per-point recursion is
//                         replayed exactly, so counters that scale with
//                         bucket count come out identical)
//   ExecuteWithTrace() == EstimateWithTrace       (the stats-mode
//                         recursion with an explain sink recording every
//                         term; node for node the interpreter's tree)
// There is one executor, templated on its explain sink: the untraced
// modes instantiate it with a sink whose hooks are empty, so their loop
// is the one the executor runs without any explain support.
//
// Concurrency: a CompiledTwig is immutable after Compile and may be
// executed from any number of threads, each with its own ExecScratch
// (or the shared thread-local one). TwigCompiler is likewise const and
// thread-safe; its expansion cache is internally synchronized.

#ifndef XSKETCH_CORE_COMPILE_H_
#define XSKETCH_CORE_COMPILE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/estimator.h"
#include "core/frozen.h"
#include "obs/explain.h"
#include "query/twig.h"
#include "util/status.h"

namespace xsketch::core {

// Reusable per-thread execution state. One instance may serve any number
// of CompiledTwigs (buffers grow to the largest program seen); sharing one
// instance between threads is a data race.
struct ExecScratch {
  struct CtxEntry {
    SynNodeId from;
    SynNodeId to;
    double value;
  };
  std::vector<CtxEntry> ctx;        // Correlation Scope conditioning stack
  std::vector<double> memo_val;     // per-plan memo (plain mode)
  std::vector<uint32_t> memo_epoch;
  uint32_t epoch = 0;
  std::vector<double> inners;       // chain-tail stack (vector-fast phase 1)
  std::vector<double> child_acc;    // per-bucket accumulators (phase 2)
  std::vector<double> term_acc;
};

// The process-wide thread-local scratch — the convenient default when the
// caller does not manage per-thread state explicitly.
ExecScratch& ThreadLocalExecScratch();

class CompiledTwig {
 public:
  CompiledTwig(const CompiledTwig&) = delete;
  CompiledTwig& operator=(const CompiledTwig&) = delete;

  // The estimate, bit-identical to Estimator::Estimate on the source
  // sketch with the compiling TwigCompiler's options.
  double Execute(ExecScratch& scratch) const;
  double Execute() const { return Execute(ThreadLocalExecScratch()); }

  // Estimate plus diagnostics, bit-identical to EstimateWithStats (every
  // counter, not just the estimate).
  EstimateStats ExecuteWithStats(ExecScratch& scratch) const;
  EstimateStats ExecuteWithStats() const {
    return ExecuteWithStats(ThreadLocalExecScratch());
  }

  // Estimate, diagnostics and the full explain trace (`trace` must be
  // non-null; it is cleared first). The tree equals
  // Estimator::EstimateWithTrace's node for node — op, kind, label, twig
  // node, value bits, buckets read and conditioned dims — with labels
  // rendered from the frozen tag table and synopsis node ids.
  EstimateStats ExecuteWithTrace(obs::ExplainTrace* trace,
                                 ExecScratch& scratch) const;
  EstimateStats ExecuteWithTrace(obs::ExplainTrace* trace) const {
    return ExecuteWithTrace(trace, ThreadLocalExecScratch());
  }

  const FrozenSynopsis& frozen() const { return *frozen_; }

  // The '//' depth bound this program was compiled with: max_path_length
  // if positive, else document max depth + 1, resolved once at compile
  // time (the estimator re-derives this per construction).
  int path_length_cap() const { return path_length_cap_; }

  // Program shape (diagnostics / tests).
  size_t plan_count() const { return plans_.size(); }
  size_t chain_count() const { return chains_.size(); }
  size_t step_count() const { return steps_.size(); }
  size_t root_count() const { return roots_.size(); }
  // Exact bytes of the program's one block: this header plus every
  // instruction array (the plan cache charges programs by it).
  size_t SizeBytes() const { return size_bytes_; }

 private:
  friend class TwigCompiler;
  CompiledTwig() = default;
  // Only the deleter TwigCompiler installs destroys a program: the header
  // heads a raw block it must also free.
  ~CompiledTwig() = default;

  // How a plan (or a covered chain step) obtains its histogram points.
  enum class PointsKind : uint8_t {
    kUnit,     // no enumeration: the single implicit unit point
    kStatic,   // frozen Condition({}) slice — no backward dims at the node
    kRuntime,  // conditioned on the context at execution time (D terms)
  };

  // Value-predicate site at a twig node evaluated at a synopsis node.
  // Chain tails and roots refer to sites by index into vf_sites_; -1 means
  // no predicate (factor 1, no stats entry).
  struct VfSite {
    enum class Kind : uint8_t {
      kStatic,   // fraction precomputed at compile time
      kDynamic,  // joint H^v(V,C..) conditioning on the runtime context
    };
    double fraction = 1.0;  // kStatic value; kDynamic context-free fallback
    double lo_coord = 0.0, hi_coord = 0.0;  // kDynamic histogram coords
    SynNodeId n = kInvalidSynNode;          // kDynamic
    Kind kind = Kind::kStatic;
  };

  // One synopsis edge traversal inside a chain: from -> edge->child. The
  // frozen edge carries the pre-divided Forward Uniformity quantities
  // (avg, exist_frac, avg_given_exist, parent_zero).
  struct Step {
    const FrozenSynopsis::Edge* edge = nullptr;
    SynNodeId from = kInvalidSynNode;
    int16_t covered_dim = -1;  // forward dim of `from` covering this edge
    PointsKind points_kind = PointsKind::kStatic;  // enumeration at `from`
                                                   // (covered steps, idx>0)
    SynNodeId to() const { return edge->child; }
  };

  // One alternative embedding (synopsis label path) of a query step, and
  // its tail: the value fraction at the last step's `to` and the subtree
  // plan below it.
  struct Chain {
    uint32_t step_begin = 0;
    uint32_t len = 0;
    int32_t tail_plan = -1;  // -1 = leaf (factor 1.0)
    int32_t vf = -1;         // tail value site (vf_sites_), -1 = none
  };

  // One query child evaluated from a plan's synopsis node.
  struct Child {
    enum class Kind : uint8_t {
      kZero,    // unknown tag or no synopsis path: term 0, no stats
      kNormal,
    };
    Kind kind = Kind::kNormal;
    bool existential = false;
    bool descendant = false;  // '//' axis (descendant_chains stat)
    int32_t twig_node = -1;   // the query child (explain labels)
    uint32_t chain_begin = 0, chain_end = 0;
  };

  // EvalSubtree(n, t) lowered: the histogram-point loop over the plan's
  // children. Plans are deduplicated on (t, n) — the same keying as the
  // estimator's per-call memo, here resolved at compile time.
  struct Plan {
    SynNodeId n = kInvalidSynNode;
    PointsKind points_kind = PointsKind::kUnit;
    bool has_values = false;   // enumerated points carry per-dim values
    bool zero_child = false;   // some child is kZero → plain result is 0
    bool vector_fast = false;  // bucket sums via SIMD kernels (plain mode):
                               // static points, no existential child — the
                               // per-bucket terms are then elementwise in
                               // the frozen columns and every reduction
                               // stays in reference order
    int32_t twig_node = -1;    // t of the (t, n) key (explain labels)
    uint32_t child_begin = 0, child_end = 0;
  };

  // One root alternative of the twig (extent enumeration).
  struct Root {
    double count = 0.0;
    SynNodeId n = kInvalidSynNode;
    int32_t plan = -1;
    int32_t vf = -1;         // value site (vf_sites_), -1 = none
    bool mul_count = false;  // descendant-axis root: term = count*vf*sub
  };

  // What explain labels need of one query node; indexed by twig node.
  struct TwigNode {
    xml::TagId tag = 0;
    query::Axis axis = query::Axis::kChild;
    std::optional<query::ValuePredicate> pred;
  };

  template <typename Sink>
  class Executor;
  class NoExplain;
  class ExplainRecorder;

  std::shared_ptr<const FrozenSynopsis> frozen_;
  // Views into the block this header heads: plans, children, chains,
  // steps, value sites, roots and query nodes, each array exactly sized,
  // laid out back to back after the header (TwigCompiler::Builder::Emit).
  std::span<const Plan> plans_;
  std::span<const Child> children_;
  std::span<const Chain> chains_;
  std::span<const Step> steps_;
  std::span<const VfSite> vf_sites_;
  std::span<const Root> roots_;
  std::span<const TwigNode> twig_nodes_;
  size_t size_bytes_ = 0;
  bool enumerate_all_ = false;  // sketch has backward dims: memo off,
                                // every histogram node enumerates
  int path_length_cap_ = 0;
};

// Lowers validated twig queries against one frozen synopsis. Create one
// compiler per sketch and reuse it: the '//'-expansion cache is shared
// across every query it compiles.
class TwigCompiler {
 public:
  // `frozen` must be non-null; options must Validate(). Every
  // CompiledTwig produced shares ownership of `frozen`.
  explicit TwigCompiler(std::shared_ptr<const FrozenSynopsis> frozen,
                        const EstimatorOptions& options = {});

  TwigCompiler(const TwigCompiler&) = delete;
  TwigCompiler& operator=(const TwigCompiler&) = delete;

  // Validates and lowers `twig`. Malformed twigs return InvalidArgument
  // (the same contract as Estimator::EstimateChecked).
  util::Result<std::shared_ptr<const CompiledTwig>> Compile(
      const query::TwigQuery& twig) const;

  const FrozenSynopsis& frozen() const { return *frozen_; }
  const EstimatorOptions& options() const { return options_; }
  int path_length_cap() const { return path_length_cap_; }

  // Cross-query '//'-expansion cache activity.
  DescendantPathCache::Counters path_cache_counters() const {
    return path_cache_.counters();
  }

 private:
  class Builder;

  // All synopsis label paths n -> ... -> (tag), the same enumeration as
  // Estimator::DescendantPaths, memoized across every compiled query.
  const DescendantPathCache::Paths& DescendantPaths(SynNodeId n,
                                                    xml::TagId tag) const;

  std::shared_ptr<const FrozenSynopsis> frozen_;
  EstimatorOptions options_;
  int path_length_cap_;
  DescendantPathCache path_cache_;
  obs::Counter* metric_compiles_;
  obs::Histogram* metric_compile_us_;
};

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_COMPILE_H_
