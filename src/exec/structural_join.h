// Binary structural-join execution of twig queries over label streams.
//
// The executor computes the *exact* number of binding tuples of a twig
// (the quantity ExactEvaluator counts and the XSKETCH estimator
// approximates) by joining the twig's binding skeleton one edge at a
// time, in a caller-chosen order — the classic binary-join architecture
// the "Demythization of Structural XML Query Processing" study contrasts
// with holistic twig joins (src/exec/twig_stack.h is the holistic
// counterpart). Join order changes intermediate-result sizes by orders
// of magnitude while leaving the result invariant, which is exactly the
// degree of freedom the cost-based planner (src/plan) optimizes with
// XSKETCH estimates.
//
// Semantics decomposition (mirrors query::ExactEvaluator bit for bit —
// all counters are uint64 ring arithmetic, so even wraparound agrees):
//
//   1. Every *binding* twig node contributes a tuple column. Binding
//      nodes form a connected subtree containing the twig root (children
//      of existential nodes are implicitly existential).
//   2. Each binding node's input stream is its label stream narrowed by
//      its value predicate, by the root anchor (a child-axis root must
//      be the document root element), and by structural semi-joins
//      against each existential child subtree (computed bottom-up:
//      an element survives iff every existential branch below it is
//      satisfiable).
//   3. The skeleton's parent-child / ancestor-descendant edges are then
//      processed in plan order; each join extends the intermediate
//      relation by one column, range-probing the sorted stream (downward
//      edges) or walking parent pointers (upward edges).
//
// Intermediate relations aggregate duplicate rows: columns whose edges
// are all joined are projected away and their multiplicity folded into a
// per-row uint64 count (early aggregation for COUNT — without it, twigs
// whose true count is astronomically larger than the document could not
// be executed at all). ExecStats reports both the physical rows a plan
// touched and the logical (pre-aggregation) intermediate cardinalities;
// the latter is the paper-faithful plan-quality metric.

#ifndef XSKETCH_EXEC_STRUCTURAL_JOIN_H_
#define XSKETCH_EXEC_STRUCTURAL_JOIN_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/streams.h"
#include "query/twig.h"
#include "util/status.h"

namespace xsketch::exec {

// One binding-skeleton edge: `child`'s axis (child vs. descendant) is
// taken from the twig node itself.
struct JoinEdge {
  int parent = -1;
  int child = -1;

  bool operator==(const JoinEdge&) const = default;
};

// The twig's binding skeleton: the join graph of the binary executor.
struct BindingSkeleton {
  // effective_existential[t]: t is existential or below an existential
  // node (ExactEvaluator evaluates such nodes as pure EXISTS checks
  // regardless of their own flag).
  std::vector<char> effective_existential;
  // Binding (tuple-producing) nodes, increasing twig order; [0] is the
  // twig root.
  std::vector<int> binding_nodes;
  // One edge per non-root binding node, in depth-first (syntactic)
  // order: the "naive ordering" baseline is exactly this sequence.
  std::vector<JoinEdge> edges;
};

// Requires twig.Validate().ok().
BindingSkeleton MakeBindingSkeleton(const query::TwigQuery& twig);

// Work accounting for one executed twig. `matches` is the exact binding
// tuple count modulo 2^64 — bit-identical to ExactEvaluator::Selectivity
// (both compute the same integer through uint64 ring operations).
struct ExecStats {
  uint64_t matches = 0;

  bool holistic = false;  // which operator produced this
  int joins = 0;          // binary: executed join steps

  // Binary executor accounting.
  uint64_t input_rows = 0;     // summed filtered stream sizes (skeleton)
  uint64_t emitted_rows = 0;   // physical rows emitted by all joins
  uint64_t intermediate_rows = 0;  // physical rows, final join excluded
  // Logical (pre-aggregation) intermediate cardinality: sum over
  // non-final joins of the binding-tuple count of the covered sub-twig.
  // Saturates at UINT64_MAX instead of wrapping — it is a work metric,
  // not a result.
  uint64_t logical_rows = 0;
  uint64_t semijoin_probes = 0;  // existential-filter membership probes

  // Holistic operator accounting.
  uint64_t elements_scanned = 0;  // merged-stream entries processed
  uint64_t stack_pushes = 0;
};

// Stateless apart from the shared immutable index; safe to use from many
// threads concurrently. Document and index must outlive the executor.
class StructuralJoinExecutor {
 public:
  // Hard cap on physical rows emitted across all joins of one execution;
  // exceeding it fails with OutOfRange instead of exhausting memory on a
  // hostile plan/query.
  static constexpr uint64_t kMaxEmittedRows = uint64_t{1} << 27;

  explicit StructuralJoinExecutor(const StreamIndex& index) : index_(index) {}

  // Executes the twig's binding skeleton in the given join order. The
  // order must cover every skeleton edge exactly once and stay connected
  // (each edge after the first shares a node with the already-joined
  // prefix); anything else is InvalidArgument. Requires a validated
  // twig.
  util::Result<ExecStats> ExecuteBinary(const query::TwigQuery& twig,
                                        std::span<const JoinEdge> order) const;

  // ExecuteBinary with the naive syntactic order (skeleton DFS order) —
  // the baseline the planner must beat.
  util::Result<ExecStats> ExecuteNaive(const query::TwigQuery& twig) const;

  const StreamIndex& index() const { return index_; }

 private:
  const StreamIndex& index_;
};

}  // namespace xsketch::exec

#endif  // XSKETCH_EXEC_STRUCTURAL_JOIN_H_
