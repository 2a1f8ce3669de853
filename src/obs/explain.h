// Per-query explain traces for the estimator (RDF-3X-style PlanPrinter
// split: cheap always-on counters live in obs/metrics.h; this is the
// opt-in, queryable explain artifact).
//
// An ExplainTrace is a tree mirroring the TREEPARSE recursion: one node
// per estimation decision — the term kind chosen for each step (E covered
// count / U forward-uniformity fallback), histogram bucket enumerations
// (with the number of buckets read and conditioned dimensions, the D
// terms), value-predicate and existential fractions, and every '//'
// expansion alternative with its contribution.
//
// The trace is a passive observer: every recorded value is the exact
// double the estimation computed, captured in evaluation order, so the
// trace total reproduces the estimate bit for bit and Recompute() can
// audit each sum/product node against its children.
//
// The recording interface (Open/Close/Leaf) is driven by compiled
// programs (core::CompiledTwig::ExecuteWithTrace — what Session::Explain
// and the daemon's /explain serve) and by the reference interpreter
// (core::Estimator::EstimateWithTrace, the test oracle); both record the
// same tree node for node. The type itself depends only on the standard
// library so obs/ stays a leaf layer.

#ifndef XSKETCH_OBS_EXPLAIN_H_
#define XSKETCH_OBS_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xsketch::obs {

// How a node's value combines its children. Recompute() re-derives
// sum/product/existential nodes from their children in recorded order;
// opaque nodes use a non-algebraic formula (pow-based existential step
// factors, the final negative clamp) and are taken at face value.
enum class ExplainOp : uint8_t {
  kLeaf,         // terminal factor, no children
  kSum,          // value = sum of children
  kProduct,      // value = product of children, in order
  kExistential,  // value = 1 - prod(1 - clamp01(child))  (branching preds)
  kOpaque,       // value recorded directly
};

struct ExplainNode {
  ExplainOp op = ExplainOp::kLeaf;
  // Short symbol tying the node to the paper's estimation terms: "E"
  // (covered count), "U" (uniformity fallback), plus structural markers
  // ("query", "extents", "extent", "H", "bucket", "sub", "child", "fv",
  // "fe", "n", "c", "p"). Conditioning (the D terms) shows up as
  // conditioned_dims > 0 on "H" nodes.
  std::string kind;
  std::string label;
  int twig_node = -1;  // query node index; -1 for structural nodes
  double value = 0.0;
  int buckets_read = 0;     // histogram buckets enumerated ("H" nodes)
  int conditioned_dims = 0; // backward dims conditioned on (D terms)
  std::vector<ExplainNode> children;
};

class ExplainTrace {
 public:
  bool empty() const { return nodes_.empty(); }
  const ExplainNode& root() const;

  // The traced estimate: identical (bitwise) to what Estimate() returned.
  double estimate() const;

  // Re-derives every sum/product/existential node from its children and
  // returns the recomputed root value. Bitwise-equal to estimate() by
  // construction; a mismatch means the trace no longer mirrors the
  // estimator's arithmetic.
  double Recompute() const;

  // Annotated tree rendering (one node per line, indented).
  std::string ToText() const;
  // Machine-readable form: nested {op, kind, label, twig_node, value,
  // buckets, conditioned, children} objects.
  std::string ToJson() const;

  // --- Recording interface (driven by the estimation executors) ---------
  void Clear();
  // Starts a node under the innermost open node (or as the root).
  void Open(ExplainOp op, std::string kind, std::string label,
            int twig_node = -1);
  // Finalizes the innermost open node with its computed value.
  void Close(double value);
  // Open + Close for terminal factors.
  void Leaf(std::string kind, std::string label, double value,
            int twig_node = -1);
  // Annotate the innermost open node (histogram enumeration details).
  void AnnotateBuckets(int buckets_read);
  void AnnotateConditioned(int dims);

 private:
  // The root lives in nodes_[0]; open_ holds the ancestor chain of the
  // node currently being recorded. Children are only ever appended to the
  // innermost open node, so the pointers stay valid (see Open()).
  std::vector<ExplainNode> nodes_;
  std::vector<ExplainNode*> open_;
};

}  // namespace xsketch::obs

#endif  // XSKETCH_OBS_EXPLAIN_H_
