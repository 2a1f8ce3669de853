// Twig XSKETCH synopses (paper Definition 3.1): a graph synopsis augmented
// with per-node multidimensional edge histograms and per-node value
// histograms.
//
// Each synopsis node n_i owns at most one edge histogram H_i whose
// dimensions ("scope") are forward counts (edges n_i → child) and backward
// counts (edges ancestor → z with the ancestor reachable from n_i through
// B-stable edges, per the twig stable neighborhood). Histograms are always
// re-derived from the document after structural changes — the document is
// available at construction time, exactly as in the paper's build setting.

#ifndef XSKETCH_CORE_TWIG_XSKETCH_H_
#define XSKETCH_CORE_TWIG_XSKETCH_H_

#include <cstdint>
#include <vector>

#include "core/synopsis.h"
#include "hist/edge_histogram.h"
#include "hist/value_histogram.h"
#include "util/status.h"

namespace xsketch::core {

// One histogram dimension: a synopsis edge, seen either as a forward count
// (from == owner node) or a backward count (from == an ancestor node).
struct CountRef {
  bool forward = true;
  SynNodeId from = kInvalidSynNode;
  SynNodeId to = kInvalidSynNode;

  bool operator==(const CountRef& o) const {
    return forward == o.forward && from == o.from && to == o.to;
  }
};

// Distribution information attached to one synopsis node.
struct NodeSummary {
  std::vector<CountRef> scope;   // dimensions of `hist`, in order
  hist::EdgeHistogram hist;
  int bucket_budget = 0;

  hist::ValueHistogram values;   // empty when no element carries a value
  int value_bucket_budget = 0;

  // Extended value histogram H^v(V, C1..Ck) (paper §3.2): the joint
  // distribution of the node's value with correlated edge counts. Dim 0 of
  // `joint_values` is the (offset) value; dims 1..k follow `value_scope`.
  // Present only after value-expand refinements; the 1-D `values` marginal
  // above is what the paper's prototype ships with.
  std::vector<CountRef> value_scope;
  hist::EdgeHistogram joint_values;
  int64_t value_offset = 0;  // subtracted to map values into uint32 coords

  // Index of the forward dimension for edge (owner → to), or -1.
  int FindForwardDim(SynNodeId owner, SynNodeId to) const;
  // Index of the backward dimension for edge (from → to), or -1.
  int FindBackwardDim(SynNodeId from, SynNodeId to) const;
};

struct CoarsestOptions {
  // Bucket budget of the initial 1-D edge histograms. Must be >= 1.
  int initial_buckets = 8;
  // Bucket budget of the initial value histograms. Must be >= 1.
  int initial_value_buckets = 4;
  // The initial histogram covers forward counts to F-stable children only,
  // and is single-dimensional (paper §5: "single-dimensional
  // edge-histograms that cover path counts to forward-stable children
  // only"); joint dimensions are added later by edge-expand. Raise this to
  // start from joint histograms (highest-count edges win); 0 starts with
  // no edge histograms at all (pure graph synopsis). Must be >= 0.
  int max_initial_dims = 1;

  // Rejects nonsensical configurations (zero/negative budgets or
  // dimension caps). Construction boundaries (Coarsest, XBuild) require
  // Validate().ok().
  util::Status Validate() const;
};

class TwigXSketch {
 public:
  // The coarsest synopsis (paper §5): label-split partition with edge
  // histograms over forward counts to F-stable children.
  static TwigXSketch Coarsest(const xml::Document& doc,
                              const CoarsestOptions& options = {});

  // Copyable (XBUILD scores candidate refinements on copies).
  TwigXSketch(const TwigXSketch&) = default;
  TwigXSketch& operator=(const TwigXSketch&) = default;
  TwigXSketch(TwigXSketch&&) = default;
  TwigXSketch& operator=(TwigXSketch&&) = default;

  const Synopsis& synopsis() const { return synopsis_; }
  const xml::Document& doc() const { return synopsis_.doc(); }

  const NodeSummary& summary(SynNodeId n) const { return summaries_[n]; }
  NodeSummary& mutable_summary(SynNodeId n) { return summaries_[n]; }

  // True if any node currently records backward counts; estimation uses
  // this to enable conditioning memoization.
  bool HasBackwardDims() const;

  // --- Mutation (refinement support) --------------------------------------

  // Splits synopsis node v (see Synopsis::SplitNode), then repairs and
  // rebuilds every summary whose scope referenced v. Returns the new node.
  // When `changed` is non-null, appends every node whose synopsis data or
  // summary the split may have changed: v, the new node, their parents
  // and children, and each node whose summary was rebuilt.
  SynNodeId SplitNode(SynNodeId v, const std::vector<xml::NodeId>& subset,
                      std::vector<SynNodeId>* changed = nullptr);

  // Adds a dimension to n's histogram and rebuilds it. The CountRef must
  // be legal: forward refs use edges out of n; backward refs use edges out
  // of a node in TSN(n) reached via B-stable edges. Returns false if the
  // dimension is already present or illegal.
  bool ExpandScope(SynNodeId n, const CountRef& ref);

  // Doubles the bucket budget of n's edge histogram and rebuilds.
  void RefineEdgeHistogram(SynNodeId n);
  // Doubles the bucket budget of n's value histogram and rebuilds.
  void RefineValueHistogram(SynNodeId n);

  // value-expand (paper §5): adds a count dimension to n's value summary,
  // turning it into (or extending) the joint H^v(V, C...) histogram. Legal
  // refs follow the same rules as ExpandScope, except that forward refs
  // additionally allow edges out of n's (unique, B-stable-reachable)
  // ancestors since a value node usually correlates with its *parent's*
  // structure (e.g. movie type with the movie's actor count). Returns
  // false if the node has no values, the dim exists, or the ref is
  // illegal.
  bool ExpandValueScope(SynNodeId n, const CountRef& ref);

  // Re-derives n's joint value histogram from the document.
  void RebuildJointValueHistogram(SynNodeId n);

  // Re-derives n's edge histogram from the document.
  void RebuildNodeHistogram(SynNodeId n);
  // Re-derives n's value histogram from the document.
  void RebuildValueHistogram(SynNodeId n);

  // Total storage footprint in bytes (structure + histograms + values).
  size_t SizeBytes() const;

 private:
  explicit TwigXSketch(Synopsis synopsis) : synopsis_(std::move(synopsis)) {}

  // Checks scope legality for backward refs.
  bool BackwardRefLegal(SynNodeId n, const CountRef& ref) const;

  Synopsis synopsis_;
  std::vector<NodeSummary> summaries_;  // indexed by SynNodeId
};

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_TWIG_XSKETCH_H_
