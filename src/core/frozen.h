// FrozenSynopsis: a CSR-encoded, structure-of-arrays snapshot of a
// TwigXSketch, built once and shared by every compiled twig program.
//
// The reference estimator walks pointer-y structures per query: synopsis
// nodes own vectors of edges, histograms own vectors of buckets that own
// vectors of bounds/means, and every ConditionedPoints call allocates a
// fresh vector<WeightedPoint>. The frozen view flattens all of it into
// contiguous arrays indexed by synopsis-node id:
//
//   * nodes/edges      CSR adjacency with the per-edge Forward-Uniformity
//                      quantities (avg fanout, existence fraction, fanout
//                      given existence) pre-divided, exactly as the
//                      estimator would divide them at query time.
//   * histograms       bucket fractions plus column-major per-dimension
//                      bounds/means/reciprocal-spans, so one conditioning
//                      pass over a dimension is a unit-stride sweep the
//                      SIMD kernels in util/simd.h can vectorize.
//   * static points    the result of Condition({}) per node, precomputed:
//                      on sketches without backward dimensions every
//                      histogram enumeration in TREEPARSE conditions on
//                      nothing, so the whole WeightedPoint set is a slice
//                      of frozen memory instead of a per-call allocation.
//   * scopes           forward dimensions (context pushes) and backward
//                      dimensions (D-term conditioning) as flat CSR lists.
//   * value layer      per-node 1-D value-histogram buckets, value scopes,
//                      and joint H^v(V, C...) histograms in the same
//                      column-major shape, so value-predicate fractions
//                      (static and context-conditioned) evaluate from
//                      frozen memory with no reference back to the sketch.
//   * tag table        the document's tag-name interner, copied in, so a
//                      frozen view parses queries on its own.
//
// Bit-identity: every precomputed double is produced by the same IEEE-754
// operation the estimator performs at query time (the same division, the
// same -0.5/+0.5 box widening, the same 1.0/span reciprocal), and the
// value-layer evaluators below are literal transcriptions of the hist::
// code, so reading/evaluating the frozen form is indistinguishable from
// the reference interpreter.
//
// Storage: every array is a std::span view. A FrozenSynopsis built from a
// TwigXSketch owns its arrays (and is independent of the sketch from then
// on); one loaded from an XSK3 image (core/frozen_io.h) points straight
// into the mapped bytes and pins them via a keepalive handle — compiled
// programs hold the FrozenSynopsis via shared_ptr, so in-flight queries
// pin their storage snapshot through catalog evictions and hot swaps.

#ifndef XSKETCH_CORE_FROZEN_H_
#define XSKETCH_CORE_FROZEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/twig_xsketch.h"
#include "util/check.h"
#include "util/status.h"
#include "util/string_interner.h"

namespace xsketch::core {

class FrozenSynopsis {
 public:
  // Snapshots `sketch` into owned arrays. The sketch is not referenced
  // after construction.
  explicit FrozenSynopsis(const TwigXSketch& sketch);

  ~FrozenSynopsis();  // out-of-line: Owned is incomplete here

  FrozenSynopsis(const FrozenSynopsis&) = delete;
  FrozenSynopsis& operator=(const FrozenSynopsis&) = delete;

  // --- structure ---------------------------------------------------------
  uint32_t node_count() const { return static_cast<uint32_t>(tag_.size()); }
  xml::TagId tag(SynNodeId n) const { return tag_[n]; }
  double count(SynNodeId n) const { return count_[n]; }
  SynNodeId root_node() const { return root_node_; }
  uint32_t doc_max_depth() const { return doc_max_depth_; }
  uint64_t doc_size() const { return doc_size_; }
  bool has_backward_dims() const { return has_backward_dims_; }

  // The source document's tag table, frozen in: ids match the document's
  // TagIds, so queries parsed against this interner bind to the same tags.
  const util::StringInterner& tags() const { return tags_; }

  // OK iff this synopsis summarizes `doc`: the same element count and the
  // same tag table. Callers that run a sketch's queries on a document too
  // (exact audits, join execution) check this first.
  util::Status MatchesDocument(const xml::Document& doc) const;

  struct Edge {
    SynNodeId child = kInvalidSynNode;
    xml::TagId child_tag = 0;
    // Forward Uniformity: |u→v| / |u|, pre-divided.
    double avg = 0.0;
    // Existential split on uncovered edges: parent_count / |u| and
    // child_count / parent_count (0 when parent_count == 0; the
    // parent_zero flag keeps the estimator's explicit zero branch).
    double exist_frac = 0.0;
    double avg_given_exist = 0.0;
    uint8_t parent_zero = 0;  // 0 or 1 (byte-stable for XSK3)
    uint8_t pad[7] = {};      // explicit padding: files are deterministic
  };
  static_assert(sizeof(Edge) == 40, "Edge layout is part of XSK3");
  // Outgoing edges of n, in the synopsis's edge order.
  const Edge* edges_begin(SynNodeId n) const {
    return edges_.data() + edge_begin_[n];
  }
  const Edge* edges_end(SynNodeId n) const {
    return edges_.data() + edge_begin_[n + 1];
  }
  // The edge n→child, or nullptr (linear scan, compile-time only).
  const Edge* FindEdge(SynNodeId n, SynNodeId child) const;

  // Synopsis nodes carrying `tag`, in Synopsis::NodesWithTag order.
  std::span<const SynNodeId> NodesWithTag(xml::TagId tag) const;

  // --- histograms --------------------------------------------------------
  int hist_dims(SynNodeId n) const { return hist_dims_[n]; }
  bool hist_empty(SynNodeId n) const {
    return bucket_begin_[n] == bucket_begin_[n + 1];
  }
  uint32_t bucket_count(SynNodeId n) const {
    return bucket_begin_[n + 1] - bucket_begin_[n];
  }
  // Bucket fractions of n (parallel to the bucket range).
  const double* fractions(SynNodeId n) const {
    return bucket_frac_.data() + bucket_begin_[n];
  }
  // Condition({}) probabilities of n, precomputed at freeze time.
  const double* static_probs(SynNodeId n) const {
    return static_prob_.data() + bucket_begin_[n];
  }
  // Column-major per-dimension bucket data: element b of the returned
  // pointer is bucket b's value for dimension `d` of node n.
  const double* means(SynNodeId n, int d) const { return column(mean_, n, d); }
  const double* lo_minus(SynNodeId n, int d) const {
    return column(lo_minus_, n, d);
  }
  const double* hi_plus(SynNodeId n, int d) const {
    return column(hi_plus_, n, d);
  }
  const double* inv_span(SynNodeId n, int d) const {
    return column(inv_span_, n, d);
  }

  // --- scopes ------------------------------------------------------------
  struct ForwardDim {
    int32_t dim = 0;  // index into the node's histogram dimensions
    SynNodeId from = kInvalidSynNode;
    SynNodeId to = kInvalidSynNode;
  };
  static_assert(sizeof(ForwardDim) == 12, "ForwardDim is part of XSK3");
  struct BackwardDim {
    int32_t dim = 0;
    SynNodeId from = kInvalidSynNode;
    SynNodeId to = kInvalidSynNode;
  };
  static_assert(sizeof(BackwardDim) == 12, "BackwardDim is part of XSK3");
  // Forward scope dimensions of n (the context pushes), in scope order.
  const ForwardDim* fwd_begin(SynNodeId n) const {
    return fwd_.data() + fwd_begin_[n];
  }
  const ForwardDim* fwd_end(SynNodeId n) const {
    return fwd_.data() + fwd_begin_[n + 1];
  }
  // Backward scope dimensions of n (the D-term conditioning), scope order.
  const BackwardDim* bwd_begin(SynNodeId n) const {
    return bwd_.data() + bwd_begin_[n];
  }
  const BackwardDim* bwd_end(SynNodeId n) const {
    return bwd_.data() + bwd_begin_[n + 1];
  }
  bool has_bwd(SynNodeId n) const {
    return bwd_begin_[n] != bwd_begin_[n + 1];
  }
  // The forward dimension index for edge n→to, or -1 (compile-time only).
  int FindForwardDim(SynNodeId n, SynNodeId to) const;

  // --- value layer -------------------------------------------------------
  struct ValueBucket {
    int64_t lo = 0;
    int64_t hi = 0;  // inclusive
    uint64_t count = 0;
  };
  static_assert(sizeof(ValueBucket) == 24, "ValueBucket is part of XSK3");
  struct ValueRef {  // one joint-histogram conditioning dimension
    SynNodeId from = kInvalidSynNode;
    SynNodeId to = kInvalidSynNode;
  };
  static_assert(sizeof(ValueRef) == 8, "ValueRef is part of XSK3");

  // True iff some element of n carries a value (the 1-D value histogram is
  // non-empty).
  bool node_has_values(SynNodeId n) const {
    return vbucket_begin_[n] != vbucket_begin_[n + 1];
  }
  int64_t value_offset(SynNodeId n) const { return voffset_[n]; }
  // hist::ValueHistogram::EstimateFraction over the frozen buckets:
  // fraction of n's values in [lo, hi], bit-identical to the original.
  double ValueFraction(SynNodeId n, int64_t lo, int64_t hi) const;

  // The joint H^v(V, C...) conditioning dimensions of n, in scope order
  // (joint dimension d+1 corresponds to element d here; dimension 0 is
  // the value itself).
  std::span<const ValueRef> value_scope(SynNodeId n) const {
    return {vscope_.data() + vscope_begin_[n],
            vscope_.data() + vscope_begin_[n + 1]};
  }
  bool has_joint_values(SynNodeId n) const {
    return vscope_begin_[n] != vscope_begin_[n + 1] &&
           jbucket_begin_[n] != jbucket_begin_[n + 1];
  }
  // hist::EdgeHistogram::ConditionalRangeFraction(0, lo, hi, given) over
  // the frozen joint columns, bit-identical to the original. `given`
  // pairs are (joint dimension index, conditioned value) with indices in
  // [1, 1 + value_scope(n).size()).
  double JointConditionalRangeFraction(
      SynNodeId n, double lo, double hi,
      const std::vector<std::pair<int, double>>& given) const;

  // Total frozen footprint in bytes (diagnostics; for mapped instances
  // this is the portion of the image the arrays occupy).
  size_t SizeBytes() const;

 private:
  friend class Xsk3Codec;  // frozen_io.cc: serializes / attaches views

  // Xsk3Codec attaches views post-hoc. Out-of-line like the destructor:
  // the defaulted body needs Owned complete.
  FrozenSynopsis();

  const double* column(std::span<const double> arr, SynNodeId n,
                       int d) const {
    return arr.data() + col_begin_[n] +
           static_cast<size_t>(d) * bucket_count(n);
  }
  uint32_t jbucket_count(SynNodeId n) const {
    return jbucket_begin_[n + 1] - jbucket_begin_[n];
  }
  const double* jcolumn(std::span<const double> arr, SynNodeId n,
                        int d) const {
    return arr.data() + jcol_begin_[n] +
           static_cast<size_t>(d) * jbucket_count(n);
  }

  SynNodeId root_node_ = kInvalidSynNode;
  uint32_t doc_max_depth_ = 0;
  uint64_t doc_size_ = 0;
  bool has_backward_dims_ = false;
  util::StringInterner tags_;

  // Views over either `owned_` (frozen from a sketch) or an external XSK3
  // image (kept alive by `backing_`).
  std::span<const xml::TagId> tag_;
  std::span<const double> count_;
  std::span<const uint32_t> edge_begin_;  // node_count + 1
  std::span<const Edge> edges_;

  std::span<const int32_t> hist_dims_;
  std::span<const uint32_t> bucket_begin_;  // node_count + 1, bucket CSR
  std::span<const uint64_t> col_begin_;     // node_count, into column arrays
  std::span<const double> bucket_frac_;
  std::span<const double> static_prob_;
  std::span<const double> mean_, lo_minus_, hi_plus_, inv_span_;

  std::span<const uint32_t> fwd_begin_, bwd_begin_;  // node_count + 1
  std::span<const ForwardDim> fwd_;
  std::span<const BackwardDim> bwd_;

  std::span<const uint32_t> tag_begin_;  // tag_count + 1, tag-index CSR
  std::span<const SynNodeId> tag_nodes_;

  std::span<const uint32_t> vbucket_begin_;  // node_count + 1
  std::span<const ValueBucket> vbucket_;
  std::span<const uint64_t> vtotal_;  // node_count
  std::span<const int64_t> voffset_;  // node_count
  std::span<const uint32_t> vscope_begin_;  // node_count + 1
  std::span<const ValueRef> vscope_;
  std::span<const int32_t> jdims_;           // node_count
  std::span<const uint32_t> jbucket_begin_;  // node_count + 1
  std::span<const uint64_t> jcol_begin_;     // node_count
  std::span<const double> jfrac_;
  std::span<const double> jlo_minus_, jhi_plus_, jmean_;

  // Owned storage for sketch-built instances (null when mapped).
  struct Owned;
  std::unique_ptr<Owned> owned_;
  // Keepalive for mapped instances: the mmap (or byte buffer) every span
  // points into.
  std::shared_ptr<const void> backing_;
};

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_FROZEN_H_
