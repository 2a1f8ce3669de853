#include "core/frozen.h"

#include <algorithm>

namespace xsketch::core {

// Owned backing storage for sketch-built instances. The public spans view
// these vectors; mapped instances (core/frozen_io.h) leave this null and
// view the image instead.
struct FrozenSynopsis::Owned {
  std::vector<xml::TagId> tag;
  std::vector<double> count;
  std::vector<uint32_t> edge_begin;
  std::vector<Edge> edges;

  std::vector<int32_t> hist_dims;
  std::vector<uint32_t> bucket_begin;
  std::vector<uint64_t> col_begin;
  std::vector<double> bucket_frac;
  std::vector<double> static_prob;
  std::vector<double> mean, lo_minus, hi_plus, inv_span;

  std::vector<uint32_t> fwd_begin, bwd_begin;
  std::vector<ForwardDim> fwd;
  std::vector<BackwardDim> bwd;

  std::vector<uint32_t> tag_begin;
  std::vector<SynNodeId> tag_nodes;

  std::vector<uint32_t> vbucket_begin;
  std::vector<ValueBucket> vbucket;
  std::vector<uint64_t> vtotal;
  std::vector<int64_t> voffset;
  std::vector<uint32_t> vscope_begin;
  std::vector<ValueRef> vscope;
  std::vector<int32_t> jdims;
  std::vector<uint32_t> jbucket_begin;
  std::vector<uint64_t> jcol_begin;
  std::vector<double> jfrac;
  std::vector<double> jlo_minus, jhi_plus, jmean;
};

FrozenSynopsis::FrozenSynopsis() = default;

FrozenSynopsis::~FrozenSynopsis() = default;

FrozenSynopsis::FrozenSynopsis(const TwigXSketch& sketch)
    : owned_(std::make_unique<Owned>()) {
  Owned& o = *owned_;
  const Synopsis& syn = sketch.synopsis();
  const uint32_t n_nodes = static_cast<uint32_t>(syn.node_count());
  root_node_ = syn.RootNode();
  doc_max_depth_ = sketch.doc().max_depth();
  doc_size_ = sketch.doc().size();
  has_backward_dims_ = sketch.HasBackwardDims();

  // Tag table: same ids as the document's interner, so queries parsed
  // against tags() bind identically. The frozen view owns its copy — the
  // sketch (and its document) are not referenced after construction.
  const util::StringInterner& doc_tags = sketch.doc().tags();
  for (uint32_t t = 0; t < doc_tags.size(); ++t) {
    const uint32_t id = tags_.Intern(doc_tags.Get(t));
    XS_CHECK(id == t);
  }

  o.tag.resize(n_nodes);
  o.count.resize(n_nodes);
  o.edge_begin.assign(n_nodes + 1, 0);
  o.hist_dims.assign(n_nodes, 0);
  o.bucket_begin.assign(n_nodes + 1, 0);
  o.col_begin.assign(n_nodes, 0);
  o.fwd_begin.assign(n_nodes + 1, 0);
  o.bwd_begin.assign(n_nodes + 1, 0);
  o.vbucket_begin.assign(n_nodes + 1, 0);
  o.vtotal.assign(n_nodes, 0);
  o.voffset.assign(n_nodes, 0);
  o.vscope_begin.assign(n_nodes + 1, 0);
  o.jdims.assign(n_nodes, 0);
  o.jbucket_begin.assign(n_nodes + 1, 0);
  o.jcol_begin.assign(n_nodes, 0);

  // Pass 1: sizes.
  size_t total_edges = 0, total_buckets = 0, total_cols = 0;
  size_t total_fwd = 0, total_bwd = 0;
  size_t total_vbuckets = 0, total_vscope = 0;
  size_t total_jbuckets = 0, total_jcols = 0;
  for (SynNodeId n = 0; n < n_nodes; ++n) {
    const SynNode& node = syn.node(n);
    const NodeSummary& s = sketch.summary(n);
    total_edges += node.children.size();
    total_buckets += s.hist.bucket_count();
    total_cols += static_cast<size_t>(s.hist.bucket_count()) *
                  static_cast<size_t>(std::max(0, s.hist.dims()));
    for (const CountRef& r : s.scope) {
      (r.forward ? total_fwd : total_bwd) += 1;
    }
    total_vbuckets += s.values.buckets().size();
    total_vscope += s.value_scope.size();
    total_jbuckets += s.joint_values.bucket_count();
    total_jcols += static_cast<size_t>(s.joint_values.bucket_count()) *
                   static_cast<size_t>(std::max(0, s.joint_values.dims()));
  }
  o.edges.reserve(total_edges);
  o.bucket_frac.reserve(total_buckets);
  o.static_prob.reserve(total_buckets);
  o.mean.reserve(total_cols);
  o.lo_minus.reserve(total_cols);
  o.hi_plus.reserve(total_cols);
  o.inv_span.reserve(total_cols);
  o.fwd.reserve(total_fwd);
  o.bwd.reserve(total_bwd);
  o.vbucket.reserve(total_vbuckets);
  o.vscope.reserve(total_vscope);
  o.jfrac.reserve(total_jbuckets);
  o.jlo_minus.reserve(total_jcols);
  o.jhi_plus.reserve(total_jcols);
  o.jmean.reserve(total_jcols);

  // Pass 2: fill. Every double here is produced by the exact expression
  // the reference estimator evaluates per query (see estimator.cc), so a
  // frozen read is bit-identical to an interpreted recomputation.
  for (SynNodeId n = 0; n < n_nodes; ++n) {
    const SynNode& node = syn.node(n);
    const NodeSummary& s = sketch.summary(n);
    o.tag[n] = node.tag;
    o.count[n] = static_cast<double>(node.count);

    o.edge_begin[n] = static_cast<uint32_t>(o.edges.size());
    for (const SynEdge& e : node.children) {
      Edge fe;
      fe.child = e.child;
      fe.child_tag = syn.node(e.child).tag;
      fe.avg = static_cast<double>(e.child_count) /
               static_cast<double>(node.count);
      fe.parent_zero = (e.parent_count == 0) ? 1 : 0;
      if (fe.parent_zero == 0) {
        fe.exist_frac = static_cast<double>(e.parent_count) /
                        static_cast<double>(node.count);
        fe.avg_given_exist = static_cast<double>(e.child_count) /
                             static_cast<double>(e.parent_count);
      }
      o.edges.push_back(fe);
    }

    o.hist_dims[n] = s.hist.dims();
    o.bucket_begin[n] = static_cast<uint32_t>(o.bucket_frac.size());
    o.col_begin[n] = o.mean.size();
    const auto& buckets = s.hist.buckets();
    const int dims = s.hist.dims();
    for (const auto& b : buckets) o.bucket_frac.push_back(b.fraction);
    // Column-major: dimension d's bounds/means for all buckets of n are
    // contiguous, so one conditioning pass is a unit-stride SIMD sweep.
    for (int d = 0; d < dims; ++d) {
      for (const auto& b : buckets) {
        const double lo = static_cast<double>(b.lo[d]) - 0.5;
        const double hi = static_cast<double>(b.hi[d]) + 0.5;
        o.lo_minus.push_back(lo);
        o.hi_plus.push_back(hi);
        o.inv_span.push_back(1.0 / (hi - lo));
        o.mean.push_back(b.mean[d]);
      }
    }

    // Static points: the unconditioned enumeration Condition({}) — what
    // every histogram read reduces to on sketches without backward
    // dimensions. Computed by the original histogram code so the stored
    // probabilities are bit-identical by construction.
    if (!s.hist.empty()) {
      const auto points = s.hist.Condition({});
      // Condition({}) keeps every bucket (fractions are positive by
      // construction) in bucket order.
      XS_CHECK(points.size() == buckets.size());
      for (const auto& p : points) o.static_prob.push_back(p.prob);
    }

    o.fwd_begin[n] = static_cast<uint32_t>(o.fwd.size());
    o.bwd_begin[n] = static_cast<uint32_t>(o.bwd.size());
    for (size_t d = 0; d < s.scope.size(); ++d) {
      const CountRef& r = s.scope[d];
      if (r.forward) {
        o.fwd.push_back(
            ForwardDim{static_cast<int32_t>(d), r.from, r.to});
      } else {
        o.bwd.push_back(
            BackwardDim{static_cast<int32_t>(d), r.from, r.to});
      }
    }

    // Value layer: the 1-D marginal, its joint extension, and the scope
    // mapping joint dimensions 1..k to context entries.
    o.vbucket_begin[n] = static_cast<uint32_t>(o.vbucket.size());
    for (const auto& b : s.values.buckets()) {
      o.vbucket.push_back(ValueBucket{b.lo, b.hi, b.count});
    }
    o.vtotal[n] = s.values.total_count();
    o.voffset[n] = s.value_offset;
    o.vscope_begin[n] = static_cast<uint32_t>(o.vscope.size());
    for (const CountRef& r : s.value_scope) {
      o.vscope.push_back(ValueRef{r.from, r.to});
    }
    o.jdims[n] = s.joint_values.dims();
    o.jbucket_begin[n] = static_cast<uint32_t>(o.jfrac.size());
    o.jcol_begin[n] = o.jmean.size();
    const auto& jbuckets = s.joint_values.buckets();
    for (const auto& b : jbuckets) o.jfrac.push_back(b.fraction);
    for (int d = 0; d < s.joint_values.dims(); ++d) {
      for (const auto& b : jbuckets) {
        o.jlo_minus.push_back(static_cast<double>(b.lo[d]) - 0.5);
        o.jhi_plus.push_back(static_cast<double>(b.hi[d]) + 0.5);
        o.jmean.push_back(b.mean[d]);
      }
    }
  }
  o.edge_begin[n_nodes] = static_cast<uint32_t>(o.edges.size());
  o.bucket_begin[n_nodes] = static_cast<uint32_t>(o.bucket_frac.size());
  o.fwd_begin[n_nodes] = static_cast<uint32_t>(o.fwd.size());
  o.bwd_begin[n_nodes] = static_cast<uint32_t>(o.bwd.size());
  o.vbucket_begin[n_nodes] = static_cast<uint32_t>(o.vbucket.size());
  o.vscope_begin[n_nodes] = static_cast<uint32_t>(o.vscope.size());
  o.jbucket_begin[n_nodes] = static_cast<uint32_t>(o.jfrac.size());

  // Tag index as CSR, preserving Synopsis::NodesWithTag order (root-
  // alternative enumeration order is part of the arithmetic contract).
  const size_t tag_count = sketch.doc().tag_count();
  o.tag_begin.assign(tag_count + 1, 0);
  for (size_t t = 0; t < tag_count; ++t) {
    o.tag_begin[t] = static_cast<uint32_t>(o.tag_nodes.size());
    const auto& nodes = syn.NodesWithTag(static_cast<xml::TagId>(t));
    o.tag_nodes.insert(o.tag_nodes.end(), nodes.begin(), nodes.end());
  }
  o.tag_begin[tag_count] = static_cast<uint32_t>(o.tag_nodes.size());

  // Attach the public views to the owned vectors.
  tag_ = o.tag;
  count_ = o.count;
  edge_begin_ = o.edge_begin;
  edges_ = o.edges;
  hist_dims_ = o.hist_dims;
  bucket_begin_ = o.bucket_begin;
  col_begin_ = o.col_begin;
  bucket_frac_ = o.bucket_frac;
  static_prob_ = o.static_prob;
  mean_ = o.mean;
  lo_minus_ = o.lo_minus;
  hi_plus_ = o.hi_plus;
  inv_span_ = o.inv_span;
  fwd_begin_ = o.fwd_begin;
  bwd_begin_ = o.bwd_begin;
  fwd_ = o.fwd;
  bwd_ = o.bwd;
  tag_begin_ = o.tag_begin;
  tag_nodes_ = o.tag_nodes;
  vbucket_begin_ = o.vbucket_begin;
  vbucket_ = o.vbucket;
  vtotal_ = o.vtotal;
  voffset_ = o.voffset;
  vscope_begin_ = o.vscope_begin;
  vscope_ = o.vscope;
  jdims_ = o.jdims;
  jbucket_begin_ = o.jbucket_begin;
  jcol_begin_ = o.jcol_begin;
  jfrac_ = o.jfrac;
  jlo_minus_ = o.jlo_minus;
  jhi_plus_ = o.jhi_plus;
  jmean_ = o.jmean;
}

const FrozenSynopsis::Edge* FrozenSynopsis::FindEdge(SynNodeId n,
                                                     SynNodeId child) const {
  for (const Edge* e = edges_begin(n); e != edges_end(n); ++e) {
    if (e->child == child) return e;
  }
  return nullptr;
}

int FrozenSynopsis::FindForwardDim(SynNodeId n, SynNodeId to) const {
  for (const ForwardDim* f = fwd_begin(n); f != fwd_end(n); ++f) {
    if (f->from == n && f->to == to) return f->dim;
  }
  return -1;
}

std::span<const SynNodeId> FrozenSynopsis::NodesWithTag(
    xml::TagId tag) const {
  if (static_cast<size_t>(tag) + 1 >= tag_begin_.size()) return {};
  return {tag_nodes_.data() + tag_begin_[tag],
          tag_nodes_.data() + tag_begin_[tag + 1]};
}

// Literal transcription of hist::ValueHistogram::EstimateFraction over
// the frozen buckets: identical operations in identical order, so the
// result is bit-identical to the original.
double FrozenSynopsis::ValueFraction(SynNodeId n, int64_t lo,
                                     int64_t hi) const {
  const uint32_t b0 = vbucket_begin_[n];
  const uint32_t b1 = vbucket_begin_[n + 1];
  if (b0 == b1 || lo > hi) return 0.0;
  double hits = 0.0;
  for (uint32_t i = b0; i < b1; ++i) {
    const ValueBucket& b = vbucket_[i];
    if (b.hi < lo || b.lo > hi) continue;
    const int64_t olo = std::max(lo, b.lo);
    const int64_t ohi = std::min(hi, b.hi);
    const double span = static_cast<double>(b.hi - b.lo) + 1.0;
    const double overlap = static_cast<double>(ohi - olo) + 1.0;
    hits += static_cast<double>(b.count) * (overlap / span);
  }
  XS_CHECK(vtotal_[n] > 0);
  return hits / static_cast<double>(vtotal_[n]);
}

// Literal transcription of hist::EdgeHistogram::ConditionalRangeFraction
// with dim = 0 (the value dimension) over the frozen joint columns. The
// box bounds were widened (-0.5/+0.5) at freeze time by the exact
// expressions the original evaluates per bucket; the division
// `w * overlap / (bhi - blo)` stays a division — not a reciprocal
// multiply — to preserve bit-identity.
double FrozenSynopsis::JointConditionalRangeFraction(
    SynNodeId n, double lo, double hi,
    const std::vector<std::pair<int, double>>& given) const {
  const int dims = jdims_[n];
  XS_CHECK(dims > 0);
  const uint32_t nb = jbucket_count(n);
  if (nb == 0 || lo > hi) return 0.0;
  const double* frac = jfrac_.data() + jbucket_begin_[n];

  double weight_sum = 0.0;
  std::vector<double> weights(nb, 0.0);
  for (uint32_t i = 0; i < nb; ++i) {
    double w = frac[i];
    for (const auto& [d, value] : given) {
      const double blo = jcolumn(jlo_minus_, n, d)[i];
      const double bhi = jcolumn(jhi_plus_, n, d)[i];
      if (value < blo || value > bhi) {
        w = 0.0;
        break;
      }
      w *= 1.0 / (bhi - blo);
    }
    weights[i] = w;
    weight_sum += w;
  }
  if (weight_sum <= 0.0) {
    for (uint32_t i = 0; i < nb; ++i) {
      double dist2 = 0.0;
      for (const auto& [d, value] : given) {
        const double diff = jcolumn(jmean_, n, d)[i] - value;
        dist2 += diff * diff;
      }
      weights[i] = frac[i] / (1.0 + dist2);
    }
  }

  const double* blo0 = jcolumn(jlo_minus_, n, 0);
  const double* bhi0 = jcolumn(jhi_plus_, n, 0);
  double total = 0.0;
  double inside = 0.0;
  for (uint32_t i = 0; i < nb; ++i) {
    const double w = weights[i];
    if (w <= 0.0) continue;
    const double blo = blo0[i];
    const double bhi = bhi0[i];
    const double olo = std::max(lo - 0.5, blo);
    const double ohi = std::min(hi + 0.5, bhi);
    const double overlap = std::max(0.0, ohi - olo);
    total += w;
    inside += w * overlap / (bhi - blo);
  }
  return total > 0.0 ? inside / total : 0.0;
}

util::Status FrozenSynopsis::MatchesDocument(const xml::Document& doc) const {
  if (doc_size_ != doc.size()) {
    return util::Status::InvalidArgument(
        "document element count does not match the sketch");
  }
  if (tags_.size() != doc.tag_count()) {
    return util::Status::InvalidArgument(
        "document tag table size does not match the sketch");
  }
  for (uint32_t t = 0; t < tags_.size(); ++t) {
    if (tags_.Get(t) != doc.tags().Get(t)) {
      return util::Status::InvalidArgument(
          "document tag table does not match the sketch");
    }
  }
  return util::Status::OK();
}

size_t FrozenSynopsis::SizeBytes() const {
  return tag_.size_bytes() + count_.size_bytes() + edge_begin_.size_bytes() +
         edges_.size_bytes() + hist_dims_.size_bytes() +
         bucket_begin_.size_bytes() + col_begin_.size_bytes() +
         bucket_frac_.size_bytes() + static_prob_.size_bytes() +
         mean_.size_bytes() + lo_minus_.size_bytes() + hi_plus_.size_bytes() +
         inv_span_.size_bytes() + fwd_begin_.size_bytes() +
         bwd_begin_.size_bytes() + fwd_.size_bytes() + bwd_.size_bytes() +
         tag_begin_.size_bytes() + tag_nodes_.size_bytes() +
         vbucket_begin_.size_bytes() + vbucket_.size_bytes() +
         vtotal_.size_bytes() + voffset_.size_bytes() +
         vscope_begin_.size_bytes() + vscope_.size_bytes() +
         jdims_.size_bytes() + jbucket_begin_.size_bytes() +
         jcol_begin_.size_bytes() + jfrac_.size_bytes() +
         jlo_minus_.size_bytes() + jhi_plus_.size_bytes() +
         jmean_.size_bytes();
}

}  // namespace xsketch::core
