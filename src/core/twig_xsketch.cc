#include "core/twig_xsketch.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/check.h"

namespace xsketch::core {

int NodeSummary::FindForwardDim(SynNodeId owner, SynNodeId to) const {
  for (size_t i = 0; i < scope.size(); ++i) {
    if (scope[i].forward && scope[i].from == owner && scope[i].to == to) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

int NodeSummary::FindBackwardDim(SynNodeId from, SynNodeId to) const {
  for (size_t i = 0; i < scope.size(); ++i) {
    if (!scope[i].forward && scope[i].from == from && scope[i].to == to) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

util::Status CoarsestOptions::Validate() const {
  if (initial_buckets < 1) {
    return util::Status::InvalidArgument(
        "initial_buckets must be >= 1 (got " +
        std::to_string(initial_buckets) + ")");
  }
  if (initial_value_buckets < 1) {
    return util::Status::InvalidArgument(
        "initial_value_buckets must be >= 1 (got " +
        std::to_string(initial_value_buckets) + ")");
  }
  if (max_initial_dims < 0) {
    return util::Status::InvalidArgument(
        "max_initial_dims must be >= 0 (got " +
        std::to_string(max_initial_dims) + ")");
  }
  return util::Status::OK();
}

TwigXSketch TwigXSketch::Coarsest(const xml::Document& doc,
                                  const CoarsestOptions& options) {
  const util::Status st = options.Validate();
  XS_CHECK_MSG(st.ok(), st.ToString().c_str());
  TwigXSketch sketch(Synopsis::LabelSplit(doc));
  sketch.summaries_.resize(sketch.synopsis_.node_count());
  for (SynNodeId n = 0; n < sketch.synopsis_.node_count(); ++n) {
    NodeSummary& s = sketch.summaries_[n];
    s.bucket_budget = options.initial_buckets;
    s.value_bucket_budget = options.initial_value_buckets;

    // Initial scope: forward counts to F-stable children (§5), largest
    // edges first, capped.
    std::vector<const SynEdge*> fstable;
    for (const SynEdge& e : sketch.synopsis_.node(n).children) {
      if (e.forward_stable) fstable.push_back(&e);
    }
    std::sort(fstable.begin(), fstable.end(),
              [](const SynEdge* a, const SynEdge* b) {
                return a->child_count > b->child_count;
              });
    const int dims = std::min<int>(options.max_initial_dims,
                                   static_cast<int>(fstable.size()));
    for (int d = 0; d < dims; ++d) {
      s.scope.push_back(CountRef{true, n, fstable[d]->child});
    }
    sketch.RebuildNodeHistogram(n);
    sketch.RebuildValueHistogram(n);
  }
  return sketch;
}

bool TwigXSketch::HasBackwardDims() const {
  for (const NodeSummary& s : summaries_) {
    for (const CountRef& r : s.scope) {
      if (!r.forward) return true;
    }
    // Joint value histograms condition on ancestor count assignments, so
    // they make estimation context-dependent exactly like backward dims
    // (the estimator uses this to decide whether subtrees are memoizable).
    if (!s.value_scope.empty()) return true;
  }
  return false;
}

void TwigXSketch::RebuildNodeHistogram(SynNodeId n) {
  NodeSummary& s = summaries_[n];
  const int dims = static_cast<int>(s.scope.size());
  if (dims == 0) {
    s.hist = hist::EdgeHistogram();
    return;
  }
  const xml::Document& doc = synopsis_.doc();
  hist::JointDistribution dist(dims);
  std::vector<uint32_t> point(dims);

  // Group forward dims by target so one pass over an element's children
  // fills all of them; backward dims walk to the nearest TSN ancestor.
  for (xml::NodeId e : synopsis_.Extent(n)) {
    std::fill(point.begin(), point.end(), 0u);
    for (int d = 0; d < dims; ++d) {
      const CountRef& ref = s.scope[d];
      if (ref.forward) {
        XS_CHECK(ref.from == n);
        uint32_t count = 0;
        doc.ForEachChild(e, [&](xml::NodeId c) {
          if (synopsis_.NodeOf(c) == ref.to) ++count;
        });
        point[d] = count;
      } else {
        const xml::NodeId anc = synopsis_.NearestAncestorIn(e, ref.from);
        if (anc == xml::kInvalidNode) {
          point[d] = 0;
        } else {
          uint32_t count = 0;
          doc.ForEachChild(anc, [&](xml::NodeId c) {
            if (synopsis_.NodeOf(c) == ref.to) ++count;
          });
          point[d] = count;
        }
      }
    }
    dist.Add(point);
  }
  s.hist = hist::EdgeHistogram::Build(dist, std::max(1, s.bucket_budget));
}

void TwigXSketch::RebuildValueHistogram(SynNodeId n) {
  NodeSummary& s = summaries_[n];
  const xml::Document& doc = synopsis_.doc();
  std::vector<int64_t> values;
  for (xml::NodeId e : synopsis_.Extent(n)) {
    auto v = doc.numeric_value(e);
    if (v.has_value()) values.push_back(*v);
  }
  s.values = hist::ValueHistogram::Build(std::move(values),
                                         std::max(1, s.value_bucket_budget));
}

SynNodeId TwigXSketch::SplitNode(SynNodeId v,
                                 const std::vector<xml::NodeId>& subset) {
  const SynNodeId fresh = synopsis_.SplitNode(v, subset);
  summaries_.resize(synopsis_.node_count());

  // The fresh node inherits v's budgets and scope shape.
  summaries_[fresh].bucket_budget = summaries_[v].bucket_budget;
  summaries_[fresh].value_bucket_budget = summaries_[v].value_bucket_budget;
  summaries_[fresh].scope = summaries_[v].scope;
  summaries_[fresh].value_scope = summaries_[v].value_scope;

  // Repair scopes across the sketch: any CountRef mentioning v may now
  // refer to v, fresh, or both (when the referenced edge exists to both
  // halves). Owner-side forward refs are retargeted to the owner itself.
  for (SynNodeId n = 0; n < synopsis_.node_count(); ++n) {
    NodeSummary& s = summaries_[n];
    std::vector<CountRef> repaired;
    bool changed = (n == fresh);
    for (CountRef ref : s.scope) {
      if (ref.forward) ref.from = n;  // owner may be the fresh node
      const bool mentions_v = (ref.from == v || ref.to == v);
      if (!mentions_v) {
        if (synopsis_.FindEdge(ref.from, ref.to) != nullptr &&
            (ref.forward || BackwardRefLegal(n, ref))) {
          repaired.push_back(ref);
        } else {
          changed = true;  // edge vanished (e.g. ancestor chain broke)
        }
        continue;
      }
      changed = true;
      // Try every (from, to) combination over {v, fresh} replacements.
      for (SynNodeId from :
           {ref.from == v ? fresh : ref.from, ref.from}) {
        for (SynNodeId to : {ref.to == v ? fresh : ref.to, ref.to}) {
          CountRef cand{ref.forward, from, to};
          if (cand.forward && from != n) continue;
          if (synopsis_.FindEdge(from, to) == nullptr) continue;
          if (!cand.forward && !BackwardRefLegal(n, cand)) continue;
          bool dup = false;
          for (const CountRef& r : repaired) {
            if (r == cand) dup = true;
          }
          if (!dup) repaired.push_back(cand);
        }
      }
    }
    if (changed || n == v) {
      s.scope = std::move(repaired);
      RebuildNodeHistogram(n);
      RebuildValueHistogram(n);
    }

    // Repair the joint value-histogram scope with the same rules: keep
    // refs whose edge survived, retarget refs that mentioned v.
    if (!s.value_scope.empty() || n == fresh) {
      bool vchanged = (n == fresh || n == v);
      std::vector<CountRef> vrepaired;
      for (CountRef ref : s.value_scope) {
        if (ref.from == n || (ref.from != v && ref.to != v)) {
          if (synopsis_.FindEdge(ref.from, ref.to) != nullptr) {
            vrepaired.push_back(ref);
            continue;
          }
          vchanged = true;
          continue;
        }
        vchanged = true;
        for (SynNodeId from : {ref.from == v ? fresh : ref.from, ref.from}) {
          for (SynNodeId to : {ref.to == v ? fresh : ref.to, ref.to}) {
            if (synopsis_.FindEdge(from, to) == nullptr) continue;
            if (from != n &&
                !BackwardRefLegal(n, CountRef{false, from, to})) {
              continue;
            }
            bool dup = false;
            for (const CountRef& r : vrepaired) {
              if (r.from == from && r.to == to) dup = true;
            }
            if (!dup) vrepaired.push_back(CountRef{ref.forward, from, to});
          }
        }
      }
      if (vchanged) {
        s.value_scope = std::move(vrepaired);
        RebuildJointValueHistogram(n);
      }
    }
  }
  return fresh;
}

bool TwigXSketch::BackwardRefLegal(SynNodeId n, const CountRef& ref) const {
  if (ref.forward) return true;
  if (synopsis_.FindEdge(ref.from, ref.to) == nullptr) return false;
  const std::vector<SynNodeId> tsn = synopsis_.TwigStableNeighborhood(n);
  return std::find(tsn.begin(), tsn.end(), ref.from) != tsn.end();
}

bool TwigXSketch::ExpandScope(SynNodeId n, const CountRef& ref) {
  NodeSummary& s = summaries_[n];
  for (const CountRef& r : s.scope) {
    if (r == ref) return false;
  }
  if (ref.forward) {
    if (ref.from != n) return false;
    if (synopsis_.FindEdge(n, ref.to) == nullptr) return false;
  } else {
    if (!BackwardRefLegal(n, ref)) return false;
  }
  s.scope.push_back(ref);
  RebuildNodeHistogram(n);
  return true;
}

bool TwigXSketch::ExpandValueScope(SynNodeId n, const CountRef& ref) {
  NodeSummary& s = summaries_[n];
  if (s.values.empty()) return false;  // no values to correlate
  for (const CountRef& r : s.value_scope) {
    if (r.from == ref.from && r.to == ref.to) return false;
  }
  if (synopsis_.FindEdge(ref.from, ref.to) == nullptr) return false;
  if (ref.from != n) {
    // The counting ancestor must be reachable from n via B-stable edges so
    // that every element of n resolves to an ancestor deterministically.
    CountRef backward{false, ref.from, ref.to};
    if (!BackwardRefLegal(n, backward)) return false;
  }
  s.value_scope.push_back(ref);
  RebuildJointValueHistogram(n);
  return true;
}

void TwigXSketch::RebuildJointValueHistogram(SynNodeId n) {
  NodeSummary& s = summaries_[n];
  if (s.value_scope.empty()) {
    s.joint_values = hist::EdgeHistogram();
    return;
  }
  const xml::Document& doc = synopsis_.doc();
  const int dims = 1 + static_cast<int>(s.value_scope.size());

  // Pass 1: value offset so values fit uint32 coordinates.
  int64_t min_value = 0;
  bool first = true;
  for (xml::NodeId e : synopsis_.Extent(n)) {
    auto v = doc.numeric_value(e);
    if (!v.has_value()) continue;
    if (first || *v < min_value) min_value = *v;
    first = false;
  }
  s.value_offset = min_value;

  hist::JointDistribution dist(dims);
  std::vector<uint32_t> point(dims);
  for (xml::NodeId e : synopsis_.Extent(n)) {
    auto v = doc.numeric_value(e);
    if (!v.has_value()) continue;
    const int64_t shifted = *v - s.value_offset;
    point[0] = static_cast<uint32_t>(
        std::min<int64_t>(shifted, std::numeric_limits<uint32_t>::max()));
    for (size_t d = 0; d < s.value_scope.size(); ++d) {
      const CountRef& ref = s.value_scope[d];
      xml::NodeId anchor =
          ref.from == n ? e : synopsis_.NearestAncestorIn(e, ref.from);
      uint32_t count = 0;
      if (anchor != xml::kInvalidNode) {
        doc.ForEachChild(anchor, [&](xml::NodeId c) {
          if (synopsis_.NodeOf(c) == ref.to) ++count;
        });
      }
      point[d + 1] = count;
    }
    dist.Add(point);
  }
  // Joint value histograms need enough resolution for both the value and
  // the count dimensions; scale the marginal budget up (the extra bytes
  // are charged against the synopsis budget).
  s.joint_values = hist::EdgeHistogram::Build(
      dist, std::max(4, s.value_bucket_budget * 4));
}

void TwigXSketch::RefineEdgeHistogram(SynNodeId n) {
  NodeSummary& s = summaries_[n];
  s.bucket_budget = std::max(1, s.bucket_budget) * 2;
  RebuildNodeHistogram(n);
}

void TwigXSketch::RefineValueHistogram(SynNodeId n) {
  NodeSummary& s = summaries_[n];
  s.value_bucket_budget = std::max(1, s.value_bucket_budget) * 2;
  RebuildValueHistogram(n);
  if (!s.value_scope.empty()) RebuildJointValueHistogram(n);
}

size_t TwigXSketch::SizeBytes() const {
  size_t total = synopsis_.StructureSizeBytes();
  for (const NodeSummary& s : summaries_) {
    total += s.scope.size() * 4;
    total += s.hist.SizeBytes();
    total += s.values.SizeBytes();
    total += s.value_scope.size() * 4;
    total += s.joint_values.SizeBytes();
  }
  return total;
}

}  // namespace xsketch::core
