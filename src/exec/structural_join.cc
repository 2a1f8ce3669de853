#include "exec/structural_join.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_map>

#include "util/check.h"

namespace xsketch::exec {

namespace {

using query::Axis;
using query::TwigQuery;

uint64_t SatAdd(uint64_t a, uint64_t b) {
  const uint64_t s = a + b;
  return s < a ? std::numeric_limits<uint64_t>::max() : s;
}

// Sorted-start probe structure over one stream: range scans for
// descendant edges, level-bucketed range scans for child edges. Borrows
// the entry vector (must outlive the probe).
class ProbeIndex {
 public:
  explicit ProbeIndex(const std::vector<StreamEntry>& entries)
      : entries_(entries) {
    starts_.reserve(entries.size());
    uint32_t max_level = 0;
    for (const StreamEntry& e : entries) {
      starts_.push_back(e.start);  // entries are start-ordered
      max_level = std::max(max_level, e.level);
    }
    if (!entries.empty()) by_level_.resize(max_level + 1);
    for (uint32_t i = 0; i < entries.size(); ++i) {
      by_level_[entries[i].level].push_back(i);
    }
  }

  // Calls fn(entry) for every stream element in p's proper subtree.
  template <typename Fn>
  void ForEachDescendant(const StreamEntry& p, Fn&& fn) const {
    size_t i = std::upper_bound(starts_.begin(), starts_.end(), p.start) -
               starts_.begin();
    for (; i < starts_.size() && starts_[i] < p.end; ++i) fn(entries_[i]);
  }

  // Calls fn(entry) for every stream element that is a child of p: in
  // p's subtree at level p.level + 1 (an enclosed element one level down
  // is necessarily a direct child).
  template <typename Fn>
  void ForEachChild(const StreamEntry& p, Fn&& fn) const {
    const uint32_t lvl = p.level + 1;
    if (lvl >= by_level_.size()) return;
    const std::vector<uint32_t>& bucket = by_level_[lvl];
    size_t i = std::upper_bound(bucket.begin(), bucket.end(), p.start,
                                [&](uint32_t s, uint32_t idx) {
                                  return s < entries_[idx].start;
                                }) -
               bucket.begin();
    for (; i < bucket.size() && entries_[bucket[i]].start < p.end; ++i) {
      fn(entries_[bucket[i]]);
    }
  }

  bool HasMatch(const StreamEntry& p, Axis axis) const {
    if (axis == Axis::kDescendant) {
      const size_t i = std::upper_bound(starts_.begin(), starts_.end(),
                                        p.start) -
                       starts_.begin();
      return i < starts_.size() && starts_[i] < p.end;
    }
    bool found = false;
    ForEachChild(p, [&](const StreamEntry&) { found = true; });
    return found;
  }

 private:
  const std::vector<StreamEntry>& entries_;
  std::vector<uint32_t> starts_;
  std::vector<std::vector<uint32_t>> by_level_;
};

// Keeps only parents with at least one child/descendant in `children`.
void SemiJoinFilter(std::vector<StreamEntry>* parents,
                    const std::vector<StreamEntry>& children, Axis axis,
                    ExecStats* stats) {
  const ProbeIndex probe(children);
  std::erase_if(*parents, [&](const StreamEntry& p) {
    ++stats->semijoin_probes;
    return !probe.HasMatch(p, axis);
  });
}

// Elements satisfying the existential sub-twig rooted at `t`: the node's
// own (tag, predicate) stream semi-joined against every child's
// satisfying set, bottom-up.
std::vector<StreamEntry> SatisfyingSet(const StreamIndex& index,
                                       const TwigQuery& twig, int t,
                                       ExecStats* stats) {
  std::vector<StreamEntry> set = index.Stream(twig, t);
  for (int c : twig.node(t).children) {
    if (set.empty()) break;
    const std::vector<StreamEntry> child_set =
        SatisfyingSet(index, twig, c, stats);
    SemiJoinFilter(&set, child_set, twig.node(c).axis, stats);
  }
  return set;
}

// The binding input stream for skeleton node `t`: (tag, predicate)
// stream, root-anchored for a child-axis root, semi-join filtered by
// every existential child subtree.
std::vector<StreamEntry> BindingStream(const StreamIndex& index,
                                       const TwigQuery& twig,
                                       const BindingSkeleton& skeleton,
                                       int t, ExecStats* stats) {
  std::vector<StreamEntry> stream = index.Stream(twig, t);
  if (t == twig.root() && twig.node(t).axis == Axis::kChild) {
    // Absolute "/tag": only the document root element qualifies.
    std::erase_if(stream,
                  [](const StreamEntry& e) { return e.start != 0; });
  }
  for (int c : twig.node(t).children) {
    if (!skeleton.effective_existential[c]) continue;
    if (stream.empty()) break;
    const std::vector<StreamEntry> sat =
        SatisfyingSet(index, twig, c, stats);
    SemiJoinFilter(&stream, sat, twig.node(c).axis, stats);
  }
  return stream;
}

// Columnar intermediate relation with per-row multiplicities.
struct Relation {
  std::vector<int> cols;       // twig node ids, column order
  std::vector<uint32_t> rows;  // row-major, stride cols.size()
  std::vector<uint64_t> mult;  // one entry per row

  size_t NumRows() const { return mult.size(); }
  int ColIndex(int node) const {
    for (size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == node) return static_cast<int>(i);
    }
    return -1;
  }
};

// Projects `r` onto `keep` (a subset of r.cols, in r.cols order),
// merging duplicate rows by summing multiplicities. Row order is
// first-encounter order, so execution stays deterministic.
void ProjectAndAggregate(Relation* r, const std::vector<int>& keep) {
  if (keep.size() == r->cols.size()) return;
  std::vector<int> keep_idx;
  keep_idx.reserve(keep.size());
  for (int node : keep) {
    const int idx = r->ColIndex(node);
    XS_CHECK(idx >= 0);
    keep_idx.push_back(idx);
  }
  const size_t stride = r->cols.size();
  Relation out;
  out.cols = keep;
  std::unordered_map<std::string, size_t> seen;
  seen.reserve(r->NumRows());
  std::string key(keep.size() * sizeof(uint32_t), '\0');
  for (size_t row = 0; row < r->NumRows(); ++row) {
    const uint32_t* src = r->rows.data() + row * stride;
    for (size_t i = 0; i < keep_idx.size(); ++i) {
      std::memcpy(key.data() + i * sizeof(uint32_t), src + keep_idx[i],
                  sizeof(uint32_t));
    }
    auto [it, inserted] = seen.emplace(key, out.NumRows());
    if (inserted) {
      for (int idx : keep_idx) out.rows.push_back(src[idx]);
      out.mult.push_back(r->mult[row]);
    } else {
      out.mult[it->second] += r->mult[row];
    }
  }
  *r = std::move(out);
}

}  // namespace

BindingSkeleton MakeBindingSkeleton(const TwigQuery& twig) {
  BindingSkeleton sk;
  const int n = twig.size();
  sk.effective_existential.assign(n, 0);
  for (int t = 0; t < n; ++t) {
    const auto& node = twig.node(t);
    sk.effective_existential[t] =
        node.existential ||
        (node.parent != TwigQuery::kNoParent &&
         sk.effective_existential[node.parent]);
  }
  for (int t = 0; t < n; ++t) {
    if (!sk.effective_existential[t]) sk.binding_nodes.push_back(t);
  }
  for (int t : twig.DepthFirstOrder()) {
    if (sk.effective_existential[t] || t == twig.root()) continue;
    sk.edges.push_back({twig.node(t).parent, t});
  }
  return sk;
}

util::Result<ExecStats> StructuralJoinExecutor::ExecuteNaive(
    const TwigQuery& twig) const {
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  return ExecuteBinary(twig, MakeBindingSkeleton(twig).edges);
}

util::Result<ExecStats> StructuralJoinExecutor::ExecuteBinary(
    const TwigQuery& twig, std::span<const JoinEdge> order) const {
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  const BindingSkeleton skeleton = MakeBindingSkeleton(twig);

  // The order must be a permutation of the skeleton edges.
  if (order.size() != skeleton.edges.size()) {
    return util::Status::InvalidArgument(
        "join order has " + std::to_string(order.size()) + " edges, twig has " +
        std::to_string(skeleton.edges.size()));
  }
  auto sort_edges = [](std::vector<JoinEdge> v) {
    std::sort(v.begin(), v.end(), [](const JoinEdge& a, const JoinEdge& b) {
      return a.parent != b.parent ? a.parent < b.parent : a.child < b.child;
    });
    return v;
  };
  if (sort_edges({order.begin(), order.end()}) !=
      sort_edges(skeleton.edges)) {
    return util::Status::InvalidArgument(
        "join order is not a permutation of the twig's binding edges");
  }

  ExecStats stats;

  // Materialize every binding node's filtered input stream up front.
  std::vector<std::vector<StreamEntry>> streams(twig.size());
  for (int t : skeleton.binding_nodes) {
    streams[t] = BindingStream(index_, twig, skeleton, t, &stats);
    stats.input_rows += streams[t].size();
  }

  if (order.empty()) {
    // Single binding node: the anchored, filtered stream is the answer.
    stats.matches = static_cast<uint64_t>(streams[twig.root()].size());
    return stats;
  }

  std::vector<char> covered(twig.size(), 0);
  Relation rel;
  for (size_t j = 0; j < order.size(); ++j) {
    const JoinEdge edge = order[j];
    const bool last = (j + 1 == order.size());

    if (j == 0) {
      // Seed the relation with the first edge's parent stream.
      rel.cols = {edge.parent};
      rel.rows.reserve(streams[edge.parent].size());
      for (const StreamEntry& e : streams[edge.parent]) {
        rel.rows.push_back(e.node);
        rel.mult.push_back(1);
      }
      covered[edge.parent] = 1;
    }
    if (covered[edge.parent] == covered[edge.child]) {
      // Both covered is impossible for a tree permutation, so this is
      // the neither-covered case.
      return util::Status::InvalidArgument(
          "join order is disconnected at step " + std::to_string(j));
    }
    const bool downward = covered[edge.parent];  // attach the child side
    const int anchor = downward ? edge.parent : edge.child;
    const int added = downward ? edge.child : edge.parent;
    const Axis axis = twig.node(edge.child).axis;
    const int anchor_col = rel.ColIndex(anchor);
    XS_CHECK(anchor_col >= 0);
    const size_t stride = rel.cols.size();

    // Membership bitmap for upward joins (parent-pointer walks).
    std::vector<char> member;
    if (!downward) {
      member.assign(index_.doc().size(), 0);
      for (const StreamEntry& e : streams[added]) member[e.node] = 1;
    }
    const ProbeIndex probe(downward ? streams[added] : streams[anchor]);

    Relation out;
    out.cols = rel.cols;
    out.cols.push_back(added);
    uint64_t emitted = 0;
    uint64_t logical = 0;  // saturating sum of output multiplicities
    uint64_t wrapped = 0;  // wrapping sum: the final result
    util::Status overflow = util::Status::OK();
    auto emit = [&](const uint32_t* src, uint64_t m, xml::NodeId match) {
      ++emitted;
      logical = SatAdd(logical, m);
      wrapped += m;
      if (!last) {
        out.rows.insert(out.rows.end(), src, src + stride);
        out.rows.push_back(match);
        out.mult.push_back(m);
      }
    };
    for (size_t row = 0; row < rel.NumRows() && overflow.ok(); ++row) {
      const uint32_t* src = rel.rows.data() + row * stride;
      const xml::NodeId e = src[anchor_col];
      const uint64_t m = rel.mult[row];
      if (downward) {
        const StreamEntry pe = index_.Entry(e);
        if (axis == Axis::kChild) {
          probe.ForEachChild(pe, [&](const StreamEntry& c) {
            emit(src, m, c.node);
          });
        } else {
          probe.ForEachDescendant(pe, [&](const StreamEntry& c) {
            emit(src, m, c.node);
          });
        }
      } else if (axis == Axis::kChild) {
        const xml::NodeId p = index_.doc().parent(e);
        if (p != xml::kInvalidNode && member[p]) emit(src, m, p);
      } else {
        for (xml::NodeId p = index_.doc().parent(e); p != xml::kInvalidNode;
             p = index_.doc().parent(p)) {
          if (member[p]) emit(src, m, p);
        }
      }
      if (stats.emitted_rows + emitted > kMaxEmittedRows) {
        overflow = util::Status::OutOfRange(
            "structural join exceeded " + std::to_string(kMaxEmittedRows) +
            " emitted rows");
      }
    }
    if (!overflow.ok()) return overflow;

    ++stats.joins;
    stats.emitted_rows += emitted;
    if (!last) {
      stats.intermediate_rows += emitted;
      stats.logical_rows = SatAdd(stats.logical_rows, logical);
    }
    covered[added] = 1;

    if (last) {
      stats.matches = wrapped;
      return stats;
    }

    // Project away columns no future edge touches; multiplicities absorb
    // the dropped assignments.
    std::vector<char> needed(twig.size(), 0);
    for (size_t k = j + 1; k < order.size(); ++k) {
      needed[order[k].parent] = 1;
      needed[order[k].child] = 1;
    }
    std::vector<int> keep;
    for (int node : out.cols) {
      if (needed[node]) keep.push_back(node);
    }
    ProjectAndAggregate(&out, keep);
    rel = std::move(out);
  }
  XS_CHECK(false);  // unreachable: the loop returns at the last edge
  return stats;
}

}  // namespace xsketch::exec
