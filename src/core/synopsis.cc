#include "core/synopsis.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace xsketch::core {

namespace {

// Children lists are ordered by target node id.
bool ByChild(const SynEdge& a, const SynEdge& b) { return a.child < b.child; }

}  // namespace

Synopsis Synopsis::LabelSplit(const xml::Document& doc) {
  XS_CHECK_MSG(doc.sealed(), "synopsis requires a sealed document");
  Synopsis s;
  s.doc_ = &doc;
  s.partition_.resize(doc.size());
  s.nodes_.resize(doc.tag_count());
  s.extents_.resize(doc.tag_count());
  for (size_t tag = 0; tag < doc.tag_count(); ++tag) {
    s.nodes_[tag].tag = static_cast<xml::TagId>(tag);
  }
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const xml::TagId tag = doc.tag(e);
    s.partition_[e] = tag;
    s.extents_[tag].push_back(e);
  }
  for (size_t n = 0; n < s.nodes_.size(); ++n) {
    s.nodes_[n].count = s.extents_[n].size();
  }
  s.RebuildEdges();
  s.RebuildTagIndex();
  return s;
}

void Synopsis::RebuildEdges() {
  for (SynNode& n : nodes_) {
    n.children.clear();
    n.parents.clear();
  }
  // Pass 1: per (u, v) child counts; per (u, v) distinct-parent counts.
  // Iterate parents so each parent's children are grouped.
  std::unordered_map<uint64_t, SynEdge> edges;  // key = (u << 32) | v
  const xml::Document& doc = *doc_;
  std::unordered_set<uint64_t> seen_parent_edge;
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    const xml::NodeId parent = doc.parent(e);
    if (parent == xml::kInvalidNode) continue;
    const SynNodeId u = partition_[parent];
    const SynNodeId v = partition_[e];
    const uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    SynEdge& edge = edges[key];
    edge.child = v;
    ++edge.child_count;
    const uint64_t pkey = (static_cast<uint64_t>(parent) << 32) | v;
    if (seen_parent_edge.insert(pkey).second) ++edge.parent_count;
  }
  for (auto& [key, edge] : edges) {
    const SynNodeId u = static_cast<SynNodeId>(key >> 32);
    const SynNodeId v = edge.child;
    edge.backward_stable = (edge.child_count == nodes_[v].count);
    edge.forward_stable = (edge.parent_count == nodes_[u].count);
    nodes_[u].children.push_back(edge);
    nodes_[v].parents.push_back(u);
  }
  // Deterministic order helps reproducibility.
  for (SynNode& n : nodes_) {
    std::sort(n.children.begin(), n.children.end(), ByChild);
    std::sort(n.parents.begin(), n.parents.end());
  }
}

void Synopsis::RebuildTagIndex() {
  by_tag_.assign(doc_->tag_count(), {});
  for (SynNodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].count > 0) by_tag_[nodes_[n].tag].push_back(n);
  }
}

const std::vector<SynNodeId>& Synopsis::NodesWithTag(xml::TagId tag) const {
  static const std::vector<SynNodeId> kEmpty;
  if (tag >= by_tag_.size()) return kEmpty;
  return by_tag_[tag];
}

const SynEdge* Synopsis::FindEdge(SynNodeId u, SynNodeId v) const {
  for (const SynEdge& e : nodes_[u].children) {
    if (e.child == v) return &e;
  }
  return nullptr;
}

SynNodeId Synopsis::SplitNode(SynNodeId v,
                              const std::vector<xml::NodeId>& subset) {
  XS_CHECK(!subset.empty());
  XS_CHECK(subset.size() < extents_[v].size());
  const SynNodeId fresh = static_cast<SynNodeId>(nodes_.size());
  SynNode nn;
  nn.tag = nodes_[v].tag;
  nodes_.push_back(nn);
  extents_.emplace_back();

  for (xml::NodeId e : subset) {
    XS_CHECK_MSG(partition_[e] == v, "split subset not within node");
    partition_[e] = fresh;
  }
  // Re-derive both extents from the partition.
  std::vector<xml::NodeId> remaining;
  remaining.reserve(extents_[v].size() - subset.size());
  for (xml::NodeId e : extents_[v]) {
    if (partition_[e] == v) remaining.push_back(e);
  }
  extents_[fresh] = subset;
  std::sort(extents_[fresh].begin(), extents_[fresh].end());
  extents_[v] = std::move(remaining);
  nodes_[v].count = extents_[v].size();
  nodes_[fresh].count = extents_[fresh].size();

  RecountEdgesAround(v, fresh);
  // Tag index order is by node id and the fresh id is the largest.
  by_tag_[nodes_[v].tag].push_back(fresh);
  return fresh;
}

void Synopsis::RecountEdgesAround(SynNodeId v, SynNodeId fresh) {
  // Only edges incident to v or fresh can change: every other edge keeps
  // its endpoints' extents, so its counts and stability flags stand. Drop
  // v's edges from its neighbours' lists (fresh has none yet).
  for (SynNodeId p : nodes_[v].parents) {
    if (p == v) continue;
    std::vector<SynEdge>& children = nodes_[p].children;
    children.erase(std::remove_if(children.begin(), children.end(),
                                  [v](const SynEdge& e) {
                                    return e.child == v;
                                  }),
                   children.end());
  }
  for (const SynEdge& e : nodes_[v].children) {
    if (e.child == v) continue;
    std::vector<SynNodeId>& parents = nodes_[e.child].parents;
    parents.erase(std::remove(parents.begin(), parents.end(), v),
                  parents.end());
  }
  nodes_[v].children.clear();
  nodes_[v].parents.clear();

  const xml::Document& doc = *doc_;
  std::map<uint64_t, SynEdge> edges;  // key = (u << 32) | target
  auto edge = [&](SynNodeId u, SynNodeId target) -> SynEdge& {
    SynEdge& e = edges[(static_cast<uint64_t>(u) << 32) | target];
    e.child = target;
    return e;
  };
  // In-edges of v and fresh, self-edges between them included: per node,
  // the parent element of each element, sorted so that elements sharing
  // a parent form one run (document order mostly sorts them already).
  std::vector<xml::NodeId> parents;
  for (SynNodeId x : {v, fresh}) {
    parents.clear();
    for (xml::NodeId e : extents_[x]) {
      const xml::NodeId parent = doc.parent(e);
      if (parent != xml::kInvalidNode) parents.push_back(parent);
    }
    if (!std::is_sorted(parents.begin(), parents.end())) {
      std::sort(parents.begin(), parents.end());
    }
    for (size_t i = 0; i < parents.size();) {
      size_t run = i + 1;
      while (run < parents.size() && parents[run] == parents[i]) ++run;
      SynEdge& e = edge(partition_[parents[i]], x);
      e.child_count += run - i;
      ++e.parent_count;
      i = run;
    }
  }
  // Out-edges of v and fresh to every other node.
  std::vector<SynNodeId> seen;  // target nodes of the current element
  for (SynNodeId x : {v, fresh}) {
    for (xml::NodeId e : extents_[x]) {
      seen.clear();
      doc.ForEachChild(e, [&](xml::NodeId c) {
        const SynNodeId y = partition_[c];
        if (y == v || y == fresh) return;  // counted as an in-edge
        SynEdge& out = edge(x, y);
        ++out.child_count;
        if (std::find(seen.begin(), seen.end(), y) == seen.end()) {
          seen.push_back(y);
          ++out.parent_count;
        }
      });
    }
  }

  // Insert in order: the lists stay sorted as a full rebuild sorts them.
  for (auto& [key, e] : edges) {
    const SynNodeId u = static_cast<SynNodeId>(key >> 32);
    e.backward_stable = (e.child_count == nodes_[e.child].count);
    e.forward_stable = (e.parent_count == nodes_[u].count);
    std::vector<SynEdge>& children = nodes_[u].children;
    children.insert(std::upper_bound(children.begin(), children.end(), e,
                                     ByChild),
                    e);
    std::vector<SynNodeId>& parents = nodes_[e.child].parents;
    parents.insert(std::upper_bound(parents.begin(), parents.end(), u), u);
  }
}

std::vector<SynNodeId> Synopsis::TwigStableNeighborhood(SynNodeId n) const {
  std::vector<SynNodeId> result;
  std::unordered_set<SynNodeId> visited;
  // Backward closure over B-stable incoming edges.
  std::vector<SynNodeId> stack{n};
  visited.insert(n);
  while (!stack.empty()) {
    SynNodeId cur = stack.back();
    stack.pop_back();
    result.push_back(cur);
    for (SynNodeId p : nodes_[cur].parents) {
      const SynEdge* e = FindEdge(p, cur);
      if (e != nullptr && e->backward_stable && visited.insert(p).second) {
        stack.push_back(p);
      }
    }
  }
  // One F-stable hop from any node in the backward closure.
  const size_t backward_size = result.size();
  for (size_t i = 0; i < backward_size; ++i) {
    for (const SynEdge& e : nodes_[result[i]].children) {
      if (e.forward_stable && visited.insert(e.child).second) {
        result.push_back(e.child);
      }
    }
  }
  return result;
}

xml::NodeId Synopsis::NearestAncestorIn(xml::NodeId e, SynNodeId a) const {
  for (xml::NodeId cur = doc_->parent(e); cur != xml::kInvalidNode;
       cur = doc_->parent(cur)) {
    if (partition_[cur] == a) return cur;
  }
  return xml::kInvalidNode;
}

int Synopsis::UnstableDegree(SynNodeId n) const {
  int unstable = 0;
  for (const SynEdge& e : nodes_[n].children) {
    if (!e.backward_stable || !e.forward_stable) ++unstable;
  }
  for (SynNodeId p : nodes_[n].parents) {
    const SynEdge* e = FindEdge(p, n);
    if (e != nullptr && (!e->backward_stable || !e->forward_stable)) {
      ++unstable;
    }
  }
  return unstable;
}

size_t Synopsis::StructureSizeBytes() const {
  size_t edges = 0;
  for (const SynNode& n : nodes_) edges += n.children.size();
  return nodes_.size() * 8 + edges * 16;
}

}  // namespace xsketch::core
