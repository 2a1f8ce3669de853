#include "core/synopsis.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "util/check.h"

namespace xsketch::core {

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
    std::sort(n.children.begin(), n.children.end(),
              [](const SynEdge& a, const SynEdge& b) {
                return a.child < b.child;
              });
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

  RebuildEdges();
  RebuildTagIndex();
  return fresh;
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
