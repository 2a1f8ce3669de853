#include "plan/planner.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>
#include <unordered_map>

#include "util/check.h"

namespace xsketch::plan {

namespace {

using exec::BindingSkeleton;
using exec::JoinEdge;
using exec::MakeBindingSkeleton;
using query::Axis;
using query::TwigQuery;

// Most binding nodes the O(2^B) subset DP takes; wider twigs (far beyond
// workload twigs) fall back to the naive syntactic order.
constexpr int kMaxDpBindingNodes = 20;
static_assert(kMaxDpBindingNodes < 32, "subset masks are uint32_t");

std::string FormatRows(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

std::string TwigPlan::ToString() const {
  std::string s = use_holistic ? "holistic" : "binary";
  s += "[";
  for (size_t i = 0; i < order.size(); ++i) {
    if (i) s += " ";
    s += "(" + std::to_string(order[i].parent) + "<-" +
         std::to_string(order[i].child) + ")";
  }
  s += "] cost=" + FormatRows(binary_cost) +
       " result=" + FormatRows(result_estimate);
  if (!optimized) s += " naive";
  return s;
}

query::TwigQuery ExtractSubTwig(const TwigQuery& twig,
                                const std::vector<int>& subset,
                                std::vector<int>* node_map) {
  XS_CHECK_MSG(!subset.empty(), "ExtractSubTwig needs a non-empty subset");
  const BindingSkeleton skeleton = MakeBindingSkeleton(twig);
  std::vector<int> nodes = subset;
  std::sort(nodes.begin(), nodes.end());

  // Arena order puts parents before children, so the topmost subset node
  // (the unique one whose parent is outside the subset — the subset is
  // connected in the twig tree) is nodes[0].
  TwigQuery out;
  std::vector<int> map(twig.size(), -1);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const int t = nodes[i];
    XS_CHECK_MSG(!skeleton.effective_existential[t],
                 "subset nodes must be binding nodes");
    const TwigQuery::Node& n = twig.node(t);
    if (i == 0) {
      // Intermediate results are not anchored at the document root
      // unless the original root (with its original axis) is part of the
      // covered set.
      const Axis axis = (t == twig.root()) ? n.axis : Axis::kDescendant;
      map[t] = out.AddNode(TwigQuery::kNoParent, axis, n.tag, false, n.pred);
    } else {
      XS_CHECK_MSG(n.parent != TwigQuery::kNoParent && map[n.parent] >= 0,
                   "subset is not connected in the binding skeleton");
      map[t] = out.AddNode(map[n.parent], n.axis, n.tag, false, n.pred);
    }
  }

  // Existential subtrees filter their anchor's stream no matter which
  // join prefix is running (the executor applies them when materializing
  // binding streams), so they belong to every covering sub-twig.
  auto copy_subtree = [&](auto&& self, int t, int new_parent) -> void {
    const TwigQuery::Node& n = twig.node(t);
    const int id = out.AddNode(new_parent, n.axis, n.tag, true, n.pred);
    for (int c : n.children) self(self, c, id);
  };
  for (int t : nodes) {
    for (int c : twig.node(t).children) {
      if (skeleton.effective_existential[c]) {
        copy_subtree(copy_subtree, c, map[t]);
      }
    }
  }
  if (node_map != nullptr) *node_map = std::move(map);
  return out;
}

std::vector<JoinEdge> NaiveOrder(const TwigQuery& twig) {
  return MakeBindingSkeleton(twig).edges;
}

util::Result<TwigPlan> PlanTwig(const TwigQuery& twig,
                                const CardinalityProvider& cards,
                                const PlannerOptions& options) {
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  const BindingSkeleton skeleton = MakeBindingSkeleton(twig);
  const int B = static_cast<int>(skeleton.binding_nodes.size());

  // bit i of a subset mask <-> skeleton.binding_nodes[i].
  std::vector<int> bit_of(twig.size(), -1);
  for (int i = 0; i < B; ++i) bit_of[skeleton.binding_nodes[i]] = i;

  TwigPlan plan;

  // card(S), memoized per subset mask; clamped non-negative (providers
  // are estimates).
  std::unordered_map<uint32_t, double> card_memo;
  auto card = [&](uint32_t mask) -> util::Result<double> {
    if (auto it = card_memo.find(mask); it != card_memo.end()) {
      return it->second;
    }
    std::vector<int> subset;
    for (int i = 0; i < B; ++i) {
      if (mask & (uint32_t{1} << i)) subset.push_back(skeleton.binding_nodes[i]);
    }
    auto c = cards.Cardinality(ExtractSubTwig(twig, subset));
    if (!c.ok()) return c.status();
    const double v = std::max(0.0, c.value());
    card_memo.emplace(mask, v);
    return v;
  };

  // Per-node input streams (binary) and merged label streams (holistic),
  // both from the same provider so the comparison is apples to apples.
  for (int t : skeleton.binding_nodes) {
    auto c = cards.Cardinality(ExtractSubTwig(twig, {t}));
    if (!c.ok()) return c.status();
    plan.input_cost += std::max(0.0, c.value());
  }
  {
    std::vector<xml::TagId> tags;
    for (int t = 0; t < twig.size(); ++t) tags.push_back(twig.node(t).tag);
    std::sort(tags.begin(), tags.end());
    tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
    double merged = 0.0;
    for (xml::TagId tag : tags) {
      TwigQuery label_only;
      label_only.AddNode(TwigQuery::kNoParent, Axis::kDescendant, tag);
      auto c = cards.Cardinality(label_only);
      if (!c.ok()) return c.status();
      merged += std::max(0.0, c.value());
    }
    plan.holistic_cost = merged;
  }

  if (B == 1) {
    auto r = card(1u);
    if (!r.ok()) return r.status();
    plan.result_estimate = r.value();
    plan.optimized = true;
    // A single anchored stream scan beats a merged multi-label scan
    // whenever the twig has existential branches; model both and let the
    // comparison decide.
    plan.use_holistic = options.consider_holistic &&
                        plan.holistic_cost < plan.input_cost;
    return plan;
  }

  if (B > kMaxDpBindingNodes) {
    // Too wide for the exact DP: fall back to the syntactic order.
    plan.order = skeleton.edges;
    plan.optimized = false;
    auto r = cards.Cardinality(twig);
    if (!r.ok()) return r.status();
    plan.result_estimate = std::max(0.0, r.value());
    return plan;
  }

  // Subset DP over connected binding subsets. g[S] = min over connected
  // chains ending at S of sum(card(S_k), k = 2..|S|), S_k the chain's
  // prefix subsets. Masks are processed in ascending order, which is a
  // topological order for "add one bit"; ties break to the first-found
  // chain (strict improvement only), keeping plans deterministic.
  const uint32_t full = (uint32_t{1} << B) - 1;
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> g(full + 1, kInf);
  std::vector<uint32_t> prev(full + 1, 0);

  // Skeleton adjacency in bit space.
  std::vector<std::vector<int>> adj(B);
  for (const JoinEdge& e : skeleton.edges) {
    const int bp = bit_of[e.parent];
    const int bc = bit_of[e.child];
    XS_CHECK(bp >= 0 && bc >= 0);
    adj[bp].push_back(bc);
    adj[bc].push_back(bp);
  }

  for (const JoinEdge& e : skeleton.edges) {
    const uint32_t mask = (uint32_t{1} << bit_of[e.parent]) |
                          (uint32_t{1} << bit_of[e.child]);
    auto c = card(mask);
    if (!c.ok()) return c.status();
    if (c.value() < g[mask]) {
      g[mask] = c.value();
      prev[mask] = 0;
    }
  }

  for (uint32_t mask = 1; mask <= full; ++mask) {
    if (g[mask] == kInf) continue;
    if (mask == full) break;
    for (int u = 0; u < B; ++u) {
      if (!(mask & (uint32_t{1} << u))) continue;
      for (int v : adj[u]) {
        const uint32_t vbit = uint32_t{1} << v;
        if (mask & vbit) continue;
        const uint32_t next = mask | vbit;
        auto c = card(next);
        if (!c.ok()) return c.status();
        const double cand = g[mask] + c.value();
        if (cand < g[next]) {
          g[next] = cand;
          prev[next] = mask;
        }
      }
    }
  }
  XS_CHECK_MSG(g[full] != kInf, "binding skeleton is connected");

  {
    auto c = card(full);
    if (!c.ok()) return c.status();
    plan.result_estimate = c.value();
    plan.binary_cost = g[full] - c.value();
  }

  // Reconstruct the chain full -> ... -> seed pair, then emit edges in
  // execution order. Each added node has exactly one skeleton neighbor
  // in the previous subset (tree), which identifies the join edge.
  std::vector<uint32_t> chain;
  for (uint32_t m = full; m != 0; m = prev[m]) chain.push_back(m);
  std::reverse(chain.begin(), chain.end());

  auto edge_between = [&](int node_a, int node_b) -> JoinEdge {
    for (const JoinEdge& e : skeleton.edges) {
      if ((e.parent == node_a && e.child == node_b) ||
          (e.parent == node_b && e.child == node_a)) {
        return e;
      }
    }
    XS_CHECK_MSG(false, "no skeleton edge between subset neighbors");
    return {};
  };

  for (size_t i = 0; i < chain.size(); ++i) {
    const uint32_t mask = chain[i];
    plan.step_cards.push_back(card_memo.at(mask));
    if (i == 0) {
      // Seed pair: its unique connecting edge.
      int a = -1, b = -1;
      for (int j = 0; j < B; ++j) {
        if (!(mask & (uint32_t{1} << j))) continue;
        (a < 0 ? a : b) = j;
      }
      plan.order.push_back(edge_between(skeleton.binding_nodes[a],
                                        skeleton.binding_nodes[b]));
      continue;
    }
    const uint32_t added = mask ^ chain[i - 1];
    const int vb = std::countr_zero(added);
    const int v = skeleton.binding_nodes[vb];
    for (int ub : adj[vb]) {
      if (chain[i - 1] & (uint32_t{1} << ub)) {
        plan.order.push_back(edge_between(skeleton.binding_nodes[ub], v));
        break;
      }
    }
  }
  plan.optimized = true;

  const double binary_total =
      plan.input_cost + plan.binary_cost + plan.result_estimate;
  plan.use_holistic =
      options.consider_holistic && plan.holistic_cost < binary_total;
  return plan;
}

}  // namespace xsketch::plan
