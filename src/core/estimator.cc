#include "core/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "query/xpath_parser.h"
#include "util/check.h"

namespace xsketch::core {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

uint64_t MemoKey(int t, SynNodeId n) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) | n;
}

}  // namespace

util::Status EstimatorOptions::Validate() const {
  if (max_descendant_paths < 1) {
    return util::Status::InvalidArgument(
        "max_descendant_paths must be >= 1 (got " +
        std::to_string(max_descendant_paths) + ")");
  }
  if (max_path_length < 0) {
    return util::Status::InvalidArgument(
        "max_path_length must be >= 0 (got " +
        std::to_string(max_path_length) + ")");
  }
  return util::Status::OK();
}

DescendantPathCache::DescendantPathCache()
    : lookups_("xsketch_path_cache_lookups_total",
               "'//'-expansion cache lookups across all estimators"),
      hits_("xsketch_path_cache_hits_total",
            "'//'-expansion cache hits across all estimators") {}

const DescendantPathCache::Paths* DescendantPathCache::Find(
    uint64_t key) const {
  // The lookup is recorded before the hit is published with release order
  // (see counters() for why), so hits can never be observed > lookups.
  lookups_.Increment();
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it == s.map.end()) return nullptr;
  hits_.Increment();
  return it->second.get();
}

const DescendantPathCache::Paths& DescendantPathCache::Insert(
    uint64_t key, Paths paths) const {
  Shard& s = shard(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto [pos, inserted] =
      s.map.try_emplace(key, std::make_unique<const Paths>(std::move(paths)));
  (void)inserted;  // losing the race is fine: both threads computed the
                   // same deterministic expansion
  return *pos->second;
}

Estimator::Estimator(const TwigXSketch& sketch,
                     const EstimatorOptions& options)
    : sketch_(sketch), options_(options) {
  const util::Status st = options_.Validate();
  XS_CHECK_MSG(st.ok(), st.ToString().c_str());
  path_length_cap_ =
      options_.max_path_length > 0
          ? options_.max_path_length
          : static_cast<int>(sketch_.doc().max_depth()) + 1;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metrics_.queries = &reg.GetCounter("xsketch_estimator_queries_total",
                                     "twig queries estimated");
  metrics_.rejected =
      &reg.GetCounter("xsketch_estimator_rejected_queries_total",
                      "malformed twigs rejected by EstimateChecked");
  metrics_.covered_terms =
      &reg.GetCounter("xsketch_estimator_covered_terms_total",
                      "E_i terms: fanouts read from histogram buckets");
  metrics_.uniformity_terms =
      &reg.GetCounter("xsketch_estimator_uniformity_terms_total",
                      "U_i terms: Forward Uniformity fallbacks");
  metrics_.conditioned_nodes =
      &reg.GetCounter("xsketch_estimator_conditioned_nodes_total",
                      "D_i terms: Correlation Scope conditionings");
  metrics_.value_fractions =
      &reg.GetCounter("xsketch_estimator_value_fractions_total",
                      "value-predicate fractions applied");
  metrics_.existential_terms =
      &reg.GetCounter("xsketch_estimator_existential_terms_total",
                      "branching-predicate factors");
  metrics_.descendant_chains =
      &reg.GetCounter("xsketch_estimator_descendant_chains_total",
                      "'//' expansion alternatives evaluated");
}

double Estimator::Estimate(const query::TwigQuery& twig) const {
  return EstimateImpl(twig, nullptr, nullptr);
}

EstimateStats Estimator::EstimateWithStats(
    const query::TwigQuery& twig) const {
  EstimateStats stats;
  stats.estimate = EstimateImpl(twig, &stats, nullptr);
  return stats;
}

EstimateStats Estimator::EstimateWithTrace(const query::TwigQuery& twig,
                                           obs::ExplainTrace* trace) const {
  if (trace != nullptr) trace->Clear();
  EstimateStats stats;
  stats.estimate = EstimateImpl(twig, &stats, trace);
  return stats;
}

double Estimator::EstimateWithReads(const query::TwigQuery& twig,
                                    std::vector<SynNodeId>* reads) const {
  reads->clear();
  const double estimate = EstimateImpl(twig, nullptr, nullptr, reads);
  std::sort(reads->begin(), reads->end());
  reads->erase(std::unique(reads->begin(), reads->end()), reads->end());
  return estimate;
}

util::Result<EstimateStats> Estimator::EstimateChecked(
    const query::TwigQuery& twig) const {
  if (util::Status st = twig.Validate(); !st.ok()) {
    metrics_.rejected->Increment();
    return st;
  }
  return EstimateWithStats(twig);
}

std::string Estimator::SynLabel(SynNodeId n) const {
  const Synopsis& syn = sketch_.synopsis();
  return sketch_.doc().tags().Get(syn.node(n).tag) + "#" +
         std::to_string(n);
}

std::string Estimator::ChainLabel(SynNodeId from,
                                  const std::vector<SynNodeId>& chain) const {
  std::string out = SynLabel(from);
  for (SynNodeId n : chain) out += "/" + SynLabel(n);
  return out;
}

double Estimator::EstimateImpl(const query::TwigQuery& twig,
                               EstimateStats* stats,
                               obs::ExplainTrace* trace,
                               std::vector<SynNodeId>* reads) const {
  metrics_.queries->Increment();
  if (twig.empty()) return 0.0;
  const auto& root = twig.node(twig.root());
  if (root.tag == query::kUnknownTag) return 0.0;

  EvalState state;
  state.twig = &twig;
  state.stats = stats;
  state.trace = trace;
  state.reads = reads;
  state.enumerate_all = sketch_.HasBackwardDims();
  state.memo_enabled =
      !state.enumerate_all && stats == nullptr && trace == nullptr;

  obs::ExplainTrace* tr = trace;
  const std::string& root_tag = sketch_.doc().tags().Get(root.tag);
  if (tr != nullptr) {
    // Outer node: final clamp to >= 0; inner node: the sum over extents.
    tr->Open(obs::ExplainOp::kOpaque, "query",
             (root.axis == query::Axis::kChild ? "/" : "//") + root_tag,
             twig.root());
    tr->Open(obs::ExplainOp::kSum, "extents",
             "root alternatives of " + root_tag, twig.root());
  }

  const Synopsis& syn = sketch_.synopsis();
  double total = 0.0;
  if (root.axis == query::Axis::kChild) {
    // Absolute '/tag': only the document root element can match.
    const SynNodeId n0 = syn.RootNode();
    state.Read(n0);
    if (syn.node(n0).tag == root.tag) {
      if (tr != nullptr) {
        tr->Open(obs::ExplainOp::kProduct, "extent",
                 "document root " + SynLabel(n0), twig.root());
      }
      const double vf = ValueFraction(n0, twig.root(), state);
      const double sub = EvalSubtree(n0, twig.root(), state);
      total = vf * sub;
      if (tr != nullptr) tr->Close(total);
    }
  } else {
    for (SynNodeId n : syn.NodesWithTag(root.tag)) {
      state.Read(n);
      const double count = static_cast<double>(syn.node(n).count);
      if (tr != nullptr) {
        tr->Open(obs::ExplainOp::kProduct, "extent",
                 "extent " + SynLabel(n), twig.root());
        tr->Leaf("n", "|" + SynLabel(n) + "|", count, twig.root());
      }
      const double vf = ValueFraction(n, twig.root(), state);
      const double sub = EvalSubtree(n, twig.root(), state);
      const double term = count * vf * sub;
      if (tr != nullptr) tr->Close(term);
      total += term;
    }
  }
  const double result = std::max(0.0, total);
  if (tr != nullptr) {
    tr->Close(total);
    tr->Close(result);
  }
  if (stats != nullptr) {
    // Mirror the per-call term counts into the process-wide registry.
    metrics_.covered_terms->Increment(
        static_cast<uint64_t>(stats->covered_terms));
    metrics_.uniformity_terms->Increment(
        static_cast<uint64_t>(stats->uniformity_terms));
    metrics_.conditioned_nodes->Increment(
        static_cast<uint64_t>(stats->conditioned_nodes));
    metrics_.value_fractions->Increment(
        static_cast<uint64_t>(stats->value_fractions));
    metrics_.existential_terms->Increment(
        static_cast<uint64_t>(stats->existential_terms));
    metrics_.descendant_chains->Increment(
        static_cast<uint64_t>(stats->descendant_chains));
  }
  return result;
}

double Estimator::ValueFraction(SynNodeId n, int t, EvalState& state) const {
  const auto& pred = state.twig->node(t).pred;
  if (!pred.has_value()) return 1.0;
  state.Read(n);
  if (state.stats != nullptr) ++state.stats->value_fractions;
  const double fraction = ValueFractionImpl(n, t, state);
  if (state.trace != nullptr) {
    state.trace->Leaf("fv",
                      "value " + pred->ToString() + " at " + SynLabel(n),
                      fraction, t);
  }
  return fraction;
}

double Estimator::ValueFractionImpl(SynNodeId n, int t,
                                    EvalState& state) const {
  const auto& pred = state.twig->node(t).pred;
  const NodeSummary& s = sketch_.summary(n);
  if (s.values.empty()) return 0.0;  // no element of n carries a value

  // Extended H^v(V, C...) (paper §3.2): when the joint value histogram
  // covers a count the current context has assigned, condition the value
  // fraction on it instead of assuming value/structure independence.
  if (!s.value_scope.empty() && !s.joint_values.empty()) {
    std::vector<std::pair<int, double>> given;
    for (size_t d = 0; d < s.value_scope.size(); ++d) {
      const CountRef& ref = s.value_scope[d];
      for (auto it = state.ctx.rbegin(); it != state.ctx.rend(); ++it) {
        if (it->from == ref.from && it->to == ref.to) {
          given.emplace_back(static_cast<int>(d) + 1, it->value);
          break;
        }
      }
    }
    if (!given.empty()) {
      const double lo =
          static_cast<double>(pred->lo == INT64_MIN
                                  ? 0
                                  : pred->lo - s.value_offset);
      const double hi = static_cast<double>(
          pred->hi == INT64_MAX ? std::numeric_limits<uint32_t>::max()
                                : pred->hi - s.value_offset);
      return s.joint_values.ConditionalRangeFraction(0, lo, hi, given);
    }
  }
  return s.values.EstimateFraction(pred->lo, pred->hi);
}

std::vector<hist::WeightedPoint> Estimator::ConditionedPoints(
    SynNodeId n, EvalState& state) const {
  const NodeSummary& s = sketch_.summary(n);
  if (s.hist.empty()) {
    return {hist::WeightedPoint{{}, 1.0}};
  }
  // Collect conditioning pairs: backward dimensions whose edge has an
  // assignment on the context stack (nearest assignment wins).
  std::vector<std::pair<int, double>> given;
  for (size_t d = 0; d < s.scope.size(); ++d) {
    const CountRef& ref = s.scope[d];
    if (ref.forward) continue;
    for (auto it = state.ctx.rbegin(); it != state.ctx.rend(); ++it) {
      if (it->from == ref.from && it->to == ref.to) {
        given.emplace_back(static_cast<int>(d), it->value);
        break;
      }
    }
  }
  if (state.stats != nullptr && !given.empty()) {
    ++state.stats->conditioned_nodes;
  }
  if (state.trace != nullptr && !given.empty()) {
    // The caller opened the enclosing histogram-enumeration node.
    state.trace->AnnotateConditioned(static_cast<int>(given.size()));
  }
  return s.hist.Condition(given);
}

double Estimator::EvalSubtree(SynNodeId n, int t, EvalState& state) const {
  const auto& tnode = state.twig->node(t);
  if (tnode.children.empty()) return 1.0;
  state.Read(n);

  const uint64_t key = MemoKey(t, n);
  if (state.memo_enabled) {
    auto it = state.memo.find(key);
    if (it != state.memo.end()) return it->second;
  }

  const NodeSummary& s = sketch_.summary(n);

  // Fast path: when no context can flow (no backward dims anywhere) and no
  // child's first step is covered by H(n), the point loop is a no-op.
  bool any_covered = false;
  if (!s.hist.empty()) {
    for (int c : tnode.children) {
      const auto& cnode = state.twig->node(c);
      if (cnode.axis == query::Axis::kChild) {
        for (const SynEdge& e : sketch_.synopsis().node(n).children) {
          if (sketch_.synopsis().node(e.child).tag == cnode.tag &&
              s.FindForwardDim(n, e.child) >= 0) {
            any_covered = true;
          }
        }
      } else {
        // Descendant steps may start on a covered edge.
        any_covered = true;
      }
      if (any_covered) break;
    }
  }

  obs::ExplainTrace* tr = state.trace;
  if (tr != nullptr) {
    tr->Open(obs::ExplainOp::kSum, "H", "subtree at " + SynLabel(n), t);
  }

  std::vector<hist::WeightedPoint> points;
  bool enumerated = false;
  if (any_covered || (!s.hist.empty() && state.enumerate_all)) {
    points = ConditionedPoints(n, state);
    enumerated = true;
  } else {
    points = {hist::WeightedPoint{{}, 1.0}};
  }
  if (tr != nullptr && enumerated) {
    tr->AnnotateBuckets(static_cast<int>(points.size()));
  }

  double result = 0.0;
  for (size_t pi = 0; pi < points.size(); ++pi) {
    const size_t ctx_mark = state.ctx.size();
    if (!points[pi].values.empty()) {
      for (size_t d = 0; d < s.scope.size(); ++d) {
        if (s.scope[d].forward) {
          state.ctx.push_back(
              CtxEntry{n, s.scope[d].to, points[pi].values[d]});
        }
      }
    }
    if (tr != nullptr) {
      tr->Open(obs::ExplainOp::kProduct, "bucket",
               "bucket " + std::to_string(pi), t);
      tr->Leaf("p", "bucket probability", points[pi].prob, t);
    }
    double term = points[pi].prob;
    for (int c : tnode.children) {
      if (term == 0.0) break;
      term *= ChildTerm(n, c, points, pi, state);
    }
    if (tr != nullptr) tr->Close(term);
    result += term;
    state.ctx.resize(ctx_mark);
  }

  if (tr != nullptr) tr->Close(result);
  if (state.memo_enabled) state.memo.emplace(key, result);
  return result;
}

double Estimator::ChildTerm(SynNodeId n, int child,
                            const std::vector<hist::WeightedPoint>& points,
                            size_t point_index, EvalState& state) const {
  const auto& cnode = state.twig->node(child);
  obs::ExplainTrace* tr = state.trace;
  if (cnode.tag == query::kUnknownTag) {
    if (tr != nullptr) {
      tr->Leaf("child", "step to a tag absent from the document", 0.0,
               child);
    }
    return 0.0;
  }
  const Synopsis& syn = sketch_.synopsis();
  const NodeSummary& s = sketch_.summary(n);
  std::string step_label;
  if (tr != nullptr) {
    step_label = (cnode.axis == query::Axis::kChild ? "/" : "//") +
                 sketch_.doc().tags().Get(cnode.tag) + " from " +
                 SynLabel(n);
  }

  // Alternatives: chains of synopsis nodes from n to a node tagged
  // cnode.tag. Child axis gives length-1 chains; '//' gives label paths.
  std::vector<std::vector<SynNodeId>> local_chains;
  const std::vector<std::vector<SynNodeId>>* chains = nullptr;
  if (cnode.axis == query::Axis::kChild) {
    for (const SynEdge& e : syn.node(n).children) {
      if (syn.node(e.child).tag == cnode.tag) {
        local_chains.push_back({e.child});
      }
    }
    chains = &local_chains;
  } else {
    chains = &DescendantPaths(n, cnode.tag);
  }
  if (chains->empty()) {
    if (tr != nullptr) {
      tr->Leaf("child", step_label + " (no synopsis path)", 0.0, child);
    }
    return 0.0;
  }

  if (state.stats != nullptr) {
    if (cnode.existential) ++state.stats->existential_terms;
    if (cnode.axis == query::Axis::kDescendant) {
      state.stats->descendant_chains += static_cast<int>(chains->size());
    }
  }
  if (tr != nullptr) {
    // Alternatives add for output semantics; a branching predicate
    // combines them as P[at least one embedding matches].
    tr->Open(cnode.existential ? obs::ExplainOp::kExistential
                               : obs::ExplainOp::kSum,
             cnode.existential ? "fe" : "child", step_label, child);
  }
  double sum = 0.0;        // output semantics
  double prob_none = 1.0;  // existential semantics
  for (const std::vector<SynNodeId>& chain : *chains) {
    const SynNodeId x1 = chain[0];
    const int d = s.FindForwardDim(n, x1);
    double factor;
    if (d >= 0 && !points[point_index].values.empty()) {
      if (state.stats != nullptr) ++state.stats->covered_terms;
      factor = StepFactor(n, x1, points[point_index].values[d],
                          /*covered=*/true, chain, 0, child,
                          cnode.existential, state);
    } else {
      if (state.stats != nullptr) ++state.stats->uniformity_terms;
      const SynEdge* edge = syn.FindEdge(n, x1);
      XS_CHECK(edge != nullptr);
      const double avg = static_cast<double>(edge->child_count) /
                         static_cast<double>(syn.node(n).count);
      factor = StepFactor(n, x1, avg, /*covered=*/false, chain, 0, child,
                          cnode.existential, state);
    }
    if (cnode.existential) {
      prob_none *= 1.0 - Clamp01(factor);
    } else {
      sum += factor;
    }
  }
  const double out = cnode.existential ? 1.0 - prob_none : sum;
  if (tr != nullptr) tr->Close(out);
  return out;
}

double Estimator::StepFactor(SynNodeId cur, SynNodeId next, double count,
                             bool covered,
                             const std::vector<SynNodeId>& chain,
                             size_t index, int t, bool existential,
                             EvalState& state) const {
  const bool last = (index + 1 == chain.size());
  obs::ExplainTrace* tr = state.trace;
  if (tr != nullptr) {
    // E (covered): the fanout came from a histogram bucket; U (uncovered):
    // Forward Uniformity average. Existential steps combine count and
    // subterm with 1-(1-q)^c, which is not a plain product — kOpaque.
    std::string label = SynLabel(cur) + " -> " + SynLabel(next);
    if (chain.size() > 1) {
      label += " (alternative " + ChainLabel(cur, chain) + ", step " +
               std::to_string(index + 1) + ")";
    }
    tr->Open(existential ? obs::ExplainOp::kOpaque
                         : obs::ExplainOp::kProduct,
             covered ? "E" : "U", label, t);
    tr->Leaf("c", covered ? "bucket fanout" : "average fanout", count, t);
    tr->Open(obs::ExplainOp::kProduct, "sub",
             last ? "tail at " + SynLabel(next) : "chain continuation", t);
  }

  double inner;
  if (last) {
    const double vf = ValueFraction(next, t, state);
    inner = (vf == 0.0) ? 0.0 : vf * EvalSubtree(next, t, state);
  } else {
    inner = ChainTerm(next, chain, index + 1, t, existential, state);
  }
  if (tr != nullptr) tr->Close(inner);

  double factor;
  if (!existential) {
    factor = count * inner;
  } else {
    const double q = Clamp01(inner);
    if (covered) {
      // Exact count (a bucket representative): P[>=1 of `count` children
      // satisfies] under per-child independence.
      factor = count <= 0.0 ? 0.0 : 1.0 - std::pow(1.0 - q, count);
    } else {
      // Uncovered: split existence (parent fraction) from fanout-given-
      // existence (child_count / parent_count >= 1).
      const SynEdge* edge = sketch_.synopsis().FindEdge(cur, next);
      XS_CHECK(edge != nullptr);
      if (edge->parent_count == 0) {
        factor = 0.0;
      } else {
        const double exist_frac =
            static_cast<double>(edge->parent_count) /
            static_cast<double>(sketch_.synopsis().node(cur).count);
        const double avg_given_exist =
            static_cast<double>(edge->child_count) /
            static_cast<double>(edge->parent_count);
        factor = exist_frac * (1.0 - std::pow(1.0 - q, avg_given_exist));
      }
    }
  }
  if (tr != nullptr) tr->Close(factor);
  return factor;
}

double Estimator::ChainTerm(SynNodeId cur,
                            const std::vector<SynNodeId>& chain,
                            size_t index, int t, bool existential,
                            EvalState& state) const {
  state.Read(cur);
  const SynNodeId next = chain[index];
  const NodeSummary& s = sketch_.summary(cur);
  const int d = s.FindForwardDim(cur, next);
  if (d < 0) {
    if (state.stats != nullptr) ++state.stats->uniformity_terms;
    const SynEdge* edge = sketch_.synopsis().FindEdge(cur, next);
    XS_CHECK(edge != nullptr);
    const double avg =
        static_cast<double>(edge->child_count) /
        static_cast<double>(sketch_.synopsis().node(cur).count);
    return StepFactor(cur, next, avg, /*covered=*/false, chain, index, t,
                      existential, state);
  }
  obs::ExplainTrace* tr = state.trace;
  if (tr != nullptr) {
    tr->Open(obs::ExplainOp::kSum, "H", "H(" + SynLabel(cur) + ")", t);
  }
  std::vector<hist::WeightedPoint> points = ConditionedPoints(cur, state);
  if (tr != nullptr) {
    tr->AnnotateBuckets(static_cast<int>(points.size()));
  }
  double result = 0.0;
  for (size_t pi = 0; pi < points.size(); ++pi) {
    const hist::WeightedPoint& wp = points[pi];
    const size_t ctx_mark = state.ctx.size();
    if (!wp.values.empty()) {
      for (size_t dd = 0; dd < s.scope.size(); ++dd) {
        if (s.scope[dd].forward) {
          state.ctx.push_back(CtxEntry{cur, s.scope[dd].to, wp.values[dd]});
        }
      }
    }
    if (tr != nullptr) {
      tr->Open(obs::ExplainOp::kProduct, "bucket",
               "bucket " + std::to_string(pi), t);
      tr->Leaf("p", "bucket probability", wp.prob, t);
    }
    const double sf = StepFactor(cur, next, wp.values[d],
                                 /*covered=*/true, chain, index, t,
                                 existential, state);
    const double term = wp.prob * sf;
    if (tr != nullptr) tr->Close(term);
    result += term;
    state.ctx.resize(ctx_mark);
  }
  if (tr != nullptr) tr->Close(result);
  return result;
}

const DescendantPathCache::Paths& Estimator::DescendantPaths(
    SynNodeId n, xml::TagId tag) const {
  const uint64_t key = (static_cast<uint64_t>(n) << 32) | tag;
  if (const DescendantPathCache::Paths* hit = path_cache_.Find(key)) {
    return *hit;
  }

  // Compute outside the shard lock: a racing thread may redo this work,
  // but the expansion is deterministic and Insert is first-writer-wins.
  std::vector<std::vector<SynNodeId>> paths;
  std::vector<SynNodeId> current;
  const Synopsis& syn = sketch_.synopsis();

  // Depth-first enumeration of label paths, deterministic order, capped.
  auto dfs = [&](auto&& self, SynNodeId cur) -> void {
    if (static_cast<int>(paths.size()) >= options_.max_descendant_paths) {
      return;
    }
    if (static_cast<int>(current.size()) >= path_length_cap_) return;
    for (const SynEdge& e : syn.node(cur).children) {
      current.push_back(e.child);
      if (syn.node(e.child).tag == tag) paths.push_back(current);
      self(self, e.child);
      current.pop_back();
      if (static_cast<int>(paths.size()) >= options_.max_descendant_paths) {
        return;
      }
    }
  };
  if (tag != query::kUnknownTag) dfs(dfs, n);

  return path_cache_.Insert(key, std::move(paths));
}

}  // namespace xsketch::core
