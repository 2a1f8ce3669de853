#include "core/compile.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "query/xpath_parser.h"
#include "util/check.h"
#include "util/simd.h"

namespace xsketch::core {

namespace {

double Clamp01(double x) { return std::clamp(x, 0.0, 1.0); }

const double kUnitProb = 1.0;

// Process-wide compiled-execution metrics. The per-term counters are the
// SAME registry entries the estimator mirrors into — E/U/D activity is a
// property of the workload, not of the engine that evaluated it — plus
// compiled-only counters so the two paths stay distinguishable.
struct CompiledMetrics {
  obs::Counter* queries;
  obs::Counter* covered_terms;
  obs::Counter* uniformity_terms;
  obs::Counter* conditioned_nodes;
  obs::Counter* value_fractions;
  obs::Counter* existential_terms;
  obs::Counter* descendant_chains;
};

CompiledMetrics& Metrics() {
  static CompiledMetrics m = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    CompiledMetrics mm;
    mm.queries = &reg.GetCounter("xsketch_compiled_queries_total",
                                 "twig queries executed via compiled plans");
    mm.covered_terms =
        &reg.GetCounter("xsketch_estimator_covered_terms_total",
                        "E_i terms: fanouts read from histogram buckets");
    mm.uniformity_terms =
        &reg.GetCounter("xsketch_estimator_uniformity_terms_total",
                        "U_i terms: Forward Uniformity fallbacks");
    mm.conditioned_nodes =
        &reg.GetCounter("xsketch_estimator_conditioned_nodes_total",
                        "D_i terms: Correlation Scope conditionings");
    mm.value_fractions =
        &reg.GetCounter("xsketch_estimator_value_fractions_total",
                        "value-predicate fractions applied");
    mm.existential_terms =
        &reg.GetCounter("xsketch_estimator_existential_terms_total",
                        "branching-predicate factors");
    mm.descendant_chains =
        &reg.GetCounter("xsketch_estimator_descendant_chains_total",
                        "'//' expansion alternatives evaluated");
    return mm;
  }();
  return m;
}

}  // namespace

ExecScratch& ThreadLocalExecScratch() {
  static thread_local ExecScratch scratch;
  return scratch;
}

// ---------------------------------------------------------------------------
// Execution

// The explain sink of Execute() and ExecuteWithStats(): every hook is
// empty, so those instantiations are the executor with no explain code.
class CompiledTwig::NoExplain {
 public:
  bool OpenQuery() { return false; }
  void OpenExtent(const Root&) {}
  void Value(SynNodeId, int, double) {}
  void OpenSubtree(SynNodeId, int) {}
  void AnnotateBuckets(uint32_t) {}
  void AnnotateConditioned(int) {}
  void OpenBucket(uint32_t, double, int) {}
  void ZeroChild(SynNodeId, int) {}
  void OpenChild(SynNodeId, const Child&) {}
  void OpenStep(const Chain&, uint32_t, double, bool, const Child&) {}
  void OpenChainHist(SynNodeId, int) {}
  void Close(double) {}
};

// The explain sink of ExecuteWithTrace(): records the interpreter's tree
// (Estimator::EstimateWithTrace) at the same points of the same
// recursion, rendering its labels from the frozen tag table, synopsis
// node ids and the program's query nodes.
class CompiledTwig::ExplainRecorder {
 public:
  ExplainRecorder(const CompiledTwig& ct, obs::ExplainTrace* trace)
      : ct_(ct), fz_(*ct.frozen_), trace_(trace) {}

  // Opens the query and extent-sum nodes. A query with no root, or whose
  // root tag is absent from the document, records nothing (false).
  bool OpenQuery() {
    if (ct_.twig_nodes_.empty()) return false;
    const TwigNode& root = ct_.twig_nodes_[0];
    if (root.tag == query::kUnknownTag) return false;
    const std::string& tag = fz_.tags().Get(root.tag);
    trace_->Open(obs::ExplainOp::kOpaque, "query",
                 (root.axis == query::Axis::kChild ? "/" : "//") + tag, 0);
    trace_->Open(obs::ExplainOp::kSum, "extents",
                 "root alternatives of " + tag, 0);
    return true;
  }

  void OpenExtent(const Root& root) {
    if (!root.mul_count) {
      trace_->Open(obs::ExplainOp::kProduct, "extent",
                   "document root " + SynLabel(root.n), 0);
      return;
    }
    trace_->Open(obs::ExplainOp::kProduct, "extent",
                 "extent " + SynLabel(root.n), 0);
    trace_->Leaf("n", "|" + SynLabel(root.n) + "|", root.count, 0);
  }

  void Value(SynNodeId n, int t, double fraction) {
    trace_->Leaf("fv",
                 "value " + ct_.twig_nodes_[t].pred->ToString() + " at " +
                     SynLabel(n),
                 fraction, t);
  }

  void OpenSubtree(SynNodeId n, int t) {
    trace_->Open(obs::ExplainOp::kSum, "H", "subtree at " + SynLabel(n), t);
  }

  void AnnotateBuckets(uint32_t count) {
    trace_->AnnotateBuckets(static_cast<int>(count));
  }
  void AnnotateConditioned(int dims) { trace_->AnnotateConditioned(dims); }

  void OpenBucket(uint32_t i, double prob, int t) {
    trace_->Open(obs::ExplainOp::kProduct, "bucket",
                 "bucket " + std::to_string(i), t);
    trace_->Leaf("p", "bucket probability", prob, t);
  }

  void ZeroChild(SynNodeId n, int t) {
    if (ct_.twig_nodes_[t].tag == query::kUnknownTag) {
      trace_->Leaf("child", "step to a tag absent from the document", 0.0, t);
    } else {
      trace_->Leaf("child", StepLabel(n, t) + " (no synopsis path)", 0.0, t);
    }
  }

  // Alternatives add for output semantics; a branching predicate
  // combines them as P[at least one embedding matches].
  void OpenChild(SynNodeId n, const Child& child) {
    trace_->Open(child.existential ? obs::ExplainOp::kExistential
                                   : obs::ExplainOp::kSum,
                 child.existential ? "fe" : "child",
                 StepLabel(n, child.twig_node), child.twig_node);
  }

  // E (covered) or U (uniformity) step: the count leaf, then the open
  // "sub" node that the subterm fills. Existential steps combine count
  // and subterm with 1-(1-q)^c, which is not a plain product — kOpaque.
  void OpenStep(const Chain& chain, uint32_t index, double count,
                bool covered, const Child& child) {
    const Step& st = ct_.steps_[chain.step_begin + index];
    const int t = child.twig_node;
    std::string label = SynLabel(st.from) + " -> " + SynLabel(st.to);
    if (chain.len > 1) {
      label += " (alternative " + SynLabel(st.from);
      for (uint32_t k = 0; k < chain.len; ++k) {
        label += "/" + SynLabel(ct_.steps_[chain.step_begin + k].to);
      }
      label += ", step " + std::to_string(index + 1) + ")";
    }
    trace_->Open(child.existential ? obs::ExplainOp::kOpaque
                                   : obs::ExplainOp::kProduct,
                 covered ? "E" : "U", label, t);
    trace_->Leaf("c", covered ? "bucket fanout" : "average fanout", count,
                 t);
    trace_->Open(obs::ExplainOp::kProduct, "sub",
                 index + 1 == chain.len ? "tail at " + SynLabel(st.to)
                                        : "chain continuation",
                 t);
  }

  void OpenChainHist(SynNodeId n, int t) {
    trace_->Open(obs::ExplainOp::kSum, "H", "H(" + SynLabel(n) + ")", t);
  }

  void Close(double value) { trace_->Close(value); }

 private:
  std::string SynLabel(SynNodeId n) const {
    return fz_.tags().Get(fz_.tag(n)) + "#" + std::to_string(n);
  }

  std::string StepLabel(SynNodeId n, int t) const {
    const TwigNode& node = ct_.twig_nodes_[t];
    return (node.axis == query::Axis::kChild ? "/" : "//") +
           fz_.tags().Get(node.tag) + " from " + SynLabel(n);
  }

  const CompiledTwig& ct_;
  const FrozenSynopsis& fz_;
  obs::ExplainTrace* trace_;
};

// The interpreter. One instance per Execute call; mirrors the estimator's
// EvalSubtree / ChildTerm / ChainTerm / StepFactor recursion over the flat
// program, with the same operations in the same order (see estimator.cc —
// every arithmetic expression here has a corresponding line there). The
// explain sink is called where the estimator records its trace.
template <typename Sink>
class CompiledTwig::Executor {
 public:
  Executor(const CompiledTwig& ct, ExecScratch& sc, EstimateStats* stats,
           Sink sink)
      : ct_(ct),
        fz_(*ct.frozen_),
        sc_(sc),
        stats_(stats),
        memo_enabled_(!ct.enumerate_all_ && stats == nullptr),
        sink_(sink) {}

  double Run() {
    Metrics().queries->Increment();
    sc_.ctx.clear();
    if (memo_enabled_) {
      if (sc_.memo_epoch.size() < ct_.plans_.size()) {
        sc_.memo_epoch.resize(ct_.plans_.size(), 0);
        sc_.memo_val.resize(ct_.plans_.size(), 0.0);
      }
      if (++sc_.epoch == 0) {  // epoch wrapped: flush stale marks
        std::fill(sc_.memo_epoch.begin(), sc_.memo_epoch.end(), 0u);
        sc_.epoch = 1;
      }
    }
    const bool traced = sink_.OpenQuery();
    double total = 0.0;
    for (const Root& root : ct_.roots_) {
      sink_.OpenExtent(root);
      const double vf = TracedVf(root.vf, root.n, 0);
      const double sub = root.plan < 0 ? 1.0 : ExecPlan(root.plan);
      if (root.mul_count) {
        const double term = root.count * vf * sub;
        sink_.Close(term);
        total += term;
      } else {
        total = vf * sub;
        sink_.Close(total);
      }
    }
    const double result = std::max(0.0, total);
    if (traced) {
      sink_.Close(total);
      sink_.Close(result);
    }
    return result;
  }

 private:
  // A materialized histogram-point set: probabilities plus (for runtime-
  // conditioned sets) the surviving bucket indices into the frozen columns.
  struct PointView {
    const double* probs = nullptr;
    const uint32_t* buckets = nullptr;  // nullptr: identity mapping
    uint32_t size = 0;
    bool has_values = false;
  };
  // Backing storage for a runtime-conditioned view; owned by the caller's
  // frame because the point loop recurses while the view is live.
  struct RuntimePoints {
    std::vector<double> probs;
    std::vector<uint32_t> buckets;
  };

  uint32_t BucketOf(const PointView& pv, uint32_t i) const {
    return pv.buckets != nullptr ? pv.buckets[i] : i;
  }

  // ConditionedPoints / hist.Condition, over frozen columns. The SIMD
  // passes are elementwise with one pass per conditioning pair in scope
  // order — the same per-bucket multiply order as the scalar reference —
  // and both weight totals are scalar sums in bucket order.
  PointView MaterializePoints(SynNodeId n, PointsKind kind, bool has_values,
                              RuntimePoints& storage) {
    if (kind == PointsKind::kUnit) {
      return PointView{&kUnitProb, nullptr, 1, false};
    }
    const uint32_t nb = fz_.bucket_count(n);
    if (kind == PointsKind::kStatic) {
      return PointView{fz_.static_probs(n), nullptr, nb, has_values};
    }
    // kRuntime: collect (dim, value) pairs — backward dims with an
    // assignment on the context stack, nearest assignment first.
    struct Given {
      int dim;
      double value;
    };
    Given given[8];
    int n_given = 0;
    std::vector<Given> given_overflow;
    for (const FrozenSynopsis::BackwardDim* b = fz_.bwd_begin(n);
         b != fz_.bwd_end(n); ++b) {
      for (auto it = sc_.ctx.rbegin(); it != sc_.ctx.rend(); ++it) {
        if (it->from == b->from && it->to == b->to) {
          if (n_given < 8) {
            given[n_given++] = Given{b->dim, it->value};
          } else {
            given_overflow.push_back(Given{b->dim, it->value});
          }
          break;
        }
      }
    }
    auto for_each_given = [&](auto&& fn) {
      for (int i = 0; i < n_given; ++i) fn(given[i]);
      for (const Given& g : given_overflow) fn(g);
    };
    if (n_given == 0) {
      return PointView{fz_.static_probs(n), nullptr, nb, has_values};
    }
    if (stats_ != nullptr) ++stats_->conditioned_nodes;
    sink_.AnnotateConditioned(n_given +
                              static_cast<int>(given_overflow.size()));

    std::vector<double>& w = storage.probs;
    w.assign(fz_.fractions(n), fz_.fractions(n) + nb);
    for_each_given([&](const Given& g) {
      util::simd::ConditionRangePass(w.data(), fz_.lo_minus(n, g.dim),
                                     fz_.hi_plus(n, g.dim),
                                     fz_.inv_span(n, g.dim), g.value, nb);
    });
    double total = 0.0;
    for (uint32_t b = 0; b < nb; ++b) total += w[b];
    if (total <= 0.0) {
      // Inverse-distance fallback, exactly as hist::EdgeHistogram.
      std::vector<double> dist2(nb, 0.0);
      for_each_given([&](const Given& g) {
        util::simd::Dist2Accumulate(dist2.data(), fz_.means(n, g.dim),
                                    g.value, nb);
      });
      util::simd::InverseDistanceWeights(w.data(), fz_.fractions(n),
                                         dist2.data(), nb);
      for (uint32_t b = 0; b < nb; ++b) total += w[b];
    }
    XS_CHECK(total > 0.0);

    storage.buckets.clear();
    uint32_t out = 0;
    for (uint32_t b = 0; b < nb; ++b) {
      if (w[b] <= 0.0) continue;
      w[out] = w[b] / total;
      storage.buckets.push_back(b);
      ++out;
    }
    return PointView{w.data(), storage.buckets.data(), out, has_values};
  }

  void PushForwardDims(SynNodeId n, uint32_t bucket) {
    for (const FrozenSynopsis::ForwardDim* f = fz_.fwd_begin(n);
         f != fz_.fwd_end(n); ++f) {
      sc_.ctx.push_back(
          ExecScratch::CtxEntry{n, f->to, fz_.means(n, f->dim)[bucket]});
    }
  }

  double ExecPlan(int32_t id) {
    if (memo_enabled_ && sc_.memo_epoch[id] == sc_.epoch) {
      return sc_.memo_val[id];
    }
    const Plan& p = ct_.plans_[id];
    double result;
    if (stats_ == nullptr && p.zero_child) {
      // Some child always contributes factor 0; with every other factor
      // finite and non-negative each bucket term is +0, so the sum is 0.
      result = 0.0;
    } else if (stats_ == nullptr && p.vector_fast) {
      result = VectorFast(p);
    } else {
      result = General(p);
    }
    if (memo_enabled_) {
      sc_.memo_epoch[id] = sc_.epoch;
      sc_.memo_val[id] = result;
    }
    return result;
  }

  double General(const Plan& p) {
    sink_.OpenSubtree(p.n, p.twig_node);
    RuntimePoints storage;
    const PointView pv =
        MaterializePoints(p.n, p.points_kind, p.has_values, storage);
    if (p.points_kind != PointsKind::kUnit) sink_.AnnotateBuckets(pv.size);
    double result = 0.0;
    for (uint32_t i = 0; i < pv.size; ++i) {
      const uint32_t bucket = BucketOf(pv, i);
      const size_t ctx_mark = sc_.ctx.size();
      if (pv.has_values) PushForwardDims(p.n, bucket);
      double term = pv.probs[i];
      sink_.OpenBucket(i, term, p.twig_node);
      for (uint32_t c = p.child_begin; c < p.child_end; ++c) {
        if (term == 0.0) break;
        term *= ChildTerm(ct_.children_[c], p.n, pv, bucket);
      }
      sink_.Close(term);
      result += term;
      sc_.ctx.resize(ctx_mark);
    }
    sink_.Close(result);
    return result;
  }

  double ChildTerm(const Child& child, SynNodeId n, const PointView& pv,
                   uint32_t bucket) {
    if (child.kind == Child::Kind::kZero) {
      sink_.ZeroChild(n, child.twig_node);
      return 0.0;
    }
    if (stats_ != nullptr) {
      if (child.existential) ++stats_->existential_terms;
      if (child.descendant) {
        stats_->descendant_chains +=
            static_cast<int>(child.chain_end - child.chain_begin);
      }
    }
    sink_.OpenChild(n, child);
    double sum = 0.0;        // output semantics
    double prob_none = 1.0;  // existential semantics
    for (uint32_t ci = child.chain_begin; ci < child.chain_end; ++ci) {
      const Chain& chain = ct_.chains_[ci];
      const Step& s0 = ct_.steps_[chain.step_begin];
      double factor;
      if (s0.covered_dim >= 0 && pv.has_values) {
        if (stats_ != nullptr) ++stats_->covered_terms;
        factor = StepFactor(chain, 0, fz_.means(n, s0.covered_dim)[bucket],
                            /*covered=*/true, child);
      } else {
        if (stats_ != nullptr) ++stats_->uniformity_terms;
        factor = StepFactor(chain, 0, s0.avg, /*covered=*/false, child);
      }
      if (child.existential) {
        prob_none *= 1.0 - Clamp01(factor);
      } else {
        sum += factor;
      }
    }
    const double out = child.existential ? 1.0 - prob_none : sum;
    sink_.Close(out);
    return out;
  }

  double StepFactor(const Chain& chain, uint32_t index, double count,
                    bool covered, const Child& child) {
    const Step& st = ct_.steps_[chain.step_begin + index];
    const bool last = (index + 1 == chain.len);
    sink_.OpenStep(chain, index, count, covered, child);
    double inner;
    if (last) {
      const double vf = TracedVf(st.vf, st.to, child.twig_node);
      inner = (vf == 0.0)
                  ? 0.0
                  : vf * (st.tail_plan < 0 ? 1.0 : ExecPlan(st.tail_plan));
    } else {
      inner = ChainTerm(chain, index + 1, child);
    }
    sink_.Close(inner);
    double factor;
    if (!child.existential) {
      factor = count * inner;
    } else {
      const double q = Clamp01(inner);
      if (covered) {
        factor = count <= 0.0 ? 0.0 : 1.0 - std::pow(1.0 - q, count);
      } else if (st.parent_zero) {
        factor = 0.0;
      } else {
        factor =
            st.exist_frac * (1.0 - std::pow(1.0 - q, st.avg_given_exist));
      }
    }
    sink_.Close(factor);
    return factor;
  }

  double ChainTerm(const Chain& chain, uint32_t index, const Child& child) {
    const Step& st = ct_.steps_[chain.step_begin + index];
    if (st.covered_dim < 0) {
      if (stats_ != nullptr) ++stats_->uniformity_terms;
      return StepFactor(chain, index, st.avg, /*covered=*/false, child);
    }
    sink_.OpenChainHist(st.from, child.twig_node);
    RuntimePoints storage;
    const PointView pv =
        MaterializePoints(st.from, st.points_kind, true, storage);
    sink_.AnnotateBuckets(pv.size);
    double result = 0.0;
    for (uint32_t i = 0; i < pv.size; ++i) {
      const uint32_t bucket = BucketOf(pv, i);
      const size_t ctx_mark = sc_.ctx.size();
      if (pv.has_values) PushForwardDims(st.from, bucket);
      sink_.OpenBucket(i, pv.probs[i], child.twig_node);
      const double sf =
          StepFactor(chain, index, fz_.means(st.from, st.covered_dim)[bucket],
                     /*covered=*/true, child);
      const double term = pv.probs[i] * sf;
      sink_.Close(term);
      result += term;
      sc_.ctx.resize(ctx_mark);
    }
    sink_.Close(result);
    return result;
  }

  double Vf(const VfSite& site) {
    switch (site.kind) {
      case VfSite::Kind::kOne:
        return 1.0;
      case VfSite::Kind::kStatic:
        if (stats_ != nullptr) ++stats_->value_fractions;
        return site.fraction;
      case VfSite::Kind::kDynamic:
        if (stats_ != nullptr) ++stats_->value_fractions;
        return DynamicVf(site);
    }
    return 1.0;  // unreachable
  }

  // Vf plus the explain leaf of a predicated site (twig node t evaluated
  // at synopsis node n).
  double TracedVf(const VfSite& site, SynNodeId n, int t) {
    const double fraction = Vf(site);
    if (site.kind != VfSite::Kind::kOne) sink_.Value(n, t, fraction);
    return fraction;
  }

  // Joint H^v(V, C...) conditioning, over the frozen value layer: the
  // scope match and the conditional range fraction are transcriptions of
  // the original histogram code (see FrozenSynopsis), bit-identical to
  // delegating back to the sketch.
  double DynamicVf(const VfSite& site) {
    const std::span<const FrozenSynopsis::ValueRef> scope =
        fz_.value_scope(site.n);
    std::vector<std::pair<int, double>> given;
    for (size_t d = 0; d < scope.size(); ++d) {
      for (auto it = sc_.ctx.rbegin(); it != sc_.ctx.rend(); ++it) {
        if (it->from == scope[d].from && it->to == scope[d].to) {
          given.emplace_back(static_cast<int>(d) + 1, it->value);
          break;
        }
      }
    }
    if (!given.empty()) {
      return fz_.JointConditionalRangeFraction(site.n, site.lo_coord,
                                               site.hi_coord, given);
    }
    return site.fraction;  // context-free marginal, precompiled
  }

  // The vector-fast path: with static points and no existential child,
  // every chain's tail value is bucket-independent, so the point loop
  // factors into per-bucket columns:
  //   child_acc[b] = Σ_chains (covered ? mean_d[b] * inner : avg * inner)
  //   term_acc[b]  = prob[b] * Π_children child_acc[b]
  //   result       = Σ_b term_acc[b]   (scalar, bucket order)
  // Per element this performs the reference's exact operation sequence;
  // only the loop nesting is transposed, which touches no float op order.
  // Phase 1 (tail recursion) runs before any accumulator is written, so
  // the shared scratch buffers never see nested use.
  double VectorFast(const Plan& p) {
    const uint32_t nb = fz_.bucket_count(p.n);
    const size_t mark = sc_.inners.size();
    for (uint32_t c = p.child_begin; c < p.child_end; ++c) {
      const Child& child = ct_.children_[c];
      for (uint32_t ci = child.chain_begin; ci < child.chain_end; ++ci) {
        const Chain& chain = ct_.chains_[ci];
        const Step& s0 = ct_.steps_[chain.step_begin];
        double inner;
        if (chain.len == 1) {
          const double vf = Vf(s0.vf);
          inner = (vf == 0.0)
                      ? 0.0
                      : vf * (s0.tail_plan < 0 ? 1.0
                                               : ExecPlan(s0.tail_plan));
        } else {
          inner = ChainTerm(chain, 1, child);
        }
        sc_.inners.push_back(inner);
      }
    }
    if (sc_.child_acc.size() < nb) {
      sc_.child_acc.resize(nb);
      sc_.term_acc.resize(nb);
    }
    const double* probs = fz_.static_probs(p.n);
    std::copy(probs, probs + nb, sc_.term_acc.begin());
    size_t k = mark;
    for (uint32_t c = p.child_begin; c < p.child_end; ++c) {
      const Child& child = ct_.children_[c];
      std::fill_n(sc_.child_acc.begin(), nb, 0.0);
      for (uint32_t ci = child.chain_begin; ci < child.chain_end; ++ci) {
        const Step& s0 = ct_.steps_[ct_.chains_[ci].step_begin];
        const double inner = sc_.inners[k++];
        if (s0.covered_dim >= 0) {
          util::simd::MulScalarAccumulate(
              sc_.child_acc.data(), fz_.means(p.n, s0.covered_dim), inner,
              nb);
        } else {
          util::simd::AddScalarAccumulate(sc_.child_acc.data(),
                                          s0.avg * inner, nb);
        }
      }
      util::simd::MulAccumulate(sc_.term_acc.data(), sc_.child_acc.data(),
                                nb);
    }
    double result = 0.0;
    for (uint32_t b = 0; b < nb; ++b) result += sc_.term_acc[b];
    sc_.inners.resize(mark);
    return result;
  }

  const CompiledTwig& ct_;
  const FrozenSynopsis& fz_;
  ExecScratch& sc_;
  EstimateStats* stats_;
  const bool memo_enabled_;
  [[no_unique_address]] Sink sink_;
};

double CompiledTwig::Execute(ExecScratch& scratch) const {
  Executor<NoExplain> ex(*this, scratch, nullptr, NoExplain());
  return ex.Run();
}

namespace {

// Mirrors one call's term counts into the process-wide registry — the
// same counters the estimator's stats path feeds.
void MirrorTermCounts(const EstimateStats& stats) {
  CompiledMetrics& m = Metrics();
  m.covered_terms->Increment(static_cast<uint64_t>(stats.covered_terms));
  m.uniformity_terms->Increment(
      static_cast<uint64_t>(stats.uniformity_terms));
  m.conditioned_nodes->Increment(
      static_cast<uint64_t>(stats.conditioned_nodes));
  m.value_fractions->Increment(static_cast<uint64_t>(stats.value_fractions));
  m.existential_terms->Increment(
      static_cast<uint64_t>(stats.existential_terms));
  m.descendant_chains->Increment(
      static_cast<uint64_t>(stats.descendant_chains));
}

}  // namespace

EstimateStats CompiledTwig::ExecuteWithStats(ExecScratch& scratch) const {
  EstimateStats stats;
  Executor<NoExplain> ex(*this, scratch, &stats, NoExplain());
  stats.estimate = ex.Run();
  MirrorTermCounts(stats);
  return stats;
}

EstimateStats CompiledTwig::ExecuteWithTrace(obs::ExplainTrace* trace,
                                             ExecScratch& scratch) const {
  XS_CHECK(trace != nullptr);
  trace->Clear();
  EstimateStats stats;
  Executor<ExplainRecorder> ex(*this, scratch, &stats,
                               ExplainRecorder(*this, trace));
  stats.estimate = ex.Run();
  MirrorTermCounts(stats);
  return stats;
}

size_t CompiledTwig::SizeBytes() const {
  return plans_.size() * sizeof(Plan) + children_.size() * sizeof(Child) +
         chains_.size() * sizeof(Chain) + steps_.size() * sizeof(Step) +
         roots_.size() * sizeof(Root) +
         twig_nodes_.size() * sizeof(TwigNode);
}

// ---------------------------------------------------------------------------
// Compilation

TwigCompiler::TwigCompiler(std::shared_ptr<const FrozenSynopsis> frozen,
                           const EstimatorOptions& options)
    : frozen_(std::move(frozen)), options_(options) {
  XS_CHECK(frozen_ != nullptr);
  const util::Status st = options_.Validate();
  XS_CHECK_MSG(st.ok(), st.ToString().c_str());
  // Satellite of the estimator's per-construction resolution: the "use
  // document max depth + 1" default is pinned once, here.
  path_length_cap_ =
      options_.max_path_length > 0
          ? options_.max_path_length
          : static_cast<int>(frozen_->doc_max_depth()) + 1;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metric_compiles_ = &reg.GetCounter("xsketch_compile_total",
                                     "twig queries lowered to compiled plans");
  metric_compile_us_ =
      &reg.GetHistogram("xsketch_compile_latency_us", obs::LatencyBucketsUs(),
                        "twig compilation latency (microseconds)");
}

const DescendantPathCache::Paths& TwigCompiler::DescendantPaths(
    SynNodeId n, xml::TagId tag) const {
  const uint64_t key = (static_cast<uint64_t>(n) << 32) | tag;
  if (const DescendantPathCache::Paths* hit = path_cache_.Find(key)) {
    return *hit;
  }
  // Identical enumeration to Estimator::DescendantPaths: depth-first over
  // the synopsis adjacency (frozen edges preserve edge order), capped by
  // max_descendant_paths / path_length_cap_.
  std::vector<std::vector<SynNodeId>> paths;
  std::vector<SynNodeId> current;
  const FrozenSynopsis& fz = *frozen_;
  auto dfs = [&](auto&& self, SynNodeId cur) -> void {
    if (static_cast<int>(paths.size()) >= options_.max_descendant_paths) {
      return;
    }
    if (static_cast<int>(current.size()) >= path_length_cap_) return;
    for (const FrozenSynopsis::Edge* e = fz.edges_begin(cur);
         e != fz.edges_end(cur); ++e) {
      current.push_back(e->child);
      if (fz.tag(e->child) == tag) paths.push_back(current);
      self(self, e->child);
      current.pop_back();
      if (static_cast<int>(paths.size()) >= options_.max_descendant_paths) {
        return;
      }
    }
  };
  if (tag != query::kUnknownTag) dfs(dfs, n);
  return path_cache_.Insert(key, std::move(paths));
}

// Per-Compile lowering state. Plans are built bottom-up: a plan's children
// (and their tail plans, recursively) are assembled in frame-local storage
// and appended to the flat arrays contiguously once complete, so nested
// CompilePlan calls never interleave a plan's records.
class TwigCompiler::Builder {
 public:
  Builder(const TwigCompiler& compiler, const query::TwigQuery& twig,
          CompiledTwig* out)
      : compiler_(compiler),
        fz_(*compiler.frozen_),
        twig_(twig),
        out_(out) {}

  void Build() {
    out_->enumerate_all_ = fz_.has_backward_dims();
    out_->path_length_cap_ = compiler_.path_length_cap_;
    out_->twig_nodes_.reserve(static_cast<size_t>(twig_.size()));
    for (int t = 0; t < twig_.size(); ++t) {
      const auto& node = twig_.node(t);
      out_->twig_nodes_.push_back({node.tag, node.axis, node.pred});
    }
    if (twig_.empty()) return;
    const auto& root = twig_.node(twig_.root());
    if (root.tag == query::kUnknownTag) return;
    if (root.axis == query::Axis::kChild) {
      // Absolute '/tag': only the document root element can match.
      const SynNodeId n0 = fz_.root_node();
      if (fz_.tag(n0) == root.tag) {
        CompiledTwig::Root r;
        r.n = n0;
        r.count = fz_.count(n0);
        r.mul_count = false;
        r.vf = MakeVfSite(n0, root);
        r.plan = CompilePlan(n0, twig_.root());
        out_->roots_.push_back(r);
      }
    } else {
      for (SynNodeId n : fz_.NodesWithTag(root.tag)) {
        CompiledTwig::Root r;
        r.n = n;
        r.count = fz_.count(n);
        r.mul_count = true;
        r.vf = MakeVfSite(n, root);
        r.plan = CompilePlan(n, twig_.root());
        out_->roots_.push_back(r);
      }
    }
  }

 private:
  using PointsKind = CompiledTwig::PointsKind;
  using VfSite = CompiledTwig::VfSite;

  struct ChainRec {
    std::vector<CompiledTwig::Step> steps;
  };
  struct ChildRec {
    CompiledTwig::Child::Kind kind = CompiledTwig::Child::Kind::kNormal;
    bool existential = false;
    bool descendant = false;
    int32_t twig_node = -1;
    std::vector<ChainRec> chains;
  };

  VfSite MakeVfSite(SynNodeId n, const query::TwigQuery::Node& tnode) {
    VfSite site;
    if (!tnode.pred.has_value()) return site;  // kOne
    if (!fz_.node_has_values(n)) {
      // No element of n carries a value: the fraction is 0 regardless of
      // context (still a counted value-fraction site).
      site.kind = VfSite::Kind::kStatic;
      site.fraction = 0.0;
      return site;
    }
    if (fz_.has_joint_values(n)) {
      const int64_t value_offset = fz_.value_offset(n);
      site.kind = VfSite::Kind::kDynamic;
      site.n = n;
      site.lo_coord = static_cast<double>(
          tnode.pred->lo == INT64_MIN ? 0 : tnode.pred->lo - value_offset);
      site.hi_coord = static_cast<double>(
          tnode.pred->hi == INT64_MAX
              ? std::numeric_limits<uint32_t>::max()
              : tnode.pred->hi - value_offset);
      // Context-free fallback: the 1-D marginal.
      site.fraction = fz_.ValueFraction(n, tnode.pred->lo, tnode.pred->hi);
      return site;
    }
    site.kind = VfSite::Kind::kStatic;
    site.fraction = fz_.ValueFraction(n, tnode.pred->lo, tnode.pred->hi);
    return site;
  }

  // Lowers EvalSubtree(n, t). Returns the plan id, or -1 when twig node t
  // is a leaf (the estimator returns 1.0 before any other work).
  int32_t CompilePlan(SynNodeId n, int t) {
    const auto& tnode = twig_.node(t);
    if (tnode.children.empty()) return -1;
    const uint64_t key =
        (static_cast<uint64_t>(static_cast<uint32_t>(t)) << 32) | n;
    if (auto it = plan_memo_.find(key); it != plan_memo_.end()) {
      return it->second;
    }

    // Mirrors the estimator's enumeration decision: condition-and-
    // enumerate the histogram iff some child's first step is covered, or
    // the sketch has backward dims anywhere (context must flow for deeper
    // conditioning).
    bool any_covered = false;
    if (!fz_.hist_empty(n)) {
      for (int c : tnode.children) {
        const auto& cnode = twig_.node(c);
        if (cnode.axis == query::Axis::kChild) {
          for (const FrozenSynopsis::Edge* e = fz_.edges_begin(n);
               e != fz_.edges_end(n); ++e) {
            if (e->child_tag == cnode.tag &&
                fz_.FindForwardDim(n, e->child) >= 0) {
              any_covered = true;
            }
          }
        } else {
          any_covered = true;
        }
        if (any_covered) break;
      }
    }

    CompiledTwig::Plan plan;
    plan.n = n;
    plan.twig_node = t;
    if (any_covered || (!fz_.hist_empty(n) && fz_.has_backward_dims())) {
      plan.points_kind =
          fz_.has_bwd(n) ? PointsKind::kRuntime : PointsKind::kStatic;
      plan.has_values = fz_.hist_dims(n) > 0;
    } else {
      plan.points_kind = PointsKind::kUnit;
    }

    bool vector_fast = plan.points_kind == PointsKind::kStatic &&
                       !fz_.has_backward_dims();
    std::vector<ChildRec> recs;
    recs.reserve(tnode.children.size());
    for (int c : tnode.children) {
      const auto& cnode = twig_.node(c);
      ChildRec rec;
      rec.existential = cnode.existential;
      rec.descendant = cnode.axis == query::Axis::kDescendant;
      rec.twig_node = c;
      if (cnode.existential) vector_fast = false;
      if (cnode.tag == query::kUnknownTag) {
        rec.kind = CompiledTwig::Child::Kind::kZero;
        plan.zero_child = true;
        recs.push_back(std::move(rec));
        continue;
      }
      // Alternatives: single-step chains for '/', label paths for '//'.
      std::vector<std::vector<SynNodeId>> local_chains;
      const std::vector<std::vector<SynNodeId>>* chains = nullptr;
      if (cnode.axis == query::Axis::kChild) {
        for (const FrozenSynopsis::Edge* e = fz_.edges_begin(n);
             e != fz_.edges_end(n); ++e) {
          if (e->child_tag == cnode.tag) local_chains.push_back({e->child});
        }
        chains = &local_chains;
      } else {
        chains = &compiler_.DescendantPaths(n, cnode.tag);
      }
      if (chains->empty()) {
        rec.kind = CompiledTwig::Child::Kind::kZero;
        plan.zero_child = true;
        recs.push_back(std::move(rec));
        continue;
      }
      for (const std::vector<SynNodeId>& chain : *chains) {
        ChainRec cr;
        SynNodeId cur = n;
        for (size_t idx = 0; idx < chain.size(); ++idx) {
          const SynNodeId next = chain[idx];
          CompiledTwig::Step st;
          st.from = cur;
          st.to = next;
          st.covered_dim = fz_.FindForwardDim(cur, next);
          const FrozenSynopsis::Edge* e = fz_.FindEdge(cur, next);
          XS_CHECK(e != nullptr);
          st.avg = e->avg;
          st.exist_frac = e->exist_frac;
          st.avg_given_exist = e->avg_given_exist;
          st.parent_zero = e->parent_zero != 0;
          if (idx > 0 && st.covered_dim >= 0) {
            // Covered interior step: ChainTerm enumerates `cur`'s
            // histogram unconditionally.
            XS_CHECK(!fz_.hist_empty(cur));
            st.points_kind =
                fz_.has_bwd(cur) ? PointsKind::kRuntime : PointsKind::kStatic;
          }
          if (idx + 1 == chain.size()) {
            st.vf = MakeVfSite(next, cnode);
            st.tail_plan = CompilePlan(next, c);
          }
          cr.steps.push_back(st);
          cur = next;
        }
        rec.chains.push_back(std::move(cr));
      }
      recs.push_back(std::move(rec));
    }
    if (plan.zero_child) vector_fast = false;
    plan.vector_fast = vector_fast;

    // Append contiguously (recursion above may have appended other plans'
    // records in the meantime; ours land as one block).
    plan.child_begin = static_cast<uint32_t>(out_->children_.size());
    for (ChildRec& rec : recs) {
      CompiledTwig::Child child;
      child.kind = rec.kind;
      child.existential = rec.existential;
      child.descendant = rec.descendant;
      child.twig_node = rec.twig_node;
      child.chain_begin = static_cast<uint32_t>(out_->chains_.size());
      for (ChainRec& cr : rec.chains) {
        CompiledTwig::Chain ch;
        ch.step_begin = static_cast<uint32_t>(out_->steps_.size());
        ch.len = static_cast<uint32_t>(cr.steps.size());
        out_->steps_.insert(out_->steps_.end(), cr.steps.begin(),
                            cr.steps.end());
        out_->chains_.push_back(ch);
      }
      child.chain_end = static_cast<uint32_t>(out_->chains_.size());
      out_->children_.push_back(child);
    }
    plan.child_end = static_cast<uint32_t>(out_->children_.size());

    const int32_t id = static_cast<int32_t>(out_->plans_.size());
    out_->plans_.push_back(plan);
    plan_memo_.emplace(key, id);
    return id;
  }

  const TwigCompiler& compiler_;
  const FrozenSynopsis& fz_;
  const query::TwigQuery& twig_;
  CompiledTwig* out_;
  std::unordered_map<uint64_t, int32_t> plan_memo_;
};

util::Result<std::shared_ptr<const CompiledTwig>> TwigCompiler::Compile(
    const query::TwigQuery& twig) const {
  obs::SpanScope span(obs::Stage::kCompile,
                      static_cast<uint64_t>(twig.size()));
  if (util::Status st = twig.Validate(); !st.ok()) return st;
  const auto start = std::chrono::steady_clock::now();
  auto compiled = std::shared_ptr<CompiledTwig>(new CompiledTwig());
  compiled->frozen_ = frozen_;
  Builder(*this, twig, compiled.get()).Build();
  metric_compiles_->Increment();
  metric_compile_us_->Observe(
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - start)
          .count());
  return std::shared_ptr<const CompiledTwig>(std::move(compiled));
}

}  // namespace xsketch::core
