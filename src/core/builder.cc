#include "core/builder.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/percentiles.h"
#include "util/thread_pool.h"

namespace xsketch::core {

namespace {

using Clock = std::chrono::steady_clock;

double Millis(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double MillisSince(Clock::time_point start) {
  return Millis(start, Clock::now());
}

// Elements of v whose parent lies in u (b-stabilize split set).
std::vector<xml::NodeId> ElementsWithParentIn(const Synopsis& syn,
                                              SynNodeId v, SynNodeId u) {
  std::vector<xml::NodeId> subset;
  const xml::Document& doc = syn.doc();
  for (xml::NodeId e : syn.Extent(v)) {
    const xml::NodeId p = doc.parent(e);
    if (p != xml::kInvalidNode && syn.NodeOf(p) == u) subset.push_back(e);
  }
  return subset;
}

// Elements of u with at least one child in v (f-stabilize split set).
std::vector<xml::NodeId> ElementsWithChildIn(const Synopsis& syn,
                                             SynNodeId u, SynNodeId v) {
  std::vector<xml::NodeId> subset;
  const xml::Document& doc = syn.doc();
  for (xml::NodeId e : syn.Extent(u)) {
    bool has = false;
    doc.ForEachChild(e, [&](xml::NodeId c) {
      if (!has && syn.NodeOf(c) == v) has = true;
    });
    if (has) subset.push_back(e);
  }
  return subset;
}

bool ProperSubset(size_t subset, size_t total) {
  return subset > 0 && subset < total;
}

}  // namespace

bool ApplyRefinement(TwigXSketch* sketch, const Refinement& r,
                     std::vector<SynNodeId>* changed) {
  const Synopsis& syn = sketch->synopsis();
  switch (r.kind) {
    case Refinement::Kind::kBStabilize: {
      // Split r.node so that the edge (r.other -> subset) becomes B-stable.
      const SynEdge* edge = syn.FindEdge(r.other, r.node);
      if (edge == nullptr || edge->backward_stable) return false;
      std::vector<xml::NodeId> subset =
          ElementsWithParentIn(syn, r.node, r.other);
      if (!ProperSubset(subset.size(), syn.Extent(r.node).size())) {
        return false;
      }
      sketch->SplitNode(r.node, subset, changed);
      return true;
    }
    case Refinement::Kind::kFStabilize: {
      const SynEdge* edge = syn.FindEdge(r.node, r.other);
      if (edge == nullptr || edge->forward_stable) return false;
      std::vector<xml::NodeId> subset =
          ElementsWithChildIn(syn, r.node, r.other);
      if (!ProperSubset(subset.size(), syn.Extent(r.node).size())) {
        return false;
      }
      sketch->SplitNode(r.node, subset, changed);
      return true;
    }
    case Refinement::Kind::kEdgeRefine: {
      const NodeSummary& s = sketch->summary(r.node);
      if (s.scope.empty()) return false;
      // Pointless once the histogram is exact (buckets < budget).
      if (s.hist.bucket_count() < s.bucket_budget) return false;
      sketch->RefineEdgeHistogram(r.node);
      break;
    }
    case Refinement::Kind::kEdgeExpand:
      if (!sketch->ExpandScope(r.node, r.ref)) return false;
      break;
    case Refinement::Kind::kValueRefine: {
      const NodeSummary& s = sketch->summary(r.node);
      if (s.values.empty()) return false;
      if (s.values.bucket_count() < s.value_bucket_budget) return false;
      sketch->RefineValueHistogram(r.node);
      break;
    }
    case Refinement::Kind::kValueExpand:
      if (!sketch->ExpandValueScope(r.node, r.ref)) return false;
      break;
  }
  // Histogram refinements change only the refined node's summary.
  if (changed != nullptr) changed->push_back(r.node);
  return true;
}

const char* RefinementKindName(Refinement::Kind kind) {
  switch (kind) {
    case Refinement::Kind::kBStabilize: return "b-stabilize";
    case Refinement::Kind::kFStabilize: return "f-stabilize";
    case Refinement::Kind::kEdgeRefine: return "edge-refine";
    case Refinement::Kind::kEdgeExpand: return "edge-expand";
    case Refinement::Kind::kValueRefine: return "value-refine";
    case Refinement::Kind::kValueExpand: return "value-expand";
  }
  return "unknown";
}

XBuild::XBuild(const xml::Document& doc, const BuildOptions& options)
    : doc_(doc), options_(options) {
  // Fail fast on nonsensical sub-options instead of aborting mid-build.
  XS_CHECK_MSG(options_.num_threads >= 0,
               "BuildOptions::num_threads must be >= 0");
  const util::Status coarsest = options_.coarsest.Validate();
  XS_CHECK_MSG(coarsest.ok(), coarsest.ToString().c_str());
  const util::Status estimator = options_.estimator.Validate();
  XS_CHECK_MSG(estimator.ok(), estimator.ToString().c_str());
}

double XBuild::WorkloadError(const TwigXSketch& sketch,
                             const query::Workload& workload,
                             const EstimatorOptions& options) {
  Estimator estimator(sketch, options);
  std::vector<double> estimates;
  estimates.reserve(workload.queries.size());
  for (const auto& q : workload.queries) {
    estimates.push_back(estimator.Estimate(q.twig));
  }
  return query::AvgRelativeError(workload, estimates,
                                 workload.SanityBound());
}

namespace {

// True if the sorted sets `a` and `b` share an element.
bool Intersects(const std::vector<SynNodeId>& a,
                const std::vector<SynNodeId>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i == *j) return true;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// True if some step below the twig root uses '//'.
bool HasInnerDescendantStep(const query::TwigQuery& twig) {
  for (int t = 0; t < twig.size(); ++t) {
    if (t != twig.root() && twig.node(t).axis == query::Axis::kDescendant) {
      return true;
    }
  }
  return false;
}

}  // namespace

SampleScorer::SampleScorer(const TwigXSketch& sketch,
                           const query::Workload& workload,
                           const EstimatorOptions& options)
    : workload_(workload),
      options_(options),
      sanity_bound_(workload.SanityBound()),
      backward_dims_(sketch.HasBackwardDims()) {
  const size_t n = workload.queries.size();
  always_rescore_.resize(n);
  estimates_.resize(n);
  reads_.resize(n);
  Estimator estimator(sketch, options_);
  for (size_t q = 0; q < n; ++q) {
    always_rescore_[q] = HasInnerDescendantStep(workload.queries[q].twig);
    estimates_[q] =
        estimator.EstimateWithReads(workload.queries[q].twig, &reads_[q]);
  }
  error_ = query::AvgRelativeError(workload_, estimates_, sanity_bound_);
}

SampleScorer::Trial SampleScorer::Score(
    const TwigXSketch& trial, std::vector<SynNodeId> changed) const {
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  Trial out;
  out.backward_dims = trial.HasBackwardDims();
  // enumerate_all follows HasBackwardDims(): a flip changes every query.
  const bool all = out.backward_dims != backward_dims_;
  out.estimates = estimates_;
  std::optional<Estimator> estimator;
  for (size_t q = 0; q < estimates_.size(); ++q) {
    if (!all && !always_rescore_[q] && !Intersects(reads_[q], changed)) {
      continue;
    }
    if (!estimator) estimator.emplace(trial, options_);
    out.reads.emplace_back(q, std::vector<SynNodeId>());
    out.estimates[q] = estimator->EstimateWithReads(
        workload_.queries[q].twig, &out.reads.back().second);
  }
  out.error = query::AvgRelativeError(workload_, out.estimates,
                                      sanity_bound_);
  return out;
}

void SampleScorer::Accept(Trial trial) {
  error_ = trial.error;
  estimates_ = std::move(trial.estimates);
  backward_dims_ = trial.backward_dims;
  for (auto& [q, reads] : trial.reads) reads_[q] = std::move(reads);
}

query::Workload XBuild::SampleWorkload() const {
  // Exact true counts; the seed is derived from the build's.
  query::WorkloadOptions wopts;
  wopts.seed = options_.seed ^ 0x5eedf00dULL;
  wopts.num_queries = options_.sample_queries;
  wopts.min_nodes = 3;
  wopts.max_nodes = 6;
  wopts.existential_prob = options_.sample_existential_prob;
  wopts.value_pred_fraction = options_.sample_value_pred_fraction;
  return query::GeneratePositiveWorkload(doc_, wopts);
}

std::vector<Refinement> XBuild::GenerateCandidates(const TwigXSketch& sketch,
                                                   util::Rng& rng) const {
  const Synopsis& syn = sketch.synopsis();

  // Node sampling weights: extent size * (1 + unstable incident edges).
  std::vector<double> cumulative(syn.node_count());
  double acc = 0.0;
  for (SynNodeId n = 0; n < syn.node_count(); ++n) {
    const double w =
        static_cast<double>(syn.node(n).count) *
        (1.0 + static_cast<double>(syn.UnstableDegree(n)));
    acc += w;
    cumulative[n] = acc;
  }
  if (acc <= 0.0) return {};

  auto sample_node = [&]() -> SynNodeId {
    const double u = rng.NextDouble() * acc;
    return static_cast<SynNodeId>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
  };

  std::vector<Refinement> out;
  int guard = 0;
  while (static_cast<int>(out.size()) < options_.candidates_per_iteration &&
         ++guard < options_.candidates_per_iteration * 8) {
    const SynNodeId n = sample_node();
    const SynNode& node = syn.node(n);
    const NodeSummary& summary = sketch.summary(n);

    // Collect applicable refinements at n, then pick one at random.
    std::vector<Refinement> local;
    if (options_.enable_structural) {
      for (SynNodeId p : node.parents) {
        const SynEdge* e = syn.FindEdge(p, n);
        if (e != nullptr && !e->backward_stable) {
          local.push_back({Refinement::Kind::kBStabilize, n, p, {}});
        }
      }
      for (const SynEdge& e : node.children) {
        if (!e.forward_stable) {
          local.push_back({Refinement::Kind::kFStabilize, n, e.child, {}});
        }
      }
    }
    if (options_.enable_edge_refine && !summary.scope.empty() &&
        summary.hist.bucket_count() >= summary.bucket_budget) {
      local.push_back({Refinement::Kind::kEdgeRefine, n, kInvalidSynNode, {}});
    }
    if (options_.enable_edge_expand &&
        static_cast<int>(summary.scope.size()) < options_.max_hist_dims) {
      for (const SynEdge& e : node.children) {
        if (summary.FindForwardDim(n, e.child) < 0) {
          local.push_back({Refinement::Kind::kEdgeExpand, n, kInvalidSynNode,
                           CountRef{true, n, e.child}});
        }
      }
      if (options_.allow_backward_counts) {
        // Backward candidates vastly outnumber forward ones (every edge of
        // every TSN ancestor); sample a bounded handful so they do not
        // drown out the other refinement kinds.
        std::vector<CountRef> backward;
        for (SynNodeId a : syn.TwigStableNeighborhood(n)) {
          if (a == n) continue;
          for (const SynEdge& e : syn.node(a).children) {
            if (summary.FindBackwardDim(a, e.child) < 0) {
              backward.push_back(CountRef{false, a, e.child});
            }
          }
        }
        for (int pick = 0; pick < 2 && !backward.empty(); ++pick) {
          const size_t i = rng.Uniform(backward.size());
          local.push_back({Refinement::Kind::kEdgeExpand, n,
                           kInvalidSynNode, backward[i]});
          backward.erase(backward.begin() + static_cast<long>(i));
        }
      }
    }
    if (options_.enable_value_refine && !summary.values.empty() &&
        summary.values.bucket_count() >= summary.value_bucket_budget) {
      local.push_back(
          {Refinement::Kind::kValueRefine, n, kInvalidSynNode, {}});
    }
    if (options_.allow_value_correlation && !summary.values.empty()) {
      // Correlate the node's value with counts at its (B-stable-reachable)
      // ancestors — e.g. a movie type with the movie's actor count.
      std::vector<CountRef> vrefs;
      for (SynNodeId a : syn.TwigStableNeighborhood(n)) {
        for (const SynEdge& e : syn.node(a).children) {
          bool present = false;
          for (const CountRef& r : summary.value_scope) {
            if (r.from == a && r.to == e.child) present = true;
          }
          if (!present) vrefs.push_back(CountRef{a == n, a, e.child});
        }
      }
      for (int pick = 0; pick < 2 && !vrefs.empty(); ++pick) {
        const size_t i = rng.Uniform(vrefs.size());
        local.push_back(
            {Refinement::Kind::kValueExpand, n, kInvalidSynNode, vrefs[i]});
        vrefs.erase(vrefs.begin() + static_cast<long>(i));
      }
    }
    if (local.empty()) continue;
    out.push_back(local[rng.Uniform(local.size())]);
  }
  return out;
}

TwigXSketch XBuild::Build(const StepCallback& on_step, BuildStats* stats) {
  const Clock::time_point build_start = Clock::now();
  // Traced only under the caller's sampled trace; iterations attach
  // beneath the build span.
  obs::SpanScope build_span(obs::Stage::kBuild, options_.budget_bytes);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter& m_builds =
      reg.GetCounter("xsketch_build_runs_total", "XBUILD invocations");
  obs::Counter& m_iterations =
      reg.GetCounter("xsketch_build_iterations_total",
                     "accepted refinements across all builds");
  obs::Counter& m_scored =
      reg.GetCounter("xsketch_build_candidates_scored_total",
                     "sample-workload evaluations of candidate refinements");
  obs::Histogram& m_scoring_ms =
      reg.GetHistogram("xsketch_build_scoring_ms", obs::DurationBucketsMs(),
                       "per-iteration candidate-scoring wall time (ms)");
  obs::Gauge& m_final_size = reg.GetGauge(
      "xsketch_build_final_size_bytes", "size of the last built synopsis");
  obs::Gauge& m_final_error =
      reg.GetGauge("xsketch_build_final_error",
                   "sample-workload error of the last built synopsis");
  m_builds.Increment();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc_, options_.coarsest);
  util::Rng rng(options_.seed);

  // Sample workload for marginal-gain scoring, and its error on the
  // current sketch (the base every candidate is scored against).
  const query::Workload sample = SampleWorkload();
  std::optional<SampleScorer> scorer;
  if (options_.score_candidates) {
    scorer.emplace(sketch, sample, options_.estimator);
  }

  // Candidate scoring is embarrassingly parallel: every trial starts from
  // a private copy of the current sketch, and the sample workload and the
  // scorer's base are read-only. The calling thread scores too, next to
  // num_threads - 1 pool workers. The workload-oblivious ablation takes
  // the first applicable candidate without scoring, so there is nothing
  // to fan out there.
  const int num_threads = options_.num_threads > 0
                              ? options_.num_threads
                              : util::ThreadPool::HardwareThreads();
  std::unique_ptr<util::ThreadPool> workers;
  if (options_.score_candidates && num_threads > 1) {
    workers = std::make_unique<util::ThreadPool>(num_threads - 1);
  }

  BuildStats agg;
  agg.num_threads = workers ? num_threads : 1;
  std::vector<double> scoring_ms;

  // Per-candidate scoring slot, filled independently (possibly on a
  // worker) and reduced on the calling thread with index tie-breaks, so
  // the accepted refinement never depends on scheduling.
  struct Scored {
    bool applicable = false;
    size_t size_after = 0;
    SampleScorer::Trial scored;
    double copy_ms = 0.0;
    double apply_ms = 0.0;
    double rescore_ms = 0.0;
  };

  int stall = 0;
  uint64_t iteration_no = 0;
  while (sketch.SizeBytes() < options_.budget_bytes && stall < 15) {
    obs::SpanScope iter_span(obs::Stage::kBuildIteration, iteration_no++);
    const std::vector<Refinement> candidates =
        GenerateCandidates(sketch, rng);
    if (candidates.empty()) break;
    agg.candidates_generated += static_cast<int64_t>(candidates.size());

    const size_t size_before = sketch.SizeBytes();

    if (!options_.score_candidates) {
      bool accepted = false;
      for (const Refinement& r : candidates) {
        TwigXSketch trial = sketch;
        if (!ApplyRefinement(&trial, r)) continue;
        if (trial.SizeBytes() <= size_before) continue;
        sketch = std::move(trial);
        ++agg.iterations;
        ++agg.accepted_by_kind[static_cast<size_t>(r.kind)];
        accepted = true;
        break;  // workload-oblivious: take the first applicable candidate
      }
      if (!accepted) {
        ++stall;
        continue;
      }
      stall = 0;
      if (on_step) on_step(sketch, sketch.SizeBytes());
      continue;
    }

    const Clock::time_point scoring_start = Clock::now();
    std::vector<Scored> scored(candidates.size());
    auto score_one = [&](size_t i) {
      Scored& slot = scored[i];
      const Clock::time_point copy_start = Clock::now();
      std::optional<TwigXSketch> trial(sketch);
      const Clock::time_point apply_start = Clock::now();
      std::vector<SynNodeId> changed;
      const bool applied = ApplyRefinement(&*trial, candidates[i], &changed);
      const size_t size_after = trial->SizeBytes();
      Clock::time_point end = Clock::now();
      slot.apply_ms = Millis(apply_start, end);
      if (applied && size_after > size_before) {
        slot.applicable = true;
        slot.size_after = size_after;
        slot.scored = scorer->Score(*trial, std::move(changed));
        const Clock::time_point rescore_end = Clock::now();
        slot.rescore_ms = Millis(end, rescore_end);
        end = rescore_end;
      }
      // The trial dies here, in its task; the copy's cost includes the
      // free.
      trial.reset();
      slot.copy_ms = Millis(copy_start, apply_start) + MillisSince(end);
    };
    // Every scoring thread, the calling one included, claims the next
    // unscored candidate until none is left: a task is short, and a
    // worker that wakes late finds the work already done.
    std::atomic<size_t> next{0};
    auto drain = [&] {
      for (size_t i; (i = next.fetch_add(1)) < candidates.size();) {
        score_one(i);
      }
    };
    if (workers) {
      util::TaskGroup group(workers.get());
      for (int w = 0; w < workers->num_threads(); ++w) group.Submit(drain);
      drain();
      group.Wait();
    } else {
      drain();
    }
    scoring_ms.push_back(MillisSince(scoring_start));
    m_scoring_ms.Observe(scoring_ms.back());

    // Deterministic reduction: best gain wins, earliest candidate on ties.
    const double error_before = scorer->error();
    int best_i = -1;
    double best_gain = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < scored.size(); ++i) {
      agg.copy_ms += scored[i].copy_ms;
      agg.apply_ms += scored[i].apply_ms;
      agg.rescore_ms += scored[i].rescore_ms;
      if (!scored[i].applicable) continue;
      ++agg.candidates_scored;
      agg.queries_rescored +=
          static_cast<int64_t>(scored[i].scored.reads.size());
      const double gain =
          (error_before - scored[i].scored.error) /
          static_cast<double>(scored[i].size_after - size_before);
      if (best_i < 0 || gain > best_gain) {
        best_gain = gain;
        best_i = static_cast<int>(i);
      }
    }
    if (best_i < 0) {
      ++stall;
      continue;
    }
    stall = 0;
    // Applying the winner again gives its trial sketch (refinements are
    // deterministic), so no task has to hand its copy over.
    const Refinement& winner = candidates[static_cast<size_t>(best_i)];
    XS_CHECK(ApplyRefinement(&sketch, winner));
    scorer->Accept(std::move(scored[static_cast<size_t>(best_i)].scored));
    ++agg.iterations;
    ++agg.accepted_by_kind[static_cast<size_t>(winner.kind)];
    if (on_step) on_step(sketch, sketch.SizeBytes());
  }

  m_iterations.Increment(static_cast<uint64_t>(agg.iterations));
  m_scored.Increment(static_cast<uint64_t>(agg.candidates_scored));
  m_final_size.Set(static_cast<double>(sketch.SizeBytes()));

  if (scorer) m_final_error.Set(scorer->error());

  if (stats != nullptr) {
    agg.scoring_p50_ms = util::Percentile(scoring_ms, 0.50);
    agg.scoring_p95_ms = util::Percentile(scoring_ms, 0.95);
    agg.wall_ms = MillisSince(build_start);
    agg.final_size_bytes = sketch.SizeBytes();
    agg.final_error = scorer ? scorer->error() : 0.0;
    *stats = agg;
  }
  return sketch;
}

}  // namespace xsketch::core
