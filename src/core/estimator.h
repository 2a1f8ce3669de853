// Twig selectivity estimation over a Twig XSKETCH (paper §4).
//
// The estimator implements the TREEPARSE framework as a recursion over the
// query tree folded with the synopsis graph:
//
//  * Maximal expansion: '//' steps are expanded into concrete synopsis
//    label paths (depth-bounded — synopsis graphs of recursive schemas are
//    cyclic); multi-step alternatives become chains of intermediate
//    binding nodes. Alternative embeddings cover disjoint element sets on
//    tree data, so their estimates add.
//  * Covered counts (E_i): when the histogram at a node covers the edge a
//    query child traverses, the child's fanout is enumerated from the
//    histogram's (conditioned) buckets.
//  * Correlation (D_i): backward dimensions are conditioned on count
//    assignments made at ancestor steps (Correlation Scope Independence).
//  * Uncovered counts (U_i): Forward Uniformity — the average fanout
//    |n_i→n_j| / |n_i| from the synopsis edge counts.
//  * Forward Independence: joint terms across dimensions not covered by
//    one histogram factor into independent expectations.
//
// Branching (existential) predicates: for a child with fanout c and
// per-element satisfaction probability q, P[at least one match] =
// 1-(1-q)^c; on uncovered edges the stored parent fraction
// parent_count/|n| bounds existence, with the fanout conditioned on
// existence (child_count/parent_count). F-stable edges with q = 1 yield
// probability 1, matching the single-path XSKETCH framework.
//
// Value predicates multiply in the predicated node's value-histogram
// fraction (value independence, the paper's prototype configuration).
//
// Concurrency: one Estimator may be shared by any number of threads.
// Every mutable per-call structure (the conditioning stack, the memo
// table, the diagnostics sink) lives in a stack-local EvalState; the only
// state shared across calls is the read-only sketch and the descendant-
// path cache, which is sharded and mutex-guarded (see DescendantPathCache).

#ifndef XSKETCH_CORE_ESTIMATOR_H_
#define XSKETCH_CORE_ESTIMATOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/twig_xsketch.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "query/twig.h"
#include "util/status.h"

namespace xsketch::core {

struct EstimatorOptions {
  // Bounds on '//' expansion over the synopsis graph.
  int max_descendant_paths = 128;   // alternatives kept per '//' step; >= 1
  int max_path_length = 0;          // >= 0; 0: use document max depth + 1

  // Rejects nonsensical configurations (non-positive path cap, negative
  // length bound). Construction boundaries (Estimator, XBuild,
  // EstimationService) require Validate().ok().
  util::Status Validate() const;
};

// Diagnostics: which estimation mechanisms a query exercised. Counts are
// per-Estimate-call totals over every node/alternative visited.
struct EstimateStats {
  double estimate = 0.0;
  int covered_terms = 0;       // fanouts read from histogram buckets (E_i)
  int uniformity_terms = 0;    // Forward Uniformity fallbacks (U_i)
  int conditioned_nodes = 0;   // Correlation Scope conditionings (D_i)
  int value_fractions = 0;     // value-predicate fractions applied
  int existential_terms = 0;   // branching-predicate factors
  int descendant_chains = 0;   // '//' expansion alternatives evaluated
};

// Memo of '//' expansions, shared by all threads using one Estimator.
// Sharded by key hash; each shard is guarded by its own mutex so
// concurrent lookups of distinct (node, tag) pairs rarely contend. Stored
// path lists sit behind unique_ptr, so references returned to callers
// survive shard rehashing; entries are never erased or overwritten
// (first-writer-wins on a compute race), so a returned reference is valid
// for the cache's lifetime.
class DescendantPathCache {
 public:
  using Paths = std::vector<std::vector<SynNodeId>>;

  struct Counters {
    uint64_t lookups = 0;
    uint64_t hits = 0;
  };

  // Reports its counters as xsketch_path_cache_{lookups,hits}_total in
  // the default registry.
  DescendantPathCache();

  // The cached expansion for `key`, or nullptr. Counts one lookup.
  const Paths* Find(uint64_t key) const;

  // Inserts `paths` unless another thread won the race; either way returns
  // the stored expansion for `key`.
  const Paths& Insert(uint64_t key, Paths paths) const;

  // Snapshot of this cache's lifetime counters. hits <= lookups holds even
  // against concurrent writers: a lookup is recorded before its hit is
  // published (release), and the snapshot reads hits (acquire) before
  // lookups, so any hit it observes implies its lookup is visible.
  Counters counters() const {
    const uint64_t hits = hits_.value();
    const uint64_t lookups = lookups_.value();
    return {lookups, hits};
  }

 private:
  static constexpr size_t kShards = 16;

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::unique_ptr<const Paths>> map;
  };

  Shard& shard(uint64_t key) const {
    return shards_[(key * 0x9E3779B97F4A7C15ull) >> 60];
  }

  mutable std::array<Shard, kShards> shards_;
  mutable obs::OwnedCounter lookups_;
  mutable obs::OwnedCounter hits_;
};

// Shareable, internally synchronized estimator: all public methods are
// const and safe to call concurrently from many threads (the sketch must
// outlive the Estimator and stay unmodified while estimates run).
class Estimator {
 public:
  // Requires options.Validate().ok(); pre-validate via
  // EstimatorOptions::Validate when options come from untrusted input.
  explicit Estimator(const TwigXSketch& sketch,
                     const EstimatorOptions& options = {});

  Estimator(const Estimator&) = delete;
  Estimator& operator=(const Estimator&) = delete;

  // Estimated number of binding tuples for `twig`. Deterministic; never
  // negative. Queries over absent labels estimate 0. The twig must be
  // well-formed (see TwigQuery::Validate); use EstimateChecked for
  // untrusted queries.
  double Estimate(const query::TwigQuery& twig) const;

  // Same estimate plus diagnostics about the assumptions applied.
  EstimateStats EstimateWithStats(const query::TwigQuery& twig) const;

  // Same estimate plus a full explain trace: per twig node, the E/U term
  // kind chosen, the histogram buckets read (and conditioned dimensions,
  // the D terms), value/existential fractions, and every '//' expansion
  // alternative with its contribution. The trace records the estimator's
  // own arithmetic, so trace->estimate() equals the returned estimate bit
  // for bit (see obs/explain.h). `trace` is cleared first.
  EstimateStats EstimateWithTrace(const query::TwigQuery& twig,
                                  obs::ExplainTrace* trace) const;

  // Same estimate plus the synopsis nodes whose data (count, edges,
  // summary) it read, sorted and deduplicated into `reads`. Estimating on
  // a sketch that differs only at other nodes, with the same
  // HasBackwardDims(), gives the same result bit for bit. The '//'
  // expansion below the twig root also explores nodes it does not record,
  // so that guarantee covers only twigs whose '//' steps are at the root.
  double EstimateWithReads(const query::TwigQuery& twig,
                           std::vector<SynNodeId>* reads) const;

  // Validating entry point for queries from untrusted sources: rejects
  // malformed twigs (empty query, dangling branch, existential root) with
  // Status::InvalidArgument instead of relying on XS_CHECK aborts.
  util::Result<EstimateStats> EstimateChecked(
      const query::TwigQuery& twig) const;

  // Cumulative '//'-expansion cache statistics (all calls so far).
  DescendantPathCache::Counters path_cache_counters() const {
    return path_cache_.counters();
  }

 private:
  struct CtxEntry {
    SynNodeId from;
    SynNodeId to;
    double value;
  };
  // Per-call evaluation state: the conditioning stack plus a memo for
  // context-free subtrees. Stack-local to each Estimate call — this is
  // what keeps concurrent calls from sharing mutable state.
  struct EvalState {
    const query::TwigQuery* twig = nullptr;
    std::vector<CtxEntry> ctx;
    std::unordered_map<uint64_t, double> memo;
    bool memo_enabled = false;
    // True when the sketch has backward dims: histogram buckets must then
    // be enumerated even at nodes with no covered child step, so that
    // forward assignments are on the context stack for deeper
    // conditioning. Kept separate from memo_enabled so that stats/trace
    // runs (memo off) follow bit-identical arithmetic to plain Estimate.
    bool enumerate_all = false;
    EstimateStats* stats = nullptr;       // optional diagnostics sink
    obs::ExplainTrace* trace = nullptr;   // optional explain sink
    std::vector<SynNodeId>* reads = nullptr;  // optional read-set sink

    void Read(SynNodeId n) {
      if (reads != nullptr) reads->push_back(n);
    }
  };

  double EstimateImpl(const query::TwigQuery& twig, EstimateStats* stats,
                      obs::ExplainTrace* trace,
                      std::vector<SynNodeId>* reads = nullptr) const;

  double EvalSubtree(SynNodeId n, int t, EvalState& state) const;
  double ChildTerm(SynNodeId n, int child,
                   const std::vector<hist::WeightedPoint>& points,
                   size_t point_index, EvalState& state) const;
  double ChainTerm(SynNodeId cur, const std::vector<SynNodeId>& chain,
                   size_t index, int t, bool existential,
                   EvalState& state) const;
  double StepFactor(SynNodeId cur, SynNodeId next, double count,
                    bool covered, const std::vector<SynNodeId>& chain,
                    size_t index, int t, bool existential,
                    EvalState& state) const;

  // Conditioned bucket view of n's histogram given the current context; a
  // single unit point when the node has no histogram.
  std::vector<hist::WeightedPoint> ConditionedPoints(SynNodeId n,
                                                     EvalState& state) const;

  // Value-predicate fraction for twig node t evaluated at synopsis node n
  // (records the stats/trace entry; ValueFractionImpl does the math).
  double ValueFraction(SynNodeId n, int t, EvalState& state) const;
  double ValueFractionImpl(SynNodeId n, int t, EvalState& state) const;

  // Rendering helpers for explain traces.
  std::string SynLabel(SynNodeId n) const;
  std::string ChainLabel(SynNodeId from,
                         const std::vector<SynNodeId>& chain) const;

  // All synopsis label paths n -> ... -> (tag) with length in
  // [1, max_path_length], capped at max_descendant_paths. Cached in the
  // shared, thread-safe path cache.
  const DescendantPathCache::Paths& DescendantPaths(SynNodeId n,
                                                    xml::TagId tag) const;

  // Process-wide registry handles (shared across all Estimators). The
  // query counter covers every Estimate* call; the per-term counters are
  // recorded on the stats-bearing paths (EstimateWithStats /
  // EstimateChecked / EstimationService batches), where term counting
  // happens anyway — plain Estimate() keeps its memoized fast path.
  struct Metrics {
    obs::Counter* queries;
    obs::Counter* rejected;
    obs::Counter* covered_terms;
    obs::Counter* uniformity_terms;
    obs::Counter* conditioned_nodes;
    obs::Counter* value_fractions;
    obs::Counter* existential_terms;
    obs::Counter* descendant_chains;
  };

  const TwigXSketch& sketch_;
  EstimatorOptions options_;
  int path_length_cap_;
  DescendantPathCache path_cache_;
  Metrics metrics_;
};

}  // namespace xsketch::core

#endif  // XSKETCH_CORE_ESTIMATOR_H_
