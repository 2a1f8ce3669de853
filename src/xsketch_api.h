// xsketch public facade: the single include for library consumers.
//
//   #include "xsketch_api.h"
//
// ## Stability tiers
//
// Tier 1 — `xsketch::api` (stable, versioned). The session-style entry
// points declared in this header: Session, PreparedQuery, and the
// Prepare / Execute / ExecuteBatch / Explain verbs. `api` is an alias of
// the inline namespace `api::v1`; a future incompatible revision ships as
// `api::v2` alongside it, so code written against `xsketch::api` keeps
// compiling across minor releases and opts into breaks explicitly.
//
// Tier 2 — component namespaces (stable surface, direct use supported).
// Everything re-exported by the includes below:
//   xml::       ParseDocument / WriteDocument / Document
//   data::      built-in generators (bibliography, XMark, IMDB, SwissProt)
//   query::     TwigQuery, ParsePath / ParseForClause, ExactEvaluator,
//               workload generation
//   core::      BuildOptions + XBuild, TwigXSketch (+ Coarsest) — the
//               build-time sketch; Estimator (the reference interpreter:
//               test oracle and XBUILD scorer); FrozenSynopsis +
//               TwigCompiler + CompiledTwig (the one estimation path,
//               explain included); SaveFrozen / LoadFrozen (XSK3, the
//               sketch file format)
//   service::   EstimationService — the concurrent batch engine the
//               Tier-1 Session wraps — plus SketchCatalog and
//               CanonicalTwigKey (the plan-cache / flight-record key)
//   exec::      StreamIndex (region-encoded label streams),
//               StructuralJoinExecutor (binary joins) and
//               HolisticTwigJoin — exact twig counting over documents
//   plan::      PlanTwig + CardinalityProvider — cost-based join
//               ordering driven by XSKETCH estimates (Session::Plan)
//   obs::       MetricsRegistry, ExplainTrace, Tracer + SpanScope
//               (structural tracing), FlightRecorder (last-N query
//               post-mortems)
//   util::      Status / Result, ThreadPool
// These are the extension points; api:: is sugar over them, and handles
// from the two tiers interoperate (Session exposes its service).
//
// Tier 3 — everything under src/ NOT reachable from this header (hist/,
// cst/, synopsis internals, util/simd.h): implementation detail, no
// stability promise. examples/ compile against this facade only.
//
// ## Quick start
//
//   auto session = xsketch::api::Session::Open(std::move(sketch));
//   auto q = session->Prepare("//open_auction[bidder]/seller");
//   double selectivity = q->Execute();           // compiled hot path
//
// Prepare lowers the query once (cached across calls); Execute runs the
// compiled program — bit-identical to the reference interpreter, roughly
// an order of magnitude faster on repeated shapes. A session holds only
// the frozen synopsis: the TwigXSketch an Open call receives is frozen
// and dropped.

#ifndef XSKETCH_XSKETCH_API_H_
#define XSKETCH_XSKETCH_API_H_

#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/builder.h"
#include "core/compile.h"
#include "exec/streams.h"
#include "exec/structural_join.h"
#include "exec/twig_stack.h"
#include "core/estimator.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "data/imdb.h"
#include "data/swissprot.h"
#include "data/xmark.h"
#include "obs/explain.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/evaluator.h"
#include "query/twig.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"
#include "service/sketch_catalog.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/writer.h"

namespace xsketch::api {
inline namespace v1 {

// A query lowered to a compiled program, bound to the Session that
// prepared it. Cheap to copy (shared handle), immutable, and safe to
// execute from any number of threads concurrently. Valid while the
// owning Session (any copy of it) is alive.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  // Estimated number of binding tuples — the compiled fast path,
  // bit-identical to core::Estimator::Estimate on the session's sketch.
  double Execute() const { return plan_->Execute(); }

  // Estimate plus diagnostics (bit-identical to EstimateWithStats,
  // counters included).
  core::EstimateStats ExecuteWithStats() const {
    return plan_->ExecuteWithStats();
  }

  // The underlying program (Tier-2 interop; diagnostics like
  // plan_count() / SizeBytes() live there).
  const core::CompiledTwig& plan() const { return *plan_; }

 private:
  friend class Session;
  explicit PreparedQuery(std::shared_ptr<const core::CompiledTwig> plan)
      : plan_(std::move(plan)) {}

  std::shared_ptr<const core::CompiledTwig> plan_;
};

// One synopsis opened for querying: owns the frozen synopsis, the
// compiler with its cross-query expansion cache, the LRU plan cache,
// and the batch thread pool (all via the underlying EstimationService;
// a one-thread session runs batches on the calling thread).
// Copyable shared handle; all methods are const and thread-safe.
class Session {
 public:
  // Freezes `sketch` (which is then dropped) and opens a session over the
  // frozen synopsis. Options default to hardware-concurrency batching;
  // see service::ServiceOptions.
  static util::Result<Session> Open(core::TwigXSketch sketch,
                                    const service::ServiceOptions& options =
                                        {}) {
    return Open(std::make_shared<const core::FrozenSynopsis>(sketch),
                options);
  }

  // Opens a session over an already-frozen synopsis — typically one
  // mmap-loaded from an XSK3 file. Every verb, Explain included, is
  // bit-identical to a session opened from the sketch itself.
  static util::Result<Session> Open(
      std::shared_ptr<const core::FrozenSynopsis> frozen,
      const service::ServiceOptions& options = {}) {
    auto svc = service::EstimationService::Create(std::move(frozen), options);
    if (!svc.ok()) return svc.status();
    return Session(std::shared_ptr<service::EstimationService>(
        std::move(svc).value()));
  }

  // mmap an XSK3 sketch file and open a frozen-only session over it. The
  // mapping stays pinned by the session (and by any PreparedQuery that
  // outlives it).
  static util::Result<Session> OpenMapped(
      const std::string& path, const service::ServiceOptions& options = {}) {
    auto frozen = core::LoadFrozenFile(path);
    if (!frozen.ok()) return frozen.status();
    return Open(std::move(frozen).value(), options);
  }

  // Lowers a validated twig to a compiled program (LRU-cached across
  // calls: preparing the same shape twice returns the cached program).
  util::Result<PreparedQuery> Prepare(const query::TwigQuery& twig) const {
    auto plan = service_->Prepare(twig);
    if (!plan.ok()) return plan.status();
    return PreparedQuery(std::move(plan).value());
  }

  // Convenience: parse an XPath-style path ("//a[b]/c[d>5]") against the
  // session's tag table, then Prepare it.
  util::Result<PreparedQuery> Prepare(std::string_view path) const {
    auto twig = query::ParsePath(path, service_->tags());
    if (!twig.ok()) return twig.status();
    return Prepare(twig.value());
  }

  // One-shot estimate with diagnostics: Prepare + execute (still through
  // the plan cache, so repeated shapes stay fast).
  util::Result<core::EstimateStats> Execute(
      const query::TwigQuery& twig) const {
    auto prepared = Prepare(twig);
    if (!prepared.ok()) return prepared.status();
    return prepared.value().ExecuteWithStats();
  }

  // Batch estimation across the session's thread pool, order-preserving;
  // per-query failures surface as failed Results. `stats` (optional)
  // receives aggregate observability including plan-cache activity.
  std::vector<util::Result<core::EstimateStats>> ExecuteBatch(
      std::span<const query::TwigQuery> queries,
      service::BatchStats* stats = nullptr) const {
    return service_->EstimateBatch(queries, stats);
  }

  // Cost-based join planning for `twig` with cardinalities from this
  // session's sketch (served through the compiled Prepare/Execute path,
  // so repeated sub-twig shapes hit the plan cache). The returned plan
  // drives exec::StructuralJoinExecutor / exec::HolisticTwigJoin against
  // the actual document — see plan/planner.h for the cost model.
  util::Result<plan::TwigPlan> Plan(
      const query::TwigQuery& twig,
      const plan::PlannerOptions& options = {}) const {
    plan::ServiceCardinalities cards(*service_);
    return plan::PlanTwig(twig, cards, options);
  }

  // Full explain trace of one estimate: Prepare (through the plan
  // cache), then the compiled program runs traced. The trace records
  // every E/U/D term, node for node what the reference interpreter's
  // EstimateWithTrace records; trace->estimate() and the returned
  // estimate are bit-identical to Execute(). `trace` must be non-null.
  util::Result<core::EstimateStats> Explain(const query::TwigQuery& twig,
                                            obs::ExplainTrace* trace) const {
    auto prepared = Prepare(twig);
    if (!prepared.ok()) return prepared.status();
    return prepared.value().plan().ExecuteWithTrace(trace);
  }

  // Tier-2 interop.
  const service::EstimationService& service() const { return *service_; }

 private:
  explicit Session(std::shared_ptr<service::EstimationService> service)
      : service_(std::move(service)) {}

  std::shared_ptr<service::EstimationService> service_;
};

}  // namespace v1
}  // namespace xsketch::api

#endif  // XSKETCH_XSKETCH_API_H_
