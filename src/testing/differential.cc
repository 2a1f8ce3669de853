#include "testing/differential.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "core/builder.h"
#include "core/compile.h"
#include "core/estimator.h"
#include "core/frozen_io.h"
#include "exec/streams.h"
#include "exec/structural_join.h"
#include "exec/twig_stack.h"
#include "obs/explain.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "plan/cardinality.h"
#include "plan/planner.h"
#include "query/evaluator.h"
#include "service/estimation_service.h"
#include "testing/seed.h"
#include "util/check.h"

namespace xsketch::testing {

namespace {

// Slack applied to the structural upper bound: bucketized fanouts are
// means over boxes, so tiny floating-point excursions above the exact
// bound are legitimate; anything materially larger is a real bug.
constexpr double kBoundSlack = 1.0 + 1e-6;

// Structural upper bound on the number of binding tuples a twig can
// estimate to. Child-axis binding nodes contribute |extent(tag)| — no
// assignment can bind more elements than carry the tag. Descendant-axis
// nodes additionally multiply by the document size: a '//' step is
// estimated as a sum over synopsis label paths whose interior nodes can
// route through at most every element once, and interior nodes are not
// query nodes, so their multiplicity is bounded by |doc| rather than by
// any query tag's extent.
double StructuralUpperBound(const xml::Document& doc,
                            const query::TwigQuery& twig) {
  double bound = 1.0;
  for (int t = 0; t < twig.size(); ++t) {
    const auto& node = twig.node(t);
    if (node.existential) continue;  // existential factors are in [0, 1]
    if (node.tag >= doc.tag_count()) return 0.0;  // absent label
    bound *= static_cast<double>(doc.NodesWithTag(node.tag).size());
    if (node.axis == query::Axis::kDescendant) {
      bound *= static_cast<double>(doc.size());
    }
  }
  return bound;
}

// Estimator options shared by every estimation path the checker compares
// (direct, batch, XBUILD scoring) — bit-identity needs like against like.
// Stable documents get the production defaults: their synopsis is acyclic
// (schema child tags strictly increase), so full '//' expansion is cheap,
// and the exactness oracle requires it — a truncated expansion
// legitimately underestimates.
core::EstimatorOptions EstimatorOptionsFor(const DifferentialOptions& options,
                                           DocShape shape) {
  core::EstimatorOptions eopts;
  if (shape == DocShape::kStable) return eopts;
  eopts.max_descendant_paths = options.max_descendant_paths;
  eopts.max_path_length = options.max_path_length;
  return eopts;
}

bool HasEmptyRangePredicate(const query::TwigQuery& twig) {
  for (int t = 0; t < twig.size(); ++t) {
    const auto& pred = twig.node(t).pred;
    if (pred.has_value() && pred->lo > pred->hi) return true;
  }
  return false;
}

std::string FormatDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string DescribeNode(const obs::ExplainNode& n) {
  return "{" + n.kind + " '" + n.label + "' t" + std::to_string(n.twig_node) +
         " " + FormatDouble(n.value) + " buckets " +
         std::to_string(n.buckets_read) + " dims " +
         std::to_string(n.conditioned_dims) + " children " +
         std::to_string(n.children.size()) + "}";
}

// Compares two explain trees node for node: op, kind, label, twig node,
// value bits, buckets read, conditioned dims and child count. Returns ""
// when equal, else the path to the first difference.
std::string TraceDiff(const obs::ExplainNode& want,
                      const obs::ExplainNode& got, const std::string& path) {
  const std::string here = path + "/" + want.kind;
  if (want.op != got.op || want.kind != got.kind ||
      want.label != got.label || want.twig_node != got.twig_node ||
      std::memcmp(&want.value, &got.value, sizeof(double)) != 0 ||
      want.buckets_read != got.buckets_read ||
      want.conditioned_dims != got.conditioned_dims ||
      want.children.size() != got.children.size()) {
    return here + ": interpreter " + DescribeNode(want) + " vs compiled " +
           DescribeNode(got);
  }
  for (size_t i = 0; i < want.children.size(); ++i) {
    std::string diff = TraceDiff(want.children[i], got.children[i],
                                 here + "[" + std::to_string(i) + "]");
    if (!diff.empty()) return diff;
  }
  return "";
}

// The compiled trace and its stats counters against the interpreter's.
std::string ExplainDiff(const obs::ExplainTrace& want,
                        const core::EstimateStats& want_stats,
                        const obs::ExplainTrace& got,
                        const core::EstimateStats& got_stats) {
  if (want.empty() != got.empty()) {
    return std::string("interpreter trace is ") +
           (want.empty() ? "empty" : "non-empty") + ", compiled trace is " +
           (got.empty() ? "empty" : "non-empty");
  }
  if (!want.empty()) {
    std::string diff = TraceDiff(want.root(), got.root(), "");
    if (!diff.empty()) return diff;
  }
  if (std::memcmp(&want_stats.estimate, &got_stats.estimate,
                  sizeof(double)) != 0 ||
      want_stats.covered_terms != got_stats.covered_terms ||
      want_stats.uniformity_terms != got_stats.uniformity_terms ||
      want_stats.conditioned_nodes != got_stats.conditioned_nodes ||
      want_stats.value_fractions != got_stats.value_fractions ||
      want_stats.existential_terms != got_stats.existential_terms ||
      want_stats.descendant_chains != got_stats.descendant_chains) {
    return "stats diverged: interpreter estimate " +
           FormatDouble(want_stats.estimate) + ", compiled " +
           FormatDouble(got_stats.estimate) + " (or a term counter)";
  }
  return "";
}

class Checker {
 public:
  Checker(DocShape shape, uint64_t doc_seed, DifferentialReport* report)
      : shape_(shape), doc_seed_(doc_seed), report_(report) {}

  // Records one invariant evaluation; on failure captures the full repro.
  bool Check(bool ok, const std::string& invariant, int query_index,
             const query::TwigQuery& twig, const util::StringInterner& tags,
             const std::string& detail) {
    ++report_->invariant_checks;
    if (ok) return true;
    DifferentialFailure f;
    f.invariant = invariant;
    f.shape = DocShapeName(shape_);
    f.doc_seed = doc_seed_;
    f.query_index = query_index;
    f.query = twig.ToString(tags);
    f.detail = detail;
    std::ostringstream repro;
    repro << "XSKETCH_DIFF_SHAPE=" << DocShapeName(shape_)
          << " XSKETCH_DIFF_DOC_SEED=" << doc_seed_
          << " XSKETCH_DIFF_QUERY=" << query_index
          << " ./build/tests/differential_test"
          << " --gtest_filter='*SinglePairRepro*'";
    f.repro = repro.str();
    // Attach the flight record when one exists for this twig: every
    // query also runs through the traced service (recorder on), so
    // failures usually carry per-stage latency and the served estimate.
    obs::FlightRecord rec;
    if (obs::FlightRecorder::Default().FindByKey(
            service::CanonicalTwigKey(twig), &rec)) {
      f.flight = rec.ToJson();
    }
    report_->failures.push_back(std::move(f));
    return false;
  }

 private:
  DocShape shape_;
  uint64_t doc_seed_;
  DifferentialReport* report_;
};

// Checks every invariant of one sketch over one document's query set.
// `only_query` of -1 checks all queries.
void CheckSketch(const DifferentialOptions& options, DocShape shape,
                 uint64_t doc_seed, const xml::Document& doc,
                 const core::TwigXSketch& sketch, const char* sketch_name,
                 const std::vector<query::TwigQuery>& queries,
                 const std::vector<uint64_t>& exact_counts, int only_query,
                 DifferentialReport* report) {
  Checker check(shape, doc_seed, report);
  const util::StringInterner& tags = doc.tags();
  const core::EstimatorOptions eopts = EstimatorOptionsFor(options, shape);
  const core::Estimator estimator(sketch, eopts);

  // Compiled execution path: every query is also lowered to a CompiledTwig
  // and executed both plain and with stats; estimates AND diagnostic
  // counters must be bit-identical to the interpreter.
  const auto frozen = std::make_shared<const core::FrozenSynopsis>(sketch);
  const core::TwigCompiler compiler(frozen, eopts);

  // XSK3 path: the frozen synopsis serialized to the mmap format and
  // loaded back as a zero-copy view (checksums verified), then
  // recompiled. Estimates AND diagnostic counters must be bit-identical
  // to programs over the heap-built frozen synopsis — the storage format
  // must never perturb a single bit of the arithmetic inputs.
  auto xsk3_bytes = core::SaveFrozen(*frozen);
  if (!check.Check(xsk3_bytes.ok(), std::string(sketch_name) + "/xsk3-save",
                   -1, queries.front(), tags,
                   "SaveFrozen failed: " + xsk3_bytes.status().ToString())) {
    return;
  }
  auto xsk3 = core::LoadFrozenFromBytes(xsk3_bytes.value());
  if (!check.Check(xsk3.ok(), std::string(sketch_name) + "/xsk3-load", -1,
                   queries.front(), tags,
                   "LoadFrozenFromBytes(SaveFrozen(...)) failed: " +
                       xsk3.status().ToString())) {
    return;
  }
  const core::TwigCompiler xsk3_compiler(xsk3.value(), eopts);

  // Batch-parallel path: one EstimationService fan-out over the whole
  // query set, sharing the heap-built frozen synopsis.
  service::ServiceOptions sopts;
  sopts.num_threads = options.batch_threads;
  sopts.estimator = eopts;
  auto service = service::EstimationService::Create(frozen, sopts);
  XS_CHECK(service.ok());
  const auto batch = service.value()->EstimateBatch(queries);

  // Traced path: the same batch through a fresh service under a forced
  // trace root, so every query records its full span tree, with the
  // flight recorder on. Observability must never perturb a single bit of
  // the arithmetic. This is also the flight-recorder smoke: every
  // generated query lands a record, and Checker attaches the matching
  // record to any failure's repro.
  auto traced = service::EstimationService::Create(frozen, sopts);
  XS_CHECK(traced.ok());
  const auto traced_batch = [&] {
    obs::SpanScope root(obs::Tracer::Default().ForceTrace(),
                        obs::Stage::kQuery);
    return traced.value()->EstimateBatch(queries);
  }();

  for (size_t i = 0; i < queries.size(); ++i) {
    if (only_query >= 0 && static_cast<int>(i) != only_query) continue;
    const query::TwigQuery& q = queries[i];
    const int qi = static_cast<int>(i);
    const double exact = static_cast<double>(exact_counts[i]);
    const double estimate = estimator.Estimate(q);

    check.Check(std::isfinite(estimate) && estimate >= 0.0,
                std::string(sketch_name) + "/finite", qi, q, tags,
                "estimate = " + FormatDouble(estimate));

    const double bound = StructuralUpperBound(doc, q);
    check.Check(estimate <= bound * kBoundSlack + 1e-6,
                std::string(sketch_name) + "/upper-bound", qi, q, tags,
                "estimate " + FormatDouble(estimate) +
                    " exceeds structural bound " + FormatDouble(bound));

    if (HasEmptyRangePredicate(q)) {
      check.Check(exact == 0.0,
                  std::string(sketch_name) + "/empty-range-exact", qi, q,
                  tags, "exact evaluator returned " + FormatDouble(exact) +
                            " for an empty-range predicate");
      check.Check(estimate == 0.0,
                  std::string(sketch_name) + "/empty-range-estimate", qi, q,
                  tags, "estimator returned " + FormatDouble(estimate) +
                            " for an empty-range predicate");
    }

    const core::EstimateStats stats = estimator.EstimateWithStats(q);
    check.Check(stats.estimate == estimate,
                std::string(sketch_name) + "/bit-identity-stats", qi, q,
                tags,
                "EstimateWithStats " + FormatDouble(stats.estimate) +
                    " != Estimate " + FormatDouble(estimate));

    obs::ExplainTrace trace;
    const core::EstimateStats trace_stats =
        estimator.EstimateWithTrace(q, &trace);
    check.Check(trace_stats.estimate == estimate,
                std::string(sketch_name) + "/bit-identity-trace", qi, q,
                tags,
                "EstimateWithTrace " + FormatDouble(trace_stats.estimate) +
                    " != Estimate " + FormatDouble(estimate));

    const auto compiled = compiler.Compile(q);
    if (check.Check(compiled.ok(),
                    std::string(sketch_name) + "/compiled-accepts", qi, q,
                    tags,
                    "TwigCompiler rejected a valid query: " +
                        compiled.status().ToString())) {
      const double cplain = compiled.value()->Execute();
      check.Check(cplain == estimate,
                  std::string(sketch_name) + "/bit-identity-compiled", qi, q,
                  tags,
                  "compiled Execute " + FormatDouble(cplain) +
                      " != Estimate " + FormatDouble(estimate));
      const core::EstimateStats cstats = compiled.value()->ExecuteWithStats();
      check.Check(
          cstats.estimate == estimate &&
              cstats.covered_terms == stats.covered_terms &&
              cstats.uniformity_terms == stats.uniformity_terms &&
              cstats.conditioned_nodes == stats.conditioned_nodes &&
              cstats.value_fractions == stats.value_fractions &&
              cstats.existential_terms == stats.existential_terms &&
              cstats.descendant_chains == stats.descendant_chains,
          std::string(sketch_name) + "/bit-identity-compiled-stats", qi, q,
          tags,
          "compiled ExecuteWithStats (" + FormatDouble(cstats.estimate) +
              ", E=" + std::to_string(cstats.covered_terms) +
              ", U=" + std::to_string(cstats.uniformity_terms) +
              ", D=" + std::to_string(cstats.conditioned_nodes) +
              ", vf=" + std::to_string(cstats.value_fractions) +
              ", fe=" + std::to_string(cstats.existential_terms) +
              ", dc=" + std::to_string(cstats.descendant_chains) +
              ") != interpreted (" + FormatDouble(estimate) +
              ", E=" + std::to_string(stats.covered_terms) +
              ", U=" + std::to_string(stats.uniformity_terms) +
              ", D=" + std::to_string(stats.conditioned_nodes) +
              ", vf=" + std::to_string(stats.value_fractions) +
              ", fe=" + std::to_string(stats.existential_terms) +
              ", dc=" + std::to_string(stats.descendant_chains) + ")");

      obs::ExplainTrace ctrace;
      const core::EstimateStats cstats_traced =
          compiled.value()->ExecuteWithTrace(&ctrace);
      const std::string cdiff =
          ExplainDiff(trace, trace_stats, ctrace, cstats_traced);
      check.Check(cdiff.empty(),
                  std::string(sketch_name) + "/explain-compiled", qi, q, tags,
                  "compiled ExecuteWithTrace != EstimateWithTrace: " + cdiff);

      const auto xplan = xsk3_compiler.Compile(q);
      if (check.Check(xplan.ok(),
                      std::string(sketch_name) + "/xsk3-compiled-accepts",
                      qi, q, tags,
                      "compiler over the XSK3 view rejected a valid "
                      "query: " + xplan.status().ToString())) {
        const core::EstimateStats xstats = xplan.value()->ExecuteWithStats();
        check.Check(
            xstats.estimate == estimate &&
                xstats.covered_terms == stats.covered_terms &&
                xstats.uniformity_terms == stats.uniformity_terms &&
                xstats.conditioned_nodes == stats.conditioned_nodes &&
                xstats.value_fractions == stats.value_fractions &&
                xstats.existential_terms == stats.existential_terms &&
                xstats.descendant_chains == stats.descendant_chains,
            std::string(sketch_name) + "/bit-identity-xsk3", qi, q, tags,
            "XSK3-loaded ExecuteWithStats " + FormatDouble(xstats.estimate) +
                " != interpreted " + FormatDouble(estimate) +
                " (or diagnostic counters diverged)");
        obs::ExplainTrace xtrace;
        const core::EstimateStats xstats_traced =
            xplan.value()->ExecuteWithTrace(&xtrace);
        const std::string xdiff =
            ExplainDiff(trace, trace_stats, xtrace, xstats_traced);
        check.Check(xdiff.empty(),
                    std::string(sketch_name) + "/explain-compiled-xsk3", qi,
                    q, tags,
                    "XSK3-loaded ExecuteWithTrace != EstimateWithTrace: " +
                        xdiff);
      }
    }

    if (check.Check(batch[i].ok(),
                    std::string(sketch_name) + "/batch-accepts", qi, q, tags,
                    "EstimateBatch rejected a valid query: " +
                        batch[i].status().ToString())) {
      check.Check(batch[i].value().estimate == estimate,
                  std::string(sketch_name) + "/bit-identity-batch", qi, q,
                  tags,
                  "batch estimate " + FormatDouble(batch[i].value().estimate) +
                      " != Estimate " + FormatDouble(estimate));
    }

    if (check.Check(traced_batch[i].ok(),
                    std::string(sketch_name) + "/traced-accepts", qi, q, tags,
                    "traced EstimateBatch rejected a valid query: " +
                        traced_batch[i].status().ToString())) {
      check.Check(
          traced_batch[i].value().estimate == estimate,
          std::string(sketch_name) + "/bit-identity-traced", qi, q, tags,
          "traced-service estimate " +
              FormatDouble(traced_batch[i].value().estimate) +
              " != Estimate " + FormatDouble(estimate) +
              " (tracing must not perturb arithmetic)");
    }

    if (shape == DocShape::kStable) {
      // Perfectly-stable structure: every element of a tag has identical
      // children and value presence, so structural estimation has no
      // approximation left — estimates must equal the ground truth.
      const double tol = std::max(1e-6, exact * 1e-9);
      check.Check(std::abs(estimate - exact) <= tol,
                  std::string(sketch_name) + "/stable-exactness", qi, q,
                  tags,
                  "estimate " + FormatDouble(estimate) + " != exact " +
                      FormatDouble(exact) + " on a stable document");
    }
  }
}

// Executor-oracle invariants: both structural-join executors must agree
// with ExactEvaluator bit for bit, on every query, whatever join order
// the planner picks. `exact_counts` is the ground truth already computed
// by CheckDocument; `sketch` feeds the planner's cardinality estimates
// (plans must never change results, only work).
void CheckExecutors(const DifferentialOptions& options, DocShape shape,
                    uint64_t doc_seed, const xml::Document& doc,
                    const core::TwigXSketch& sketch,
                    const std::vector<query::TwigQuery>& queries,
                    const std::vector<uint64_t>& exact_counts, int only_query,
                    DifferentialReport* report) {
  Checker check(shape, doc_seed, report);
  const util::StringInterner& tags = doc.tags();
  const exec::StreamIndex index(doc);
  const exec::StructuralJoinExecutor executor(index);
  const exec::HolisticTwigJoin holistic(index);
  service::ServiceOptions sopts;
  sopts.num_threads = 1;
  sopts.estimator = EstimatorOptionsFor(options, shape);
  auto service = service::EstimationService::Create(
      std::make_shared<const core::FrozenSynopsis>(sketch), sopts);
  XS_CHECK(service.ok());
  const plan::ServiceCardinalities cards(*service.value());

  for (size_t i = 0; i < queries.size(); ++i) {
    if (only_query >= 0 && static_cast<int>(i) != only_query) continue;
    const query::TwigQuery& q = queries[i];
    const int qi = static_cast<int>(i);
    const uint64_t exact = exact_counts[i];

    const auto h = holistic.Execute(q);
    if (check.Check(h.ok(), "exec/holistic-accepts", qi, q, tags,
                    "holistic executor rejected a valid query: " +
                        h.status().ToString())) {
      check.Check(h.value().matches == exact, "exec/holistic-exact", qi, q,
                  tags,
                  "holistic count " + std::to_string(h.value().matches) +
                      " != exact " + std::to_string(exact));
    }

    // Binary joins can exceed the emitted-row cap on adversarial
    // (document, query) pairs; that is a documented resource guard, not
    // a disagreement, so OutOfRange skips the comparison.
    const auto naive = executor.ExecuteNaive(q);
    if (naive.status().code() != util::StatusCode::kOutOfRange &&
        check.Check(naive.ok(), "exec/binary-accepts", qi, q, tags,
                    "binary executor rejected a valid query: " +
                        naive.status().ToString())) {
      check.Check(naive.value().matches == exact, "exec/binary-naive-exact",
                  qi, q, tags,
                  "naive-order binary count " +
                      std::to_string(naive.value().matches) + " != exact " +
                      std::to_string(exact));
    }

    plan::PlannerOptions popts;
    popts.consider_holistic = false;  // force a join order to test
    const auto planned = plan::PlanTwig(q, cards, popts);
    if (!check.Check(planned.ok(), "exec/plan-accepts", qi, q, tags,
                     "planner rejected a valid query: " +
                         planned.status().ToString())) {
      continue;
    }
    const auto chosen = executor.ExecuteBinary(q, planned.value().order);
    if (chosen.status().code() != util::StatusCode::kOutOfRange &&
        check.Check(chosen.ok(), "exec/planned-accepts", qi, q, tags,
                    "planned join order failed to execute: " +
                        chosen.status().ToString())) {
      check.Check(chosen.value().matches == exact, "exec/binary-planned-exact",
                  qi, q, tags,
                  "planned-order binary count " +
                      std::to_string(chosen.value().matches) + " != exact " +
                      std::to_string(exact) + " (plan " +
                      planned.value().ToString() + ")");
    }
  }
}

void CheckDocument(const DifferentialOptions& options, DocShape shape,
                   uint64_t doc_seed, int only_query,
                   DifferentialReport* report) {
  const xml::Document doc =
      GenerateRandomDocument(ShapePreset(shape, doc_seed));
  ++report->docs;

  QueryGenOptions qopts = options.query;
  if (shape == DocShape::kStable) qopts.structural_only = true;
  util::Rng rng(Derive(doc_seed, 0x9ull));
  std::vector<query::TwigQuery> queries;
  queries.reserve(options.queries_per_doc);
  for (int i = 0; i < options.queries_per_doc; ++i) {
    queries.push_back(GenerateRandomTwig(doc, qopts, rng));
  }

  const query::ExactEvaluator exact(doc);
  std::vector<uint64_t> exact_counts;
  exact_counts.reserve(queries.size());
  for (const auto& q : queries) exact_counts.push_back(exact.Selectivity(q));
  report->pairs += (only_query >= 0) ? 1 : static_cast<int>(queries.size());

  // 4-bucket histograms instead of the default 8: bucket count is the
  // base of the un-memoized stats-path cost along '//' chains (see
  // DifferentialOptions), and consistency invariants don't care about
  // histogram resolution. Exactness on stable documents is unaffected —
  // their per-tag count distributions are single-valued at any budget.
  core::CoarsestOptions copts;
  copts.initial_buckets = 4;
  const core::TwigXSketch coarsest = core::TwigXSketch::Coarsest(doc, copts);
  CheckSketch(options, shape, doc_seed, doc, coarsest, "coarsest", queries,
              exact_counts, only_query, report);

  // Executor oracle: binary (naive and planner-chosen orders) and
  // holistic structural joins must reproduce the exact counts bit for
  // bit. Planned orders are driven by coarsest-sketch estimates — the
  // production configuration, where estimates steer work, never results.
  CheckExecutors(options, shape, doc_seed, doc, coarsest, queries,
                 exact_counts, only_query, report);

  if (options.build_refined) {
    core::BuildOptions bopts;
    bopts.seed = Derive(doc_seed, 0xBull);
    bopts.candidates_per_iteration = 4;
    bopts.sample_queries = 6;
    // Stress every estimator branch: backward (D-term) conditioning and
    // joint value histograms are on, unlike the paper-prototype defaults.
    bopts.allow_backward_counts = true;
    bopts.allow_value_correlation = true;
    bopts.budget_bytes = coarsest.SizeBytes() + 1024;
    bopts.estimator = EstimatorOptionsFor(options, shape);
    bopts.coarsest = copts;
    const core::TwigXSketch refined = core::XBuild(doc, bopts).Build();
    CheckSketch(options, shape, doc_seed, doc, refined, "refined", queries,
                exact_counts, only_query, report);
  }
}

}  // namespace

std::string DifferentialFailure::Describe() const {
  std::ostringstream os;
  os << "[" << invariant << "] shape=" << shape << " doc_seed=" << doc_seed
     << " query#" << query_index << "\n  query: " << query
     << "\n  " << detail << "\n  repro: " << repro;
  if (!flight.empty()) os << "\n  flight: " << flight;
  return os.str();
}

std::string DifferentialReport::Summary() const {
  std::ostringstream os;
  os << docs << " documents, " << pairs << " (doc, query) pairs, "
     << invariant_checks << " invariant checks, " << failures.size()
     << " failures";
  return os.str();
}

DifferentialReport RunDifferential(const DifferentialOptions& options) {
  DifferentialReport report;
  for (size_t s = 0; s < options.shapes.size(); ++s) {
    for (int d = 0; d < options.docs_per_shape; ++d) {
      const uint64_t doc_seed =
          Derive(options.seed, s * 1000 + static_cast<uint64_t>(d));
      CheckDocument(options, options.shapes[s], doc_seed, /*only_query=*/-1,
                    &report);
    }
  }
  return report;
}

DifferentialReport RunSinglePair(DocShape shape, uint64_t doc_seed,
                                 int query_index,
                                 const DifferentialOptions& options) {
  DifferentialReport report;
  CheckDocument(options, shape, doc_seed, query_index, &report);
  return report;
}

}  // namespace xsketch::testing
