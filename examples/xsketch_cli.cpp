// xsketch_cli — command-line front end for the library.
//
//   xsketch_cli build   <doc> <sketch-file> [budget-kb] [threads]
//                                          parallel build + save (XSK3)
//   xsketch_cli estimate <doc> <sketch-file> <query>...   load + estimate
//   xsketch_cli explain <doc> <sketch-file> <query>... [--json]
//                                          per-query estimation trace
//   xsketch_cli batch   <doc> <sketch-file> <workload-file> [threads]
//                       [--audit FRACTION] [--metrics]
//                                          parallel batch estimation
//   xsketch_cli exact    <doc> <query>...                 ground truth
//   xsketch_cli plan    <doc> <query>... [--sketch FILE] [--exact]
//                       cost-based twig join planning: print the chosen
//                       join order + cost terms, then execute the plan
//                       and the naive baseline for real and report the
//                       match count and intermediate-result sizes
//                       (--exact plans from ground-truth cardinalities
//                       instead of XSKETCH estimates)
//   xsketch_cli stats    <doc>                            document summary
//   xsketch_cli catalog <spec-file> [--budget-mb MB] [--query Q]
//                       load a catalog of XSK3 sketches (spec lines:
//                       "<doc-id> <path.xsk3>"), optionally estimate Q
//                       against every document, print catalog stats
//   xsketch_cli trace   <doc> <query>... [--sketch FILE] [--out FILE]
//                       [--flight]
//                       run the queries fully traced under one forced
//                       trace root (parse -> plan cache -> compile ->
//                       execute, batch fan-out) and emit Chrome
//                       trace_event JSON (chrome://tracing / Perfetto);
//                       --flight appends the flight-recorder JSON
//   xsketch_cli metrics [--prom]
//                       dump the process metrics registry as JSON
//                       (default) or Prometheus text
//
// <doc> is either a path to an XML file or one of the built-in data set
// names xmark / imdb / sprot (optionally with a scale suffix, e.g.
// "xmark:0.1"). Sketch files are XSK3 images (core/frozen_io.h), opened
// mmap'd; batch --audit and plan, which also run the queries on <doc>,
// reject a sketch built from another document. Queries are XPath
// expressions or for-clauses (quoted).
// <workload-file> holds one query per line; blank lines and lines
// starting with '#' are skipped.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "xsketch_api.h"

namespace {

using namespace xsketch;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xsketch_cli build <doc> <sketch-file> [budget-kb] "
               "[threads]\n"
               "  xsketch_cli estimate <doc> <sketch-file> <query>...\n"
               "  xsketch_cli explain <doc> <sketch-file> <query>... "
               "[--json]\n"
               "  xsketch_cli batch <doc> <sketch-file> <workload-file> "
               "[threads] [--audit FRACTION] [--metrics]\n"
               "  xsketch_cli exact <doc> <query>...\n"
               "  xsketch_cli plan <doc> <query>... [--sketch FILE] "
               "[--exact]\n"
               "  xsketch_cli stats <doc>\n"
               "  xsketch_cli catalog <spec-file> [--budget-mb MB] "
               "[--query Q]\n"
               "  xsketch_cli trace <doc> <query>... [--sketch FILE] "
               "[--out FILE] [--flight]\n"
               "  xsketch_cli metrics [--prom]\n"
               "<doc>: XML file path, or xmark|imdb|sprot[:scale]\n"
               "[threads]: 0 = hardware concurrency (default)\n"
               "--audit: exactly evaluate a sampled fraction of the batch "
               "and report relative error\n"
               "--metrics: dump the process metrics registry "
               "(Prometheus text) after the batch\n");
  return 2;
}

// Strict numeric argv parsing: the whole token must be a number in range.
// (std::atoi/atof turn garbage into 0 silently — e.g. a mistyped thread
// count would quietly select hardware concurrency.)
bool ParseIntArg(const char* arg, const char* what, int min_value,
                 int* out) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0' || errno == ERANGE || v < min_value ||
      v > INT_MAX) {
    std::fprintf(stderr, "invalid %s '%s' (expected integer >= %d)\n",
                 what, arg, min_value);
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseDoubleArg(const char* arg, const char* what, double* out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || errno == ERANGE || !(v > 0)) {
    std::fprintf(stderr, "invalid %s '%s' (expected number > 0)\n", what,
                 arg);
    return false;
  }
  *out = v;
  return true;
}

bool LoadDoc(const std::string& spec, xml::Document* doc) {
  std::string name = spec;
  double scale = 0.1;  // CLI default: keep built-ins snappy
  if (size_t colon = spec.find(':'); colon != std::string::npos) {
    name = spec.substr(0, colon);
    if (!ParseDoubleArg(spec.c_str() + colon + 1, "scale", &scale)) {
      return false;
    }
  }
  if (name == "xmark") {
    *doc = data::GenerateXMark({.seed = 42, .scale = scale});
    return true;
  }
  if (name == "imdb") {
    *doc = data::GenerateImdb({.seed = 7, .scale = scale});
    return true;
  }
  if (name == "sprot") {
    *doc = data::GenerateSwissProt({.seed = 11, .scale = scale});
    return true;
  }
  std::ifstream in(spec);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", spec.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  auto parsed = xml::ParseDocument(buffer.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  *doc = std::move(parsed).value();
  return true;
}

util::Result<query::TwigQuery> ParseQuery(const std::string& text,
                                          const util::StringInterner& tags) {
  if (text.find(" in ") != std::string::npos) {
    return query::ParseForClause(text, tags);
  }
  return query::ParsePath(text, tags);
}

// The session a sketch-reading command runs on: the XSK3 file at `path`,
// or the coarsest synopsis of `doc` when `path` is empty. With
// `same_doc`, a sketch built from another document is rejected. Errors
// are printed.
std::optional<api::Session> OpenSession(
    const std::string& path, const xml::Document& doc, bool same_doc,
    const service::ServiceOptions& options = {}) {
  auto session =
      path.empty()
          ? api::Session::Open(core::TwigXSketch::Coarsest(doc), options)
          : api::Session::OpenMapped(path, options);
  util::Status st = session.status();
  if (st.ok() && same_doc) {
    st = session.value().service().frozen().MatchesDocument(doc);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return std::nullopt;
  }
  return std::move(session).value();
}

}  // namespace

int main(int argc, char** argv) {
  // Piped into `head` (or a dying pager), writes must fail with EPIPE,
  // not kill the process mid-output.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];

  // Registry dump — needs no document, so it runs before the argc checks
  // of the document-bound commands.
  if (cmd == "metrics") {
    bool prom = false;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--prom") {
        prom = true;
      } else {
        return Usage();
      }
    }
    // Touch the default tracer and flight recorder so their metric
    // families are registered even in a fresh process: the scrape shape
    // matches what a serving process exposes.
    (void)obs::Tracer::Default();
    (void)obs::FlightRecorder::Default();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    if (prom) {
      std::fputs(reg.ToPrometheusText().c_str(), stdout);
    } else {
      std::fputs(reg.ToJson().c_str(), stdout);
      std::fputs("\n", stdout);
    }
    return 0;
  }

  if (argc < 3) return Usage();

  // The catalog works from XSK3 files alone — no document load.
  if (cmd == "catalog") {
    service::CatalogOptions copts;
    std::string query_text;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--budget-mb") {
        double mb = 0.0;
        if (++i >= argc || !ParseDoubleArg(argv[i], "budget (MB)", &mb)) {
          return 2;  // argument error, like every other usage problem
        }
        copts.byte_budget = static_cast<uint64_t>(mb * 1024 * 1024);
      } else if (arg == "--query") {
        if (++i >= argc) return Usage();
        query_text = argv[i];
      } else {
        return Usage();
      }
    }
    std::ifstream spec(argv[2]);
    if (!spec) {
      std::fprintf(stderr, "cannot open %s\n", argv[2]);
      return 1;
    }
    auto catalog = service::SketchCatalog::Create(copts);
    if (!catalog.ok()) {
      std::fprintf(stderr, "%s\n", catalog.status().ToString().c_str());
      return 1;
    }
    std::vector<std::string> doc_ids;
    std::string line;
    int rc = 0;
    while (std::getline(spec, line)) {
      const size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      std::istringstream fields(line);
      std::string doc_id, path;
      if (!(fields >> doc_id >> path)) {
        std::fprintf(stderr, "bad spec line (want '<doc-id> <path>'): %s\n",
                     line.c_str());
        rc = 1;
        continue;
      }
      auto put = catalog.value()->Put(doc_id, path);
      if (!put.ok()) {
        std::fprintf(stderr, "%s: %s\n", doc_id.c_str(),
                     put.status().ToString().c_str());
        rc = 1;
        continue;
      }
      doc_ids.push_back(doc_id);
      std::printf("loaded %-20s gen %llu  %8.1f KB  %s\n", doc_id.c_str(),
                  static_cast<unsigned long long>(put.value().generation()),
                  put.value().size_bytes() / 1024.0, path.c_str());
    }
    if (!query_text.empty()) {
      for (const std::string& doc_id : doc_ids) {
        auto handle = catalog.value()->Get(doc_id);
        if (!handle.ok()) continue;  // evicted under the budget
        auto plan = handle.value().Prepare(query_text);
        if (!plan.ok()) {
          std::fprintf(stderr, "%-20s %s\n", doc_id.c_str(),
                       plan.status().ToString().c_str());
          rc = 1;
          continue;
        }
        std::printf("%-20s %-40s %14.1f\n", doc_id.c_str(),
                    query_text.c_str(), plan.value()->Execute());
      }
    }
    const auto s = catalog.value()->stats();
    std::printf(
        "catalog: %zu sketches resident (%.1f KB), %llu loads "
        "(%llu failed), %llu evictions, %llu swaps, generation %llu\n",
        s.sketches, s.resident_bytes / 1024.0,
        static_cast<unsigned long long>(s.loads),
        static_cast<unsigned long long>(s.load_failures),
        static_cast<unsigned long long>(s.evictions),
        static_cast<unsigned long long>(s.swaps),
        static_cast<unsigned long long>(s.generation));
    return rc;
  }

  xml::Document doc;
  if (!LoadDoc(argv[2], &doc)) return 1;

  if (cmd == "trace") {
    std::string sketch_file, out_file;
    bool dump_flight = false;
    std::vector<const char*> query_args;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--sketch") {
        if (++i >= argc) return Usage();
        sketch_file = argv[i];
      } else if (arg == "--out") {
        if (++i >= argc) return Usage();
        out_file = argv[i];
      } else if (arg == "--flight") {
        dump_flight = true;
      } else {
        query_args.push_back(argv[i]);
      }
    }
    if (query_args.empty()) return Usage();

    const auto session = OpenSession(sketch_file, doc, /*same_doc=*/false);
    if (!session) return 1;

    obs::Tracer& tracer = obs::Tracer::Default();
    tracer.Reset();
    obs::FlightRecorder::Default().Reset();

    // One trace for the whole run: parse spans attach under the root, the
    // service adopts the root for the batch (fan-out spans included).
    const obs::TraceContext ctx = tracer.ForceTrace();
    std::vector<query::TwigQuery> queries;
    std::vector<util::Result<core::EstimateStats>> results;
    {
      obs::SpanScope root(ctx, obs::Stage::kQuery, query_args.size());
      for (const char* arg : query_args) {
        auto twig = ParseQuery(arg, session->service().tags());
        if (!twig.ok()) {
          std::fprintf(stderr, "%s: %s\n", arg,
                       twig.status().ToString().c_str());
          return 1;
        }
        queries.push_back(std::move(twig).value());
      }
      results = session->ExecuteBatch(queries);
    }

    const std::vector<obs::Span> spans = tracer.SpansForTrace(ctx.trace_id);
    int rc = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        std::printf("%-50s %14.1f\n", query_args[i],
                    results[i].value().estimate);
      } else {
        std::fprintf(stderr, "%-50s %s\n", query_args[i],
                     results[i].status().ToString().c_str());
        rc = 1;
      }
    }

    // Per-stage attribution plus reconciliation: within every span, the
    // durations of its direct children must sum to no more than the span
    // itself and each child interval must nest inside the parent's.
    double stage_us[obs::kStageCount] = {};
    std::vector<double> child_sum_ns(spans.size(), 0.0);
    for (const obs::Span& s : spans) {
      stage_us[static_cast<int>(s.stage)] +=
          static_cast<double>(s.dur_ns) / 1000.0;
      if (s.parent_id == 0) continue;
      for (size_t p = 0; p < spans.size(); ++p) {
        if (spans[p].span_id != s.parent_id) continue;
        child_sum_ns[p] += static_cast<double>(s.dur_ns);
        if (s.start_ns < spans[p].start_ns ||
            s.start_ns + s.dur_ns > spans[p].start_ns + spans[p].dur_ns) {
          std::fprintf(stderr,
                       "reconciliation failure: %s span %llu escapes its "
                       "parent %s\n",
                       obs::StageName(s.stage),
                       static_cast<unsigned long long>(s.span_id),
                       obs::StageName(spans[p].stage));
          rc = 1;
        }
        break;
      }
    }
    for (size_t p = 0; p < spans.size(); ++p) {
      if (child_sum_ns[p] >
          static_cast<double>(spans[p].dur_ns) + 0.5) {
        std::fprintf(stderr,
                     "reconciliation failure: children of %s span %llu "
                     "sum to %.3f us > span's %.3f us\n",
                     obs::StageName(spans[p].stage),
                     static_cast<unsigned long long>(spans[p].span_id),
                     child_sum_ns[p] / 1000.0,
                     static_cast<double>(spans[p].dur_ns) / 1000.0);
        rc = 1;
      }
    }
    std::printf("trace %llu: %zu spans, %llu dropped\n",
                static_cast<unsigned long long>(ctx.trace_id), spans.size(),
                static_cast<unsigned long long>(tracer.dropped()));
    std::printf("stage totals (us):");
    for (int st = 0; st < obs::kStageCount; ++st) {
      if (stage_us[st] <= 0.0) continue;
      std::printf(" %s %.1f", obs::StageName(static_cast<obs::Stage>(st)),
                  stage_us[st]);
    }
    std::printf("\n");

    const std::string chrome = obs::Tracer::ToChromeJson(spans);
    if (out_file.empty()) {
      std::fputs(chrome.c_str(), stdout);
      std::fputs("\n", stdout);
    } else {
      std::ofstream out(out_file, std::ios::binary);
      if (!out || !(out << chrome)) {
        std::fprintf(stderr, "cannot write %s\n", out_file.c_str());
        return 1;
      }
      std::printf("wrote %zu bytes of trace_event JSON to %s\n",
                  chrome.size(), out_file.c_str());
    }
    if (dump_flight) {
      std::fputs(obs::FlightRecorder::Default().ToJson().c_str(), stdout);
      std::fputs("\n", stdout);
    }
    return rc;
  }

  if (cmd == "stats") {
    xml::DocumentStats stats = xml::ComputeStats(doc);
    std::printf("elements:      %zu\n", stats.element_count);
    std::printf("values:        %zu\n", stats.value_count);
    std::printf("distinct tags: %zu\n", stats.distinct_tags);
    std::printf("max depth:     %u\n", stats.max_depth);
    std::printf("avg fanout:    %.2f\n", stats.avg_fanout);
    core::TwigXSketch coarse = core::TwigXSketch::Coarsest(doc);
    std::printf("coarsest synopsis: %.1f KB\n",
                coarse.SizeBytes() / 1024.0);
    return 0;
  }

  if (cmd == "build") {
    if (argc < 4) return Usage();
    core::BuildOptions opts;
    opts.num_threads = 0;  // CLI default: use the whole machine
    if (argc > 4) {
      double budget_kb = 0.0;
      if (!ParseDoubleArg(argv[4], "budget-kb", &budget_kb)) return 2;
      opts.budget_bytes = static_cast<size_t>(budget_kb * 1024);
    }
    if (argc > 5 &&
        !ParseIntArg(argv[5], "thread count", 0, &opts.num_threads)) {
      return 2;
    }
    core::BuildStats bstats;
    core::TwigXSketch sketch =
        core::XBuild(doc, opts).Build({}, &bstats);
    const core::FrozenSynopsis frozen(sketch);
    util::Status st = core::SaveFrozenToFile(frozen, argv[3]);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("built %.1f KB synopsis (%zu nodes, %.1f KB frozen) -> %s\n",
                sketch.SizeBytes() / 1024.0,
                sketch.synopsis().node_count(), frozen.SizeBytes() / 1024.0,
                argv[3]);
    std::printf(
        "build: %d refinements on %d threads in %.0f ms; "
        "%lld candidates (%lld scored, %lld sample estimates rerun)\n"
        "scoring tasks: copy %.1f ms, apply %.1f ms, rescore %.1f ms; "
        "per iteration p50 %.1f ms, p95 %.1f ms\n"
        "final sample-workload error %.3f\n",
        bstats.iterations, bstats.num_threads, bstats.wall_ms,
        static_cast<long long>(bstats.candidates_generated),
        static_cast<long long>(bstats.candidates_scored),
        static_cast<long long>(bstats.queries_rescored), bstats.copy_ms,
        bstats.apply_ms, bstats.rescore_ms, bstats.scoring_p50_ms,
        bstats.scoring_p95_ms, bstats.final_error);
    std::printf("accepted:");
    for (int k = 0; k < core::BuildStats::kNumKinds; ++k) {
      std::printf(" %s %lld",
                  core::RefinementKindName(
                      static_cast<core::Refinement::Kind>(k)),
                  static_cast<long long>(bstats.accepted_by_kind[
                      static_cast<size_t>(k)]));
    }
    std::printf("\n");
    return 0;
  }

  if (cmd == "estimate") {
    if (argc < 5) return Usage();
    const auto session = OpenSession(argv[3], doc, /*same_doc=*/false);
    if (!session) return 1;
    int rc = 0;
    for (int i = 4; i < argc; ++i) {
      auto twig = ParseQuery(argv[i], session->service().tags());
      if (!twig.ok()) {
        std::fprintf(stderr, "%s\n", twig.status().ToString().c_str());
        rc = 1;
        continue;
      }
      auto stats = session->Execute(twig.value());
      if (!stats.ok()) {
        std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
        rc = 1;
        continue;
      }
      std::printf("%-50s %14.1f\n", argv[i], stats.value().estimate);
    }
    return rc;
  }

  if (cmd == "explain") {
    if (argc < 5) return Usage();
    bool json = false;
    std::vector<const char*> query_args;
    for (int i = 4; i < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        json = true;
      } else {
        query_args.push_back(argv[i]);
      }
    }
    if (query_args.empty()) return Usage();
    const auto session = OpenSession(argv[3], doc, /*same_doc=*/false);
    if (!session) return 1;
    int rc = 0;
    for (const char* arg : query_args) {
      auto twig = ParseQuery(arg, session->service().tags());
      if (!twig.ok()) {
        std::fprintf(stderr, "%s\n", twig.status().ToString().c_str());
        rc = 1;
        continue;
      }
      obs::ExplainTrace trace;
      auto explained = session->Explain(twig.value(), &trace);
      if (!explained.ok()) {
        std::fprintf(stderr, "%s\n", explained.status().ToString().c_str());
        rc = 1;
        continue;
      }
      const core::EstimateStats stats = explained.value();
      // The trace must reproduce the untraced execution bit for bit: both
      // the recorded root value and the re-derived sum/product tree.
      const double plain = session->Prepare(twig.value()).value().Execute();
      if (trace.estimate() != plain || trace.Recompute() != plain) {
        std::fprintf(stderr,
                     "trace mismatch for '%s': Estimate() %.17g, trace "
                     "%.17g, recompute %.17g\n",
                     arg, plain, trace.estimate(), trace.Recompute());
        rc = 1;
      }
      if (json) {
        std::printf("%s\n", trace.ToJson().c_str());
      } else {
        std::printf("%s  (estimate %.6g)\n", arg, stats.estimate);
        std::printf("%s", trace.ToText().c_str());
        std::printf(
            "terms: E %d, U %d, D %d, value %d, existential %d, '//' "
            "chains %d\n\n",
            stats.covered_terms, stats.uniformity_terms,
            stats.conditioned_nodes, stats.value_fractions,
            stats.existential_terms, stats.descendant_chains);
      }
    }
    return rc;
  }

  if (cmd == "batch") {
    if (argc < 5) return Usage();
    service::ServiceOptions opts;
    double audit_fraction = 0.0;
    bool dump_metrics = false;
    for (int i = 5; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--metrics") {
        dump_metrics = true;
      } else if (arg == "--audit") {
        if (++i >= argc ||
            !ParseDoubleArg(argv[i], "audit fraction", &audit_fraction) ||
            audit_fraction > 1.0) {
          std::fprintf(stderr,
                       "--audit needs a fraction in (0, 1]\n");
          return 2;
        }
      } else if (!ParseIntArg(argv[i], "thread count", 0,
                              &opts.num_threads)) {
        return 2;
      }
    }
    const auto session =
        OpenSession(argv[3], doc, /*same_doc=*/audit_fraction > 0.0, opts);
    if (!session) return 1;

    std::ifstream in(argv[4]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[4]);
      return 1;
    }
    std::vector<std::string> texts;
    std::vector<query::TwigQuery> queries;
    std::string line;
    int rc = 0;
    while (std::getline(in, line)) {
      const size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      auto twig = ParseQuery(line, session->service().tags());
      if (!twig.ok()) {
        std::fprintf(stderr, "skipping '%s': %s\n", line.c_str(),
                     twig.status().ToString().c_str());
        rc = 1;
        continue;
      }
      texts.push_back(line);
      queries.push_back(std::move(twig).value());
    }

    service::BatchStats bstats;
    auto results = session->ExecuteBatch(queries, &bstats);
    for (size_t i = 0; i < results.size(); ++i) {
      if (results[i].ok()) {
        std::printf("%-50s %14.1f\n", texts[i].c_str(),
                    results[i].value().estimate);
      } else {
        std::fprintf(stderr, "%-50s %s\n", texts[i].c_str(),
                     results[i].status().ToString().c_str());
        rc = 1;
      }
    }
    std::printf(
        "batch: %zu queries (%zu failed) on %d threads in %.2f ms "
        "(%.0f q/s)\n"
        "latency p50 %.1f us, p95 %.1f us\n"
        "terms: covered %lld, uniformity %lld, conditioned %lld\n",
        bstats.queries, bstats.failed, session->service().num_threads(),
        bstats.wall_ms,
        bstats.wall_ms > 0
            ? static_cast<double>(bstats.queries) / (bstats.wall_ms / 1e3)
            : 0.0,
        bstats.p50_latency_us, bstats.p95_latency_us,
        static_cast<long long>(bstats.covered_terms),
        static_cast<long long>(bstats.uniformity_terms),
        static_cast<long long>(bstats.conditioned_nodes));
    std::printf(
        "plan cache: %llu lookups, %llu hits (%.1f%%) this batch\n",
        static_cast<unsigned long long>(bstats.plan_cache_lookups),
        static_cast<unsigned long long>(bstats.plan_cache_hits),
        bstats.plan_cache_lookups == 0
            ? 0.0
            : 100.0 * static_cast<double>(bstats.plan_cache_hits) /
                  static_cast<double>(bstats.plan_cache_lookups));
    if (audit_fraction > 0.0) {
      // Ground truth on an evenly spaced, index-determined sample (query
      // i is sampled iff floor((i+1)f) > floor(if)): the paper's relative
      // error |r - c| / max(s, c) with sanity bound s = 1 (§6.1).
      const query::ExactEvaluator exact(doc);
      size_t audited = 0;
      double err_sum = 0.0, err_max = 0.0;
      for (size_t i = 0; i < results.size(); ++i) {
        const auto sampled = [audit_fraction](size_t k) {
          return static_cast<size_t>(static_cast<double>(k) * audit_fraction);
        };
        if (!results[i].ok() || sampled(i + 1) == sampled(i)) continue;
        const double r = results[i].value().estimate;
        const double c = static_cast<double>(exact.Selectivity(queries[i]));
        const double err = std::abs(r - c) / std::max(1.0, c);
        ++audited;
        err_sum += err;
        err_max = std::max(err_max, err);
      }
      if (audited > 0) {
        std::printf(
            "audit: %zu queries evaluated exactly; relative error mean "
            "%.3f, max %.3f\n",
            audited, err_sum / static_cast<double>(audited), err_max);
      }
    }
    if (dump_metrics) {
      std::printf("%s",
                  obs::MetricsRegistry::Default().ToPrometheusText().c_str());
    }
    return rc;
  }

  if (cmd == "plan") {
    std::string sketch_file;
    bool use_exact = false;
    std::vector<const char*> query_args;
    for (int i = 3; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--sketch") {
        if (++i >= argc) return Usage();
        sketch_file = argv[i];
      } else if (arg == "--exact") {
        use_exact = true;
      } else {
        query_args.push_back(argv[i]);
      }
    }
    if (query_args.empty()) return Usage();

    service::ServiceOptions opts;
    opts.num_threads = 1;
    const auto session =
        OpenSession(sketch_file, doc, /*same_doc=*/true, opts);
    if (!session) return 1;
    const query::ExactEvaluator exact(doc);
    const plan::ExactCardinalities exact_cards(exact);

    const exec::StreamIndex index(doc);
    const exec::StructuralJoinExecutor executor(index);
    const exec::HolisticTwigJoin holistic(index);

    int rc = 0;
    for (const char* arg : query_args) {
      auto twig = ParseQuery(arg, session->service().tags());
      if (!twig.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg,
                     twig.status().ToString().c_str());
        rc = 1;
        continue;
      }
      auto planned = use_exact ? plan::PlanTwig(twig.value(), exact_cards)
                               : session->Plan(twig.value());
      if (!planned.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg,
                     planned.status().ToString().c_str());
        rc = 1;
        continue;
      }
      const plan::TwigPlan& p = planned.value();
      std::printf("%s\n  plan (%s cards): %s\n", arg,
                  use_exact ? "exact" : "estimated", p.ToString().c_str());
      std::printf(
          "  cost: input %.1f, binary intermediates %.1f, holistic scan "
          "%.1f, result estimate %.1f%s\n",
          p.input_cost, p.binary_cost, p.holistic_cost, p.result_estimate,
          p.optimized ? "" : "  (naive fallback: twig too wide for the DP)");

      auto chosen = p.use_holistic
                        ? holistic.Execute(twig.value())
                        : executor.ExecuteBinary(twig.value(), p.order);
      auto naive = executor.ExecuteNaive(twig.value());
      if (!chosen.ok() || !naive.ok()) {
        std::fprintf(stderr, "%s: %s\n", arg,
                     (!chosen.ok() ? chosen.status() : naive.status())
                         .ToString()
                         .c_str());
        rc = 1;
        continue;
      }
      const exec::ExecStats& c = chosen.value();
      const exec::ExecStats& n = naive.value();
      if (c.matches != n.matches) {
        std::fprintf(stderr,
                     "%s: PLAN CHANGED THE RESULT (chosen %llu, naive "
                     "%llu)\n",
                     arg, static_cast<unsigned long long>(c.matches),
                     static_cast<unsigned long long>(n.matches));
        rc = 1;
        continue;
      }
      if (c.holistic) {
        std::printf(
            "  executed holistic: %llu matches, %llu elements scanned, "
            "%llu stack pushes\n",
            static_cast<unsigned long long>(c.matches),
            static_cast<unsigned long long>(c.elements_scanned),
            static_cast<unsigned long long>(c.stack_pushes));
      } else {
        std::printf(
            "  executed binary: %llu matches, %d joins, %llu logical "
            "intermediate rows\n",
            static_cast<unsigned long long>(c.matches), c.joins,
            static_cast<unsigned long long>(c.logical_rows));
      }
      std::printf(
          "  naive binary baseline: %llu logical intermediate rows\n",
          static_cast<unsigned long long>(n.logical_rows));
    }
    return rc;
  }

  if (cmd == "exact") {
    query::ExactEvaluator eval(doc);
    int rc = 0;
    for (int i = 3; i < argc; ++i) {
      auto twig = ParseQuery(argv[i], doc.tags());
      if (!twig.ok()) {
        std::fprintf(stderr, "%s\n", twig.status().ToString().c_str());
        rc = 1;
        continue;
      }
      std::printf("%-50s %14lu\n", argv[i],
                  static_cast<unsigned long>(
                      eval.Selectivity(twig.value())));
    }
    return rc;
  }

  return Usage();
}
