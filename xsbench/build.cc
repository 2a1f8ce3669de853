// build: the write path. XMark and IMDB are generated and serialized to
// XML text during set-up; each timed operation takes both documents from
// XML bytes to verified XSK3 files (xml::ParseDocument, XBuild with
// nproc scoring threads, SaveFrozenToFile, LoadFrozenFile, then the
// held-aside P+V workload estimated on the reloaded sketch and compared
// bit for bit with the in-memory sketch). Serving code barely runs.

#include "workloads.h"

namespace xsbench {
namespace {

struct Setup {
  std::vector<Corpus> corpora;
  std::vector<query::Workload> held;
};

std::unique_ptr<Setup> MakeSetup(const Config& config) {
  auto s = std::make_unique<Setup>();
  const DataConfig dc = DataConfigFor(config);
  for (const char* name : {"xmark", "imdb"}) {
    s->corpora.push_back(MakeCorpus(name, dc.scale));
    s->held.push_back(HeldAsideWorkload(s->corpora.back(), dc));
  }
  return s;
}

}  // namespace

Outcome RunBuild(const Config& config) {
  Outcome out;
  std::vector<double> setup_s;
  auto setup = RepeatSetup<Setup>(
      config, [&](int) { return MakeSetup(config); }, &setup_s);
  const DataConfig dc = DataConfigFor(config);

  Tracer tracer;
  SpanLog* const log = config.trace ? tracer.NewLog(1 << 12) : nullptr;
  // XBUILD is bit-identical at any thread count and the inputs are fixed,
  // so every operation must rebuild exactly what the first one built.
  std::vector<uint64_t> first_bytes;
  std::vector<double> first_error;
  std::vector<BuiltSketch> last;
  struct OpTiming {
    double seconds = 0.0;
    double start_s = 0.0;  // since the timed phase began
    bool traced = false;
    double scoring_p50_ms = 0.0;
  };
  std::vector<OpTiming> ops;
  uint64_t refinements = 0, candidates = 0;

  Clock::time_point start = Clock::now();
  const auto run_op = [&](uint64_t req, bool traced) {
    std::vector<BuiltSketch> built;
    OpTiming timing;
    timing.traced = traced;
    const Clock::time_point t = Clock::now();
    timing.start_s = std::chrono::duration<double>(t - start).count();
    for (size_t d = 0; d < setup->corpora.size(); ++d) {
      auto b = BuildVerified(
          setup->corpora[d], dc, config.nproc, setup->held[d],
          JoinPath(config.work_dir, "build-" + std::to_string(req) + "-" +
                                        setup->corpora[d].name + ".xsk3"),
          config.corrupt_oracle && d == 0, traced ? log : nullptr, req, &out);
      out.attempted += 1 + setup->held[d].queries.size();
      if (!b) return;
      built.push_back(std::move(*b));
    }
    timing.seconds = SecondsSince(t);
    refinements = candidates = 0;
    for (size_t d = 0; d < built.size(); ++d) {
      const BuiltSketch& b = built[d];
      timing.scoring_p50_ms += b.stats.scoring_p50_ms / built.size();
      refinements += b.stats.iterations;
      candidates += b.stats.candidates_scored;
      if (first_bytes.size() < built.size()) {
        first_bytes.push_back(b.xsk3_bytes);
        first_error.push_back(b.rel_error);
      } else if (b.xsk3_bytes != first_bytes[d] ||
                 !SameBits(b.rel_error, first_error[d])) {
        out.Fail(b.name + ": rebuild differs from the first build (" +
                 std::to_string(b.xsk3_bytes) + " vs " +
                 std::to_string(first_bytes[d]) + " bytes)");
      }
    }
    ops.push_back(timing);
    last = std::move(built);
  };

  // One untimed operation first: page cache, allocator and file system
  // warm up on it.
  uint64_t req = 0;
  run_op(req++, false);
  start = Clock::now();
  const size_t warm = ops.size();
  while (last.size() == setup->corpora.size() &&
         (ops.size() < warm + 3 || SecondsSince(start) < config.seconds)) {
    // A traced run alternates traced and untraced operations, for the
    // tracing overhead.
    const bool traced = config.trace && req % 2 == 0;
    run_op(req++, traced);
  }
  if (last.size() != setup->corpora.size()) return out;

  std::vector<double> plain, traced, scoring;
  for (size_t i = warm; i < ops.size(); ++i) {
    (ops[i].traced ? traced : plain).push_back(ops[i].seconds);
    scoring.push_back(ops[i].scoring_p50_ms);
  }
  if (!config.trace) {
    // A run holds a few dozen builds: quantiles per slice of kSliceS
    // seconds, the median over slices (as the other workloads do).
    constexpr double kSliceS = 2.0;
    double total = 0.0;
    std::vector<SlicedSample> us;
    for (size_t i = warm; i < ops.size(); ++i) {
      total += ops[i].seconds;
      us.push_back({static_cast<uint32_t>(ops[i].start_s / kSliceS),
                    static_cast<float>(ops[i].seconds * 1e6)});
    }
    out.Set("ops_per_s", us.size() / total, "1/s");
    out.Set("latency_p50_us", SliceMedianQuantile(us, 0.50), "us");
    out.Set("latency_p99_us", SliceMedianQuantile(us, 0.99), "us");
    out.Set("plan_cost_ratio", kNotApplicable, "ratio");
  } else {
    const auto median_ms = [&](const char* name) {
      return Median(tracer.PerRequestSumsUs(name)) / 1e3;
    };
    out.Set("xml.parse_ms", median_ms("xml.parse"), "ms");
    out.Set("core.xbuild_ms", median_ms("core.xbuild"), "ms");
    out.Set("core.save_frozen_ms", median_ms("core.save_frozen"), "ms");
    out.Set("core.load_frozen_ms", median_ms("core.load_frozen"), "ms");
    out.Set("core.refinements", static_cast<double>(refinements), "count");
    out.Set("core.candidates_scored", static_cast<double>(candidates),
            "count");
    out.Set("core.scoring_p50_ms", Median(scoring), "ms");
    out.Set("trace.overhead_frac", 1.0 - Median(plain) / Median(traced),
            "ratio");
    if (!config.trace_dir.empty()) {
      tracer.WriteFile(JoinPath(config.trace_dir, "trace-build.tsv"));
    }
  }
  std::vector<const BuiltSketch*> sketches;
  for (const BuiltSketch& b : last) sketches.push_back(&b);
  SetSetupMetrics(setup_s, sketches, PeakRssMb(), &out);
  return out;
}

}  // namespace xsbench
