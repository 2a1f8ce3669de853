// estimate: closed loop of Session::Prepare(path text) +
// PreparedQuery::Execute from nproc client threads over XMark and IMDB
// sessions (a traced run also measures one client, for thread scaling). Queries are
// Zipf-drawn from a pool of distinct path shapes four times the size of
// the default 256-entry plan cache, so parse, cache key and lookup,
// compile and execute all sit on the critical path: the hot set fits the
// cache, the tail does not.

#include <cstdio>

#include "workloads.h"

namespace xsbench {
namespace {

struct Doc {
  BuiltSketch built;
  std::optional<api::Session> session;
  std::vector<std::string> texts;
  std::vector<double> oracle;  // reference Estimator on the parsed text
  std::vector<uint32_t> by_rank;  // Zipf rank -> pool index
};

struct Setup {
  std::vector<Corpus> corpora;
  std::vector<Doc> docs;
  // Per client thread: the operation sequence it cycles through, each
  // entry (doc << 31 | pool index).
  std::vector<std::vector<uint32_t>> sequences;
};

constexpr double kZipfS = 1.0;
constexpr int kLatencyEvery = 8;   // time one op in this many
constexpr int kTraceEvery = 64;    // record spans for one op in this many
constexpr size_t kSpanCapacity = 1 << 16;

std::unique_ptr<Setup> MakeSetup(const Config& config, int rep,
                                 Outcome* out) {
  auto s = std::make_unique<Setup>();
  const DataConfig dc = DataConfigFor(config);
  const size_t pool_size = config.tiny ? 400 : 1024;
  for (const char* name : {"xmark", "imdb"}) {
    s->corpora.push_back(MakeCorpus(name, dc.scale));
  }
  for (size_t d = 0; d < s->corpora.size(); ++d) {
    const Corpus& corpus = s->corpora[d];
    const query::Workload held = HeldAsideWorkload(corpus, dc);
    auto built = BuildVerified(
        corpus, dc, config.nproc, held,
        JoinPath(config.work_dir, "estimate-" + std::to_string(rep) + "-" +
                                      corpus.name + ".xsk3"),
        config.corrupt_oracle && d == 0, nullptr, 0, out);
    out->attempted += held.queries.size();
    if (!built) return nullptr;
    Doc doc;
    doc.built = std::move(*built);
    auto session = api::Session::Open(doc.built.loaded);
    if (!session.ok()) {
      out->Fail("Session::Open: " + session.status().ToString());
      return nullptr;
    }
    doc.session.emplace(std::move(session).value());
    doc.texts = PathPool(corpus, pool_size, SubSeed(config.seed, 20 + d));
    const core::Estimator reference(*doc.built.sketch);
    for (const std::string& text : doc.texts) {
      auto twig = query::ParsePath(text, doc.session->service().tags());
      if (!twig.ok()) {
        out->Fail("ParsePath(" + text + "): " + twig.status().ToString());
        return nullptr;
      }
      doc.oracle.push_back(reference.Estimate(twig.value()));
    }
    doc.by_rank.resize(doc.texts.size());
    for (size_t i = 0; i < doc.by_rank.size(); ++i) doc.by_rank[i] = i;
    Rng shuffle(SubSeed(config.seed, 30 + d));
    for (size_t i = doc.by_rank.size(); i > 1; --i) {
      std::swap(doc.by_rank[i - 1], doc.by_rank[shuffle.Below(i)]);
    }
    s->docs.push_back(std::move(doc));
  }
  if (config.corrupt_oracle) {
    // The hottest query of the first document: drawn in every run.
    Doc& d = s->docs[0];
    d.oracle[d.by_rank[0]] += 1.0;
  }
  const size_t seq_len = config.tiny ? 4096 : 1 << 16;
  for (int t = 0; t < config.nproc; ++t) {
    Rng rng(SubSeed(config.seed, 100 + t));
    std::vector<Zipf> zipf;
    for (const Doc& d : s->docs) zipf.emplace_back(d.texts.size(), kZipfS);
    std::vector<uint32_t> seq(seq_len);
    for (uint32_t& e : seq) {
      const uint32_t d = rng.Next() & 1;
      e = d << 31 | s->docs[d].by_rank[zipf[d].Draw(rng)];
    }
    s->sequences.push_back(std::move(seq));
  }
  return s;
}

// Per-client-thread state, kept across phases. Aligned so that no two
// clients' counters share a cache line.
struct alignas(64) Client {
  size_t cursor = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::string first_failure;
  std::vector<SlicedSample> latency;  // sampled, current phase only
  SpanLog* log = nullptr;         // traced phases only
};

enum class Mode { kPlain, kTraced };

// One operation: Prepare(path text) + Execute, checked bit for bit. In
// traced mode the same work is split into its two public calls (ParsePath
// and Prepare(twig), exactly what Prepare(path text) does) so each gets a
// span; `exact_hits` additionally reads the plan-cache counters around
// Prepare to label the span a hit or a miss (valid with one client).
inline void Op(const Setup& s, Client& c, const std::vector<uint32_t>& seq,
               Mode mode, bool exact_hits, bool sample_latency,
               const std::atomic<uint32_t>& slice) {
  const uint32_t e = seq[c.cursor];
  c.cursor = c.cursor + 1 == seq.size() ? 0 : c.cursor + 1;
  const Doc& d = s.docs[e >> 31];
  const uint32_t i = e & 0x7FFFFFFF;
  const Clock::time_point t0 =
      sample_latency ? Clock::now() : Clock::time_point{};
  double value = 0.0;
  bool ok = true;
  std::string error;
  if (mode == Mode::kPlain) {
    auto q = d.session->Prepare(d.texts[i]);
    if (q.ok()) {
      value = q.value().Execute();
    } else {
      ok = false;
      error = q.status().ToString();
    }
  } else {
    SpanLog* log = c.ops % kTraceEvery == 0 ? c.log : nullptr;
    const uint64_t req = c.ops;
    ScopedSpan op(log, "estimate.op", req);
    util::Result<query::TwigQuery> twig = util::Status::Internal("unset");
    {
      ScopedSpan span(log, "query.parse", req, op.index());
      twig = query::ParsePath(d.texts[i], d.session->service().tags());
    }
    if (twig.ok()) {
      service::EstimationService::PlanCacheCounters before;
      if (log && exact_hits) before = d.session->service().plan_cache_counters();
      const int idx = log ? log->Begin("service.prepare", req, op.index()) : -1;
      auto q = d.session->Prepare(twig.value());
      if (log) {
        log->End(idx);
        if (exact_hits) {
          const auto after = d.session->service().plan_cache_counters();
          log->Flag(idx, after.hits > before.hits ? kFlagHit : kFlagMiss);
        }
      }
      if (q.ok()) {
        ScopedSpan span(log, "core.execute", req, op.index());
        value = q.value().Execute();
      } else {
        ok = false;
        error = q.status().ToString();
      }
    } else {
      ok = false;
      error = twig.status().ToString();
    }
  }
  if (ok && !SameBits(value, d.oracle[i])) {
    ok = false;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "estimate %.17g, reference %.17g for ",
                  value, d.oracle[i]);
    error = buf + d.texts[i];
  }
  if (!ok) {
    if (c.failed++ == 0) c.first_failure = error;
  }
  if (sample_latency) {
    c.latency.push_back({slice.load(std::memory_order_relaxed),
                         static_cast<float>(MicrosSince(t0))});
  }
  ++c.ops;
}

}  // namespace

Outcome RunEstimate(const Config& config) {
  Outcome out;
  std::vector<double> setup_s;
  auto setup = RepeatSetup<Setup>(
      config, [&](int rep) { return MakeSetup(config, rep, &out); },
      &setup_s);
  if (!setup) return out;

  const int threads = config.nproc;
  const double S = config.seconds;
  const double slice = config.tiny ? 0.05 : 0.1;
  std::vector<Client> clients(threads);
  std::vector<OpCounter> counters(threads);
  std::atomic<uint32_t> slice_index{0};
  Tracer tracer;

  const auto phase = [&](int n, double seconds, Mode mode, bool exact_hits,
                         bool sample_latency) {
    for (int t = 0; t < n; ++t) clients[t].latency.clear();
    return RunSliced(n, seconds, slice, counters,
                     [&](int t, const std::atomic<bool>& stop) {
                       Client& c = clients[t];
                       const auto& seq = setup->sequences[t];
                       uint64_t k = 0;
                       while (!stop.load(std::memory_order_relaxed)) {
                         Op(*setup, c, seq, mode, exact_hits,
                            sample_latency && ++k % kLatencyEvery == 0,
                            slice_index);
                         counters[t].Add();
                       }
                     },
                     &slice_index);
  };

  // Warm up before anything is timed. Preparing every pool query once
  // completes the compiler's cross-query '//'-expansion cache, which
  // otherwise keeps growing through the run and makes misses cheaper
  // the longer a run has gone; then the plan caches settle.
  for (const Doc& d : setup->docs) {
    for (const std::string& text : d.texts) {
      ++out.attempted;
      if (!d.session->Prepare(text).ok()) out.Fail("warm-up Prepare " + text);
    }
  }
  phase(threads, 0.1 * S, Mode::kPlain, false, false);
  const double peak_rss_mb = PeakRssMb();

  if (!config.trace) {
    const std::vector<double> rates = phase(threads, 0.9 * S, Mode::kPlain,
                                            false, true);
    std::vector<SlicedSample> lat;
    for (const Client& c : clients) {
      lat.insert(lat.end(), c.latency.begin(), c.latency.end());
    }
    out.Set("ops_per_s", Median(rates), "1/s");
    out.Set("latency_p50_us", SliceMedianQuantile(lat, 0.50), "us");
    out.Set("latency_p99_us", SliceMedianQuantile(lat, 0.99), "us");
    out.Set("plan_cost_ratio", kNotApplicable, "ratio");
  } else {
    // One client first, untraced and traced segments alternating: layer
    // times from the traced ones (with one client, the plan-cache counter
    // delta around a Prepare is exactly that call's hit or miss), the
    // one-thread throughput from the untraced ones.
    clients[0].log = tracer.NewLog(kSpanCapacity);
    const service::EstimationService& svc0 = setup->docs[0].session->service();
    const service::EstimationService& svc1 = setup->docs[1].session->service();
    const auto c0 = svc0.plan_cache_counters();
    const auto c1 = svc1.plan_cache_counters();
    std::vector<double> one_plain;
    for (int seg = 0; seg < 4; ++seg) {
      const bool t = seg % 2 == 1;
      auto rates = phase(1, 0.1 * S, t ? Mode::kTraced : Mode::kPlain, t,
                         false);
      if (!t) one_plain.insert(one_plain.end(), rates.begin(), rates.end());
    }
    const auto d0 = svc0.plan_cache_counters();
    const auto d1 = svc1.plan_cache_counters();
    const double lookups =
        static_cast<double>(d0.lookups - c0.lookups + d1.lookups - c1.lookups);
    const double hits =
        static_cast<double>(d0.hits - c0.hits + d1.hits - c1.hits);
    const double evictions = static_cast<double>(
        d0.evictions - c0.evictions + d1.evictions - c1.evictions);
    out.Set("estimate.ops_per_s_1t", Median(one_plain), "1/s");
    out.Set("query.parse_us", tracer.MedianUs("query.parse"), "us");
    out.Set("service.prepare_hit_us",
            tracer.MedianUs("service.prepare", kFlagHit), "us");
    out.Set("service.prepare_miss_us",
            tracer.MedianUs("service.prepare", kFlagMiss), "us");
    out.Set("core.execute_us", tracer.MedianUs("core.execute"), "us");
    out.Set("service.plan_cache_hit_ratio", lookups > 0 ? hits / lookups : 0,
            "ratio");
    out.Set("service.plan_cache_evictions",
            lookups > 0 ? 1000.0 * evictions / lookups : 0, "count/1k");

    // Tracing overhead at the workload's client count: untraced and
    // traced segments alternate, so drift hits both alike.
    Tracer overhead_tracer;
    for (Client& c : clients) c.log = overhead_tracer.NewLog(kSpanCapacity);
    std::vector<double> plain, traced;
    for (int seg = 0; seg < 8; ++seg) {
      const bool t = seg % 2 == 1;
      auto rates = phase(threads, 0.05 * S, t ? Mode::kTraced : Mode::kPlain,
                         false, false);
      (t ? traced : plain).insert((t ? traced : plain).end(), rates.begin(),
                                  rates.end());
    }
    out.Set("trace.overhead_frac", 1.0 - Median(traced) / Median(plain),
            "ratio");
    if (!config.trace_dir.empty()) {
      tracer.WriteFile(JoinPath(config.trace_dir, "trace-estimate.tsv"));
    }
  }

  for (const Client& c : clients) {
    out.attempted += c.ops;
    if (c.failed > 0) {
      out.failed += c.failed - 1;
      out.Fail("estimate: " + c.first_failure);
    }
  }
  std::vector<const BuiltSketch*> sketches;
  for (const Doc& d : setup->docs) sketches.push_back(&d.built);
  SetSetupMetrics(setup_s, sketches, peak_rss_mb, &out);
  return out;
}

}  // namespace xsbench
