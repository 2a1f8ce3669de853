// optimize: closed-loop optimizer clients. Each operation plans one P or
// P+V twig (half each, XMark and IMDB) with Session::Plan, then runs the
// chosen binary or holistic plan over a StreamIndex built during set-up
// and checks the match count against ExactEvaluator's true count. Every
// plan sends each connected sub-twig through Prepare; the pool's
// sub-twigs far outnumber the 256-entry plan cache, so they rarely hit:
// the opposite of estimate's hot set.
//
// There are nproc clients, each one thread with its own sessions, so they
// share only read-only data (the mapped sketches and the stream index)
// and each does exactly the work of a lone single-threaded optimizer.
// One thread's speed on a shared host drifts by a fifth from minute to
// minute; the sum over independent threads drifts about half as much.

#include <cstdio>
#include <thread>

#include "workloads.h"

namespace xsbench {
namespace {

struct Item {
  int doc = 0;
  query::TwigQuery twig;
  uint64_t true_count = 0;
};

struct Doc {
  BuiltSketch built;
  std::vector<api::Session> sessions;  // one per client
  std::unique_ptr<exec::StreamIndex> index;
  std::unique_ptr<exec::StructuralJoinExecutor> binary;
  std::unique_ptr<exec::HolisticTwigJoin> holistic;
};

struct Setup {
  std::vector<Corpus> corpora;
  std::vector<Doc> docs;
  std::vector<Item> pool;
  // Per client: pool indices in a seeded order.
  std::vector<std::vector<uint32_t>> sequences;
  double stream_index_ms = 0.0;
  uint64_t est_logical = 0;    // binary est-planned logical rows
  uint64_t exact_logical = 0;  // binary exact-card-planned logical rows
};

constexpr size_t kSpanCapacity = 1 << 18;
constexpr int kTraceEvery = 32;  // record spans for one op in this many

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

// The counting provider handed to plan::PlanTwig in traced runs: the same
// ServiceCardinalities Session::Plan builds, with a span per call.
class TracedCards final : public plan::CardinalityProvider {
 public:
  TracedCards(const plan::CardinalityProvider& inner, SpanLog* log,
              uint64_t req, int parent)
      : inner_(inner), log_(log), req_(req), parent_(parent) {}

  util::Result<double> Cardinality(
      const query::TwigQuery& twig) const override {
    ++calls_;
    ScopedSpan span(log_, "plan.card", req_, parent_);
    return inner_.Cardinality(twig);
  }
  std::string_view name() const override { return inner_.name(); }
  uint64_t calls() const { return calls_; }

 private:
  const plan::CardinalityProvider& inner_;
  SpanLog* log_;
  uint64_t req_;
  int parent_;
  mutable uint64_t calls_ = 0;
};

std::unique_ptr<Setup> MakeSetup(const Config& config, int rep,
                                 Outcome* out) {
  auto s = std::make_unique<Setup>();
  const DataConfig dc = DataConfigFor(config);
  const int per_doc = config.tiny ? 24 : 2000;
  const size_t ratio_per_doc = config.tiny ? 12 : 150;
  for (const char* name : {"xmark", "imdb"}) {
    s->corpora.push_back(MakeCorpus(name, dc.scale));
  }
  plan::PlannerOptions binary_only;
  binary_only.consider_holistic = false;
  for (size_t d = 0; d < s->corpora.size(); ++d) {
    const Corpus& corpus = s->corpora[d];
    const query::Workload held = HeldAsideWorkload(corpus, dc);
    auto built = BuildVerified(
        corpus, dc, config.nproc, held,
        JoinPath(config.work_dir, "optimize-" + std::to_string(rep) + "-" +
                                      corpus.name + ".xsk3"),
        false, nullptr, 0, out);
    out->attempted += held.queries.size();
    if (!built) return nullptr;
    Doc doc;
    doc.built = std::move(*built);
    // Plan and Prepare never use the session's batch pool: one thread.
    service::ServiceOptions so;
    so.num_threads = 1;
    for (int c = 0; c < config.nproc; ++c) {
      auto session = api::Session::Open(doc.built.loaded, so);
      if (!session.ok()) {
        out->Fail("Session::Open: " + session.status().ToString());
        return nullptr;
      }
      doc.sessions.push_back(std::move(session).value());
    }
    const Clock::time_point ti = Clock::now();
    doc.index = std::make_unique<exec::StreamIndex>(corpus.doc);
    s->stream_index_ms += SecondsSince(ti) * 1e3;
    doc.binary = std::make_unique<exec::StructuralJoinExecutor>(*doc.index);
    doc.holistic = std::make_unique<exec::HolisticTwigJoin>(*doc.index);

    // Plan quality on the first twigs of the pool: estimate-planned and
    // exact-card-planned binary orders, both executed and both checked
    // against the true count. (Exact cardinalities cost a document scan
    // each, so the whole pool would dominate set-up.)
    const query::ExactEvaluator exact(corpus.doc);
    const plan::ExactCardinalities exact_cards(exact);
    auto twigs = MixedTwigs(corpus, per_doc, SubSeed(config.seed, 20 + d));
    for (size_t i = 0; i < twigs.size() && i < ratio_per_doc; ++i) {
      const query::WorkloadQuery& wq = twigs[i];
      auto est = doc.sessions[0].Plan(wq.twig, binary_only);
      auto ex = plan::PlanTwig(wq.twig, exact_cards, binary_only);
      if (!est.ok() || !ex.ok()) {
        out->Fail("plan: " + (!est.ok() ? est.status() : ex.status())
                                 .ToString());
        return nullptr;
      }
      auto re = doc.binary->ExecuteBinary(wq.twig, est.value().order);
      auto rx = doc.binary->ExecuteBinary(wq.twig, ex.value().order);
      if (!re.ok() || !rx.ok()) {
        const util::Status st = !re.ok() ? re.status() : rx.status();
        if (st.code() == util::StatusCode::kOutOfRange) continue;
        out->Fail("execute: " + st.ToString());
        return nullptr;
      }
      out->attempted += 2;
      if (re.value().matches != wq.true_count ||
          rx.value().matches != wq.true_count) {
        out->Fail("set-up plan execution disagrees with ExactEvaluator");
      }
      s->est_logical = SatAdd(s->est_logical, re.value().logical_rows);
      s->exact_logical = SatAdd(s->exact_logical, rx.value().logical_rows);
    }
    for (auto& wq : twigs) {
      s->pool.push_back({static_cast<int>(d), std::move(wq.twig),
                         wq.true_count});
    }
    s->docs.push_back(std::move(doc));
  }
  if (config.corrupt_oracle) s->pool[0].true_count += 1;
  for (int c = 0; c < config.nproc; ++c) {
    std::vector<uint32_t> seq(s->pool.size());
    for (size_t i = 0; i < seq.size(); ++i) seq[i] = i;
    Rng rng(SubSeed(config.seed, 40 + c));
    for (size_t i = seq.size(); i > 1; --i) {
      std::swap(seq[i - 1], seq[rng.Below(i)]);
    }
    s->sequences.push_back(std::move(seq));
  }
  return s;
}

struct OpResult {
  bool ok = true;
  bool capped = false;  // the executor's row cap stopped the plan
  std::string error;
  exec::ExecStats stats;
  uint64_t card_calls = 0;
};

// Plan + execute one pool twig. Untraced: Session::Plan. Traced:
// plan::PlanTwig with the counting provider, which is what Session::Plan
// runs, plus spans around planning, each cardinality call and execution
// when `log` is non-null (one traced operation in kTraceEvery).
OpResult Op(const Setup& s, int client, const Item& item, bool traced,
            SpanLog* log, uint64_t req) {
  OpResult r;
  const Doc& d = s.docs[item.doc];
  const api::Session& session = d.sessions[client];
  ScopedSpan op(log, "optimize.op", req);
  util::Result<plan::TwigPlan> p = util::Status::Internal("unset");
  if (!traced) {
    p = session.Plan(item.twig);
  } else {
    ScopedSpan span(log, "plan.plan", req, op.index());
    const plan::ServiceCardinalities service_cards(session.service());
    const TracedCards cards(service_cards, log, req, span.index());
    p = plan::PlanTwig(item.twig, cards);
    r.card_calls = cards.calls();
  }
  if (!p.ok()) {
    r.ok = false;
    r.error = "plan: " + p.status().ToString();
    return r;
  }
  util::Result<exec::ExecStats> e = util::Status::Internal("unset");
  {
    ScopedSpan span(log, "exec.execute", req, op.index());
    e = p.value().use_holistic
            ? d.holistic->Execute(item.twig)
            : d.binary->ExecuteBinary(item.twig, p.value().order);
  }
  if (!e.ok()) {
    r.ok = false;
    r.capped = e.status().code() == util::StatusCode::kOutOfRange;
    r.error = "execute: " + e.status().ToString();
    return r;
  }
  r.stats = e.value();
  if (r.stats.matches != item.true_count) {
    r.ok = false;
    r.error = "plan counted " + std::to_string(r.stats.matches) +
              " matches, ExactEvaluator " + std::to_string(item.true_count);
  }
  return r;
}

}  // namespace

Outcome RunOptimize(const Config& config) {
  Outcome out;
  std::vector<double> setup_s;
  double stream_index_ms = 0.0;
  auto setup = RepeatSetup<Setup>(
      config,
      [&](int rep) {
        auto s = MakeSetup(config, rep, &out);
        if (s) stream_index_ms = s->stream_index_ms;
        return s;
      },
      &setup_s);
  if (!setup) return out;

  const double S = config.seconds;
  const double slice = config.tiny ? 0.05 : 0.5;
  const int clients_n = config.nproc;
  // Per-client state, aligned so that no two clients share a cache line.
  struct alignas(64) Client {
    size_t cursor = 0;
    uint64_t ops = 0;
    std::vector<SlicedSample> latency;
    uint64_t failed = 0;
    std::string first_failure;
    SpanLog* log = nullptr;
    void Check(const OpResult& r) {
      if (!r.ok && failed++ == 0) first_failure = r.error;
    }
  };
  std::vector<Client> clients(clients_n);
  std::vector<OpCounter> counters(clients_n);
  std::atomic<uint32_t> slice_index{0};
  Tracer tracer;
  const auto phase = [&](double seconds, bool record_latency, bool traced) {
    return RunSliced(
        clients_n, seconds, slice, counters,
        [&](int c, const std::atomic<bool>& stop) {
          Client& cl = clients[c];
          const std::vector<uint32_t>& seq = setup->sequences[c];
          while (!stop.load(std::memory_order_relaxed)) {
            const Item& item = setup->pool[seq[cl.cursor]];
            cl.cursor = cl.cursor + 1 == seq.size() ? 0 : cl.cursor + 1;
            const Clock::time_point t0 = Clock::now();
            cl.Check(Op(*setup, c, item, traced,
                        traced && cl.ops % kTraceEvery == 0 ? cl.log : nullptr,
                        cl.ops));
            if (record_latency) {
              cl.latency.push_back({slice_index.load(std::memory_order_relaxed),
                                    static_cast<float>(MicrosSince(t0))});
            }
            ++cl.ops;
            counters[c].Add();
          }
        },
        &slice_index);
  };

  // Warm-up: every client runs every pool twig once, which also completes
  // its compiler's cross-query '//'-expansion cache. A twig whose plan
  // trips the executor's row cap (a resource guard, not a wrong answer)
  // leaves the sequences. A traced run counts client 0's pass: its
  // counts depend only on the seed.
  if (config.trace) {
    for (Client& cl : clients) cl.log = tracer.NewLog(kSpanCapacity);
  }
  struct Census {
    uint64_t logical = 0, emitted = 0, holistic = 0, card_calls = 0;
    std::vector<char> capped;
  };
  std::vector<Census> census(clients_n);
  {
    std::vector<std::thread> pool;
    for (int c = 0; c < clients_n; ++c) {
      pool.emplace_back([&, c] {
        Census& k = census[c];
        k.capped.assign(setup->pool.size(), 0);
        Client& cl = clients[c];
        for (uint32_t i : setup->sequences[c]) {
          const bool traced = c == 0 && config.trace;
          const OpResult r =
              Op(*setup, c, setup->pool[i], traced,
                 traced && cl.ops % kTraceEvery == 0 ? cl.log : nullptr,
                 cl.ops);
          ++cl.ops;
          if (r.capped) {
            k.capped[i] = 1;
            continue;
          }
          cl.Check(r);
          k.logical = SatAdd(k.logical, r.stats.logical_rows);
          k.emitted = SatAdd(k.emitted, r.stats.emitted_rows);
          k.holistic += r.stats.holistic;
          k.card_calls += r.card_calls;
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  for (int c = 0; c < clients_n; ++c) {
    std::vector<uint32_t> kept;
    for (uint32_t i : setup->sequences[c]) {
      if (!census[0].capped[i]) kept.push_back(i);
    }
    setup->sequences[c] = std::move(kept);
  }
  if (setup->sequences[0].empty()) return out;
  const double peak_rss_mb = PeakRssMb();

  if (!config.trace) {
    const std::vector<double> rates = phase(S, true, false);
    std::vector<SlicedSample> latency;
    for (const Client& cl : clients) {
      latency.insert(latency.end(), cl.latency.begin(), cl.latency.end());
    }
    out.Set("ops_per_s", Median(rates), "1/s");
    out.Set("latency_p50_us", SliceMedianQuantile(latency, 0.50), "us");
    out.Set("latency_p99_us", SliceMedianQuantile(latency, 0.99), "us");
    out.Set("plan_cost_ratio",
            static_cast<double>(setup->est_logical) /
                std::max<uint64_t>(1, setup->exact_logical),
            "ratio");
  } else {
    const Census& k = census[0];
    const double n = static_cast<double>(setup->sequences[0].size());
    out.Set("exec.logical_rows", static_cast<double>(k.logical), "count");
    out.Set("exec.emitted_rows", static_cast<double>(k.emitted), "count");
    out.Set("exec.holistic_share", k.holistic / n, "ratio");
    out.Set("plan.card_calls", k.card_calls / n, "count");
    // Timing: untraced and traced segments alternate.
    std::vector<double> plain, traced;
    for (int seg = 0; seg < 8; ++seg) {
      const bool t = seg % 2 == 1;
      auto rates = phase(0.125 * S, false, t);
      (t ? traced : plain).insert((t ? traced : plain).end(), rates.begin(),
                                  rates.end());
    }
    out.Set("plan.plan_us", tracer.MedianUs("plan.plan", 0, false), "us");
    out.Set("plan.card_us", tracer.MedianUs("plan.card"), "us");
    out.Set("exec.execute_us", tracer.MedianUs("exec.execute"), "us");
    out.Set("exec.stream_index_ms", stream_index_ms, "ms");
    out.Set("trace.overhead_frac", 1.0 - Median(traced) / Median(plain),
            "ratio");
    if (!config.trace_dir.empty()) {
      tracer.WriteFile(JoinPath(config.trace_dir, "trace-optimize.tsv"));
    }
  }
  for (const Client& cl : clients) {
    out.attempted += cl.ops;
    if (cl.failed > 0) {
      out.failed += cl.failed - 1;
      out.Fail("optimize: " + cl.first_failure);
    }
  }

  std::vector<const BuiltSketch*> sketches;
  for (const Doc& d : setup->docs) sketches.push_back(&d.built);
  SetSetupMetrics(setup_s, sketches, peak_rss_mb, &out);
  return out;
}

}  // namespace xsbench
