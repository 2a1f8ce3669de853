// Structural-tracing tests: Tracer ring/drop semantics, span nesting and
// cross-thread context propagation, sampling, the Chrome/binary exporters,
// the flight recorder, histogram exemplars, and EstimationService
// integration (tracing must never perturb estimates). The concurrency
// cases run under TSan/ASan via tests/run_sanitizers.sh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/estimator.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"

namespace xsketch {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Resets the process tracer to a clean sampled-off default before and
// after each test: the tracer is a process singleton shared across the
// whole binary, so every test starts from empty rings.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Tracer::Default().Configure({}); }
  void TearDown() override { obs::Tracer::Default().Configure({}); }
};

// Flight tests additionally need the recorder's rings AND counters clean:
// Configure restores the default capacity/threshold, Reset zeroes the
// counters (other tests run services with the recorder default-on).
class FlightTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    obs::FlightRecorder::Default().Configure({});
    obs::FlightRecorder::Default().Reset();
  }
  void TearDown() override {
    obs::FlightRecorder::Default().Configure({});
    obs::FlightRecorder::Default().Reset();
    TraceTest::TearDown();
  }
};

TEST_F(TraceTest, UnsampledScopeIsInert) {
  obs::Tracer& tracer = obs::Tracer::Default();
  {
    obs::SpanScope s(obs::Stage::kCompile, 7);
    EXPECT_FALSE(s.recording());
    EXPECT_FALSE(obs::CurrentTraceContext().sampled());
  }
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST_F(TraceTest, ForceTraceRecordsNestedSpans) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::TraceContext ctx = tracer.ForceTrace();
  ASSERT_TRUE(ctx.sampled());
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery, 1);
    ASSERT_TRUE(root.recording());
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, ctx.trace_id);
    {
      obs::SpanScope parse(obs::Stage::kParse, 11);
      obs::SpanScope compile(obs::Stage::kCompile);
      compile.set_arg(3);
    }
    obs::SpanScope exec(obs::Stage::kExecute);
  }
  EXPECT_FALSE(obs::CurrentTraceContext().sampled());

  const std::vector<obs::Span> spans = tracer.SpansForTrace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 4u);  // root, parse, compile, execute

  std::map<uint64_t, obs::Span> by_id;
  const obs::Span* root_span = nullptr;
  for (const obs::Span& s : spans) {
    EXPECT_EQ(s.trace_id, ctx.trace_id);
    by_id[s.span_id] = s;
    if (s.stage == obs::Stage::kQuery) root_span = &by_id[s.span_id];
  }
  ASSERT_NE(root_span, nullptr);
  EXPECT_EQ(root_span->parent_id, 0u);
  EXPECT_EQ(root_span->arg, 1u);

  for (const obs::Span& s : spans) {
    if (s.span_id == root_span->span_id) continue;
    // Every non-root span nests (by parent link AND by interval) inside
    // its parent.
    ASSERT_TRUE(by_id.count(s.parent_id)) << StageName(s.stage);
    const obs::Span& parent = by_id[s.parent_id];
    EXPECT_GE(s.start_ns, parent.start_ns);
    EXPECT_LE(s.start_ns + s.dur_ns, parent.start_ns + parent.dur_ns);
    if (s.stage == obs::Stage::kParse) {
      EXPECT_EQ(parent.stage, obs::Stage::kQuery);
      EXPECT_EQ(s.arg, 11u);
    }
    if (s.stage == obs::Stage::kCompile) {
      // Nested thread-current scope attaches under the enclosing parse
      // scope (set_arg updated the payload mid-scope).
      EXPECT_EQ(parent.stage, obs::Stage::kParse);
      EXPECT_EQ(s.arg, 3u);
    }
    if (s.stage == obs::Stage::kExecute) {
      EXPECT_EQ(parent.stage, obs::Stage::kQuery);
    }
  }
}

TEST_F(TraceTest, StartTraceHonorsSampleEvery) {
  obs::Tracer& tracer = obs::Tracer::Default();
  // sample_every = 0 (the default): StartTrace never samples.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(tracer.StartTrace().sampled());

  tracer.Configure({.sample_every = 3});
  int sampled = 0;
  for (int i = 0; i < 9; ++i) sampled += tracer.StartTrace().sampled();
  EXPECT_EQ(sampled, 3);  // exactly every 3rd, any phase

  tracer.Configure({.sample_every = 1});
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(tracer.StartTrace().sampled());

  // Distinct sampled traces get distinct ids.
  const uint64_t a = tracer.StartTrace().trace_id;
  const uint64_t b = tracer.StartTrace().trace_id;
  EXPECT_NE(a, 0u);
  EXPECT_NE(a, b);
}

TEST_F(TraceTest, RingOverwriteCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Configure({.sample_every = 0, .ring_capacity = 4});
  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    for (int i = 0; i < 10; ++i) {
      obs::SpanScope s(obs::Stage::kExecute, static_cast<uint64_t>(i));
    }
  }
  // 11 appends (10 children + the root) into a 4-slot ring.
  EXPECT_EQ(tracer.recorded(), 11u);
  EXPECT_EQ(tracer.Snapshot().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 7u);

  // The survivors are the newest spans (the overwrite discipline).
  uint64_t max_arg = 0;
  for (const obs::Span& s : tracer.Snapshot()) {
    if (s.stage == obs::Stage::kExecute) max_arg = std::max(max_arg, s.arg);
  }
  EXPECT_EQ(max_arg, 9u);
}

TEST_F(TraceTest, CrossThreadPropagation) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::TraceContext ctx = tracer.ForceTrace();
  uint64_t root_id = 0;
  constexpr int kThreads = 4;
  {
    obs::SpanScope root(ctx, obs::Stage::kBatch, kThreads);
    root_id = root.context().parent_span;
    const obs::TraceContext chunk_ctx = root.context();
    std::vector<std::thread> workers;
    for (int w = 0; w < kThreads; ++w) {
      workers.emplace_back([&chunk_ctx, w] {
        // Explicit handoff: the worker attaches to the batch root, and
        // its thread-current children attach beneath the chunk.
        obs::SpanScope chunk(chunk_ctx, obs::Stage::kBatchChunk,
                             static_cast<uint64_t>(w));
        obs::SpanScope q(obs::Stage::kQuery);
        EXPECT_TRUE(q.recording());
      });
    }
    for (auto& t : workers) t.join();
  }

  const std::vector<obs::Span> spans = tracer.SpansForTrace(ctx.trace_id);
  ASSERT_EQ(spans.size(), 1 + 2 * kThreads);

  std::map<uint64_t, obs::Span> by_id;
  for (const obs::Span& s : spans) by_id[s.span_id] = s;
  std::set<uint32_t> chunk_tids;
  int chunks = 0, queries = 0;
  for (const obs::Span& s : spans) {
    if (s.stage == obs::Stage::kBatchChunk) {
      ++chunks;
      EXPECT_EQ(s.parent_id, root_id);
      chunk_tids.insert(s.tid);
    } else if (s.stage == obs::Stage::kQuery) {
      ++queries;
      ASSERT_TRUE(by_id.count(s.parent_id));
      EXPECT_EQ(by_id[s.parent_id].stage, obs::Stage::kBatchChunk);
      EXPECT_EQ(by_id[s.parent_id].tid, s.tid);  // same worker thread
    }
  }
  EXPECT_EQ(chunks, kThreads);
  EXPECT_EQ(queries, kThreads);
  // Each worker recorded into its own thread ring.
  EXPECT_EQ(chunk_tids.size(), static_cast<size_t>(kThreads));
}

TEST_F(TraceTest, UnsampledExplicitContextSuppressesNestedScopes) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::TraceContext ctx = tracer.ForceTrace();
  obs::SpanScope root(ctx, obs::Stage::kQuery);
  {
    // An explicitly-unsampled scope masks the sampled thread context for
    // its duration (what a rate-0 service does under a traced caller that
    // declined to adopt).
    obs::SpanScope off(obs::TraceContext{}, obs::Stage::kBatch);
    EXPECT_FALSE(off.recording());
    EXPECT_FALSE(obs::CurrentTraceContext().sampled());
    obs::SpanScope nested(obs::Stage::kCompile);
    EXPECT_FALSE(nested.recording());
  }
  // The previous context is restored once the masking scope closes.
  EXPECT_EQ(obs::CurrentTraceContext().trace_id, ctx.trace_id);
  obs::SpanScope after(obs::Stage::kExecute);
  EXPECT_TRUE(after.recording());
}

TEST_F(TraceTest, DrainClearsSpansKeepsDropCounter) {
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Configure({.sample_every = 0, .ring_capacity = 2});
  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    obs::SpanScope a(obs::Stage::kParse);
    obs::SpanScope b(obs::Stage::kCompile);
  }
  const uint64_t dropped = tracer.dropped();
  EXPECT_EQ(dropped, 1u);  // 3 spans, 2 slots
  EXPECT_EQ(tracer.Drain().size(), 2u);
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.dropped(), dropped);
}

TEST_F(TraceTest, StageNamesAreDistinct) {
  std::set<std::string> names;
  for (int i = 0; i < obs::kStageCount; ++i) {
    const char* name = obs::StageName(static_cast<obs::Stage>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_TRUE(names.insert(name).second) << name;
  }
}

TEST_F(TraceTest, ChromeJsonExport) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    obs::SpanScope c(obs::Stage::kCompile, 5);
  }
  const std::string json =
      obs::Tracer::ToChromeJson(tracer.SpansForTrace(ctx.trace_id));
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compile\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"xsketch\""), std::string::npos);
  // Braces balance (cheap well-formedness check without a JSON parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST_F(TraceTest, BinaryRoundTrip) {
  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kBatch, 3);
    obs::SpanScope a(obs::Stage::kBatchChunk, 1);
    obs::SpanScope b(obs::Stage::kExecute);
  }
  const std::vector<obs::Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 3u);

  const std::string bytes = obs::Tracer::ToBinary(spans);
  auto restored = obs::Tracer::FromBinary(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_EQ(restored.value().size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(restored.value()[i].trace_id, spans[i].trace_id);
    EXPECT_EQ(restored.value()[i].span_id, spans[i].span_id);
    EXPECT_EQ(restored.value()[i].parent_id, spans[i].parent_id);
    EXPECT_EQ(restored.value()[i].start_ns, spans[i].start_ns);
    EXPECT_EQ(restored.value()[i].dur_ns, spans[i].dur_ns);
    EXPECT_EQ(restored.value()[i].arg, spans[i].arg);
    EXPECT_EQ(restored.value()[i].tid, spans[i].tid);
    EXPECT_EQ(restored.value()[i].stage, spans[i].stage);
  }

  // Corruption is rejected, not misparsed.
  std::string bad_magic = bytes;
  bad_magic[0] = 'Y';
  EXPECT_FALSE(obs::Tracer::FromBinary(bad_magic).ok());
  EXPECT_FALSE(
      obs::Tracer::FromBinary(bytes.substr(0, bytes.size() - 1)).ok());
  EXPECT_FALSE(obs::Tracer::FromBinary("XT").ok());
}

// --- EstimationService integration -------------------------------------------

std::vector<query::TwigQuery> BibQueries(const xml::Document& doc) {
  std::vector<query::TwigQuery> queries;
  for (const char* p : {"//paper", "//paper/keyword", "//author/paper/title",
                        "//book", "//paper/keyword"}) {
    auto q = query::ParsePath(p, doc.tags());
    EXPECT_TRUE(q.ok()) << p;
    queries.push_back(std::move(q).value());
  }
  return queries;
}

TEST_F(TraceTest, ServiceTracingNeverPerturbsEstimates) {
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const core::Estimator reference(sketch);
  const std::vector<query::TwigQuery> queries = BibQueries(doc);

  service::ServiceOptions plain_opts;
  plain_opts.num_threads = 2;
  auto plain = service::EstimationService::Create(sketch, plain_opts);
  ASSERT_TRUE(plain.ok());

  service::ServiceOptions traced_opts = plain_opts;
  traced_opts.trace_sample_rate = 1.0;
  auto traced = service::EstimationService::Create(sketch, traced_opts);
  ASSERT_TRUE(traced.ok());

  const auto a = plain.value()->EstimateBatch(queries);
  const auto b = traced.value()->EstimateBatch(queries);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok());
    ASSERT_TRUE(b[i].ok());
    EXPECT_TRUE(BitEqual(a[i].value().estimate, b[i].value().estimate));
    EXPECT_TRUE(BitEqual(a[i].value().estimate,
                         reference.Estimate(queries[i])));
  }

  // The traced batch produced the full serving-path span taxonomy.
  std::set<obs::Stage> stages;
  for (const obs::Span& s : obs::Tracer::Default().Snapshot()) {
    stages.insert(s.stage);
  }
  EXPECT_TRUE(stages.count(obs::Stage::kBatch));
  EXPECT_TRUE(stages.count(obs::Stage::kBatchChunk));
  EXPECT_TRUE(stages.count(obs::Stage::kQuery));
  EXPECT_TRUE(stages.count(obs::Stage::kPlanCache));
  EXPECT_TRUE(stages.count(obs::Stage::kExecute));
}

TEST_F(TraceTest, ServiceRateZeroRecordsNothing) {
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  service::ServiceOptions opts;  // trace_sample_rate defaults to 0
  opts.num_threads = 2;
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());
  const auto results = svc.value()->EstimateBatch(BibQueries(doc));
  for (const auto& r : results) EXPECT_TRUE(r.ok());
  EXPECT_EQ(obs::Tracer::Default().recorded(), 0u);
}

TEST_F(TraceTest, ServiceDeterministicSampling) {
  // The per-service sampling decision is a pure function of (seed,
  // ordinal): two services with the same seed sample the same ordinals.
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const std::vector<query::TwigQuery> queries = BibQueries(doc);

  service::ServiceOptions opts;
  opts.num_threads = 1;
  opts.trace_sample_rate = 0.5;
  opts.trace_seed = 42;

  uint64_t counts[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    obs::Tracer::Default().Reset();
    auto svc = service::EstimationService::Create(sketch, opts);
    ASSERT_TRUE(svc.ok());
    for (const auto& q : queries) ASSERT_TRUE(svc.value()->Estimate(q).ok());
    counts[run] = obs::Tracer::Default().recorded();
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST_F(TraceTest, InvalidSampleRateRejected) {
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  service::ServiceOptions opts;
  opts.trace_sample_rate = 1.5;
  EXPECT_FALSE(
      service::EstimationService::Create(std::move(sketch), opts).ok());
}

// --- Flight recorder ---------------------------------------------------------

TEST_F(FlightTest, RecordsDumpNewestFirst) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  for (int i = 0; i < 3; ++i) {
    obs::FlightRecord r;
    r.twig_key = "key" + std::to_string(i);
    r.estimate = static_cast<double>(i);
    r.total_us = 10.0;
    rec.Record(std::move(r));
  }
  const std::vector<obs::FlightRecord> dump = rec.Dump();
  ASSERT_EQ(dump.size(), 3u);
  EXPECT_EQ(dump[0].twig_key, "key2");  // newest first
  EXPECT_EQ(dump[2].twig_key, "key0");
  EXPECT_GT(dump[0].seq, dump[1].seq);
  EXPECT_GT(dump[1].seq, dump[2].seq);
  EXPECT_EQ(rec.counters().recorded, 3u);
  EXPECT_EQ(rec.counters().slow, 0u);
  EXPECT_EQ(rec.counters().errors, 0u);

  obs::FlightRecord found;
  EXPECT_TRUE(rec.FindByKey("key1", &found));
  EXPECT_EQ(found.estimate, 1.0);
  EXPECT_FALSE(rec.FindByKey("nope", &found));
  rec.Reset();
  EXPECT_TRUE(rec.Dump().empty());
  EXPECT_EQ(rec.counters().recorded, 0u);
}

TEST_F(FlightTest, CapacityOverwriteCountsDropped) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  rec.Configure({.capacity = 2, .slow_us = 1e9});
  for (int i = 0; i < 5; ++i) {
    obs::FlightRecord r;
    r.twig_key = "k" + std::to_string(i);
    rec.Record(std::move(r));
  }
  const auto dump = rec.Dump();
  ASSERT_EQ(dump.size(), 2u);
  EXPECT_EQ(dump[0].twig_key, "k4");
  EXPECT_EQ(dump[1].twig_key, "k3");
  EXPECT_EQ(rec.counters().recorded, 5u);
  EXPECT_EQ(rec.counters().dropped, 3u);
}

TEST_F(FlightTest, SlowAndErrorRecordsPromoteSpanTrees) {
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  rec.Configure({.capacity = 16, .slow_us = 1000.0});

  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    obs::SpanScope e(obs::Stage::kExecute);
  }

  // Fast + ok: no promotion even though the trace was sampled.
  obs::FlightRecord fast;
  fast.twig_key = "fast";
  fast.trace_id = ctx.trace_id;
  fast.total_us = 10.0;
  rec.Record(std::move(fast));

  // Slow: crosses the threshold, carries the full span tree.
  obs::FlightRecord slow;
  slow.twig_key = "slow";
  slow.trace_id = ctx.trace_id;
  slow.total_us = 5000.0;
  rec.Record(std::move(slow));

  // Failed: promoted regardless of latency.
  obs::FlightRecord failed;
  failed.twig_key = "failed";
  failed.trace_id = ctx.trace_id;
  failed.ok = false;
  failed.error = "boom";
  failed.total_us = 1.0;
  rec.Record(std::move(failed));

  obs::FlightRecord out;
  ASSERT_TRUE(rec.FindByKey("fast", &out));
  EXPECT_FALSE(out.slow);
  EXPECT_TRUE(out.spans.empty());
  ASSERT_TRUE(rec.FindByKey("slow", &out));
  EXPECT_TRUE(out.slow);
  EXPECT_EQ(out.spans.size(), 2u);
  ASSERT_TRUE(rec.FindByKey("failed", &out));
  EXPECT_TRUE(out.spans.size() == 2u);
  EXPECT_EQ(rec.counters().slow, 1u);
  EXPECT_EQ(rec.counters().errors, 1u);

  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"records\":["), std::string::npos);
  EXPECT_NE(json.find("\"error\":\"boom\""), std::string::npos);
  EXPECT_NE(json.find("\"stages_us\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  rec.Reset();
}

TEST_F(FlightTest, ServiceRecordsEveryBatchQuery) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const std::vector<query::TwigQuery> queries = BibQueries(doc);

  service::ServiceOptions opts;  // the flight recorder is always on
  opts.num_threads = 2;
  opts.sketch_generation = 7;
  auto svc = service::EstimationService::Create(sketch, opts);
  ASSERT_TRUE(svc.ok());
  const auto results = svc.value()->EstimateBatch(queries);

  EXPECT_EQ(rec.counters().recorded, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    obs::FlightRecord r;
    ASSERT_TRUE(
        rec.FindByKey(service::CanonicalTwigKey(queries[i]), &r)) << i;
    EXPECT_TRUE(BitEqual(r.estimate, results[i].value().estimate));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.sketch_generation, 7u);
    EXPECT_GT(r.total_us, 0.0);
    EXPECT_GE(r.total_us, r.execute_us);
  }
  // A second batch over the same shapes goes entirely through the plan
  // cache; FindByKey returns the newest record for each key.
  for (const auto& r : svc.value()->EstimateBatch(queries)) {
    ASSERT_TRUE(r.ok());
  }
  obs::FlightRecord dup;
  ASSERT_TRUE(
      rec.FindByKey(service::CanonicalTwigKey(queries.front()), &dup));
  EXPECT_TRUE(dup.plan_cache_hit);
  EXPECT_EQ(dup.compile_us, 0.0);  // cache hits never re-lower
}

TEST_F(FlightTest, ConcurrentRecordersAndDumpers) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  rec.Configure({.capacity = 64, .slow_us = 1e9});
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&rec, w] {
      for (int i = 0; i < kIters; ++i) {
        obs::FlightRecord r;
        r.twig_key = "w" + std::to_string(w);
        r.estimate = static_cast<double>(i);
        rec.Record(std::move(r));
      }
    });
  }
  std::thread dumper([&rec] {
    for (int i = 0; i < 50; ++i) {
      const auto dump = rec.Dump();
      // Seqs are unique and strictly descending in a dump.
      for (size_t j = 1; j < dump.size(); ++j) {
        EXPECT_LT(dump[j].seq, dump[j - 1].seq);
      }
      (void)rec.ToJson();
    }
  });
  for (auto& t : writers) t.join();
  dumper.join();
  EXPECT_EQ(rec.counters().recorded,
            static_cast<uint64_t>(kThreads) * kIters);
  rec.Configure({});
}

// --- Histogram exemplars -----------------------------------------------------

TEST_F(TraceTest, HistogramExemplarTracksWorstTracedObservation) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.GetHistogram("lat_us", {10.0, 100.0});
  h.Observe(500.0);       // untraced: never becomes the exemplar
  h.Observe(5.0, 111);
  h.Observe(50.0, 222);
  h.Observe(20.0, 333);   // traced but not the worst
  obs::Histogram::Exemplar ex = h.exemplar();
  EXPECT_EQ(ex.trace_id, 222u);
  EXPECT_EQ(ex.value, 50.0);

  // The JSON exposition carries the exemplar; the Prometheus text layout
  // is unchanged (exemplars are JSON-only by design).
  const std::string json = reg.ToJson();
  // 50 renders as "5e+01": the exposition uses the shortest
  // round-trippable decimal form.
  EXPECT_NE(json.find("\"exemplar\":{\"value\":5e+01,\"trace_id\":222}"),
            std::string::npos);
  EXPECT_EQ(reg.ToPrometheusText().find("exemplar"), std::string::npos);

  // TakeExemplar starts a fresh window.
  ex = h.TakeExemplar();
  EXPECT_EQ(ex.trace_id, 222u);
  EXPECT_EQ(h.exemplar().trace_id, 0u);
  h.Observe(1.0, 444);
  EXPECT_EQ(h.exemplar().trace_id, 444u);
}

TEST_F(TraceTest, BatchLatencyExemplarLinksToTrace) {
  // A fully-traced batch leaves the service latency histogram holding an
  // exemplar pointing into the recorded trace.
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  service::ServiceOptions opts;
  opts.num_threads = 2;
  opts.trace_sample_rate = 1.0;
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());

  obs::Histogram& lat = obs::MetricsRegistry::Default().GetHistogram(
      "xsketch_service_query_latency_us", obs::LatencyBucketsUs());
  lat.TakeExemplar();  // fresh window
  for (const auto& r : svc.value()->EstimateBatch(BibQueries(doc))) {
    ASSERT_TRUE(r.ok());
  }
  const obs::Histogram::Exemplar ex = lat.TakeExemplar();
  ASSERT_NE(ex.trace_id, 0u);
  EXPECT_FALSE(obs::Tracer::Default().SpansForTrace(ex.trace_id).empty());
}

}  // namespace
}  // namespace xsketch
