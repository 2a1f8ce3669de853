// Structural-tracing tests: Tracer ring/drop semantics at the fixed ring
// capacity, span nesting and cross-thread context propagation, the Chrome
// exporter, the flight recorder, histogram exemplars, and
// EstimationService integration (caller-owned trace roots; tracing must
// never perturb estimates). The concurrency cases run under TSan and
// ASan+UBSan via tests/run_sanitizers.sh.

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

// Resets the process tracer (rings and counters) before and after each
// test: the tracer is a process singleton shared across the whole binary,
// so every test starts from empty rings.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Tracer::Default().Reset(); }
  void TearDown() override { obs::Tracer::Default().Reset(); }
};

// Flight tests additionally need the recorder's rings and counters clean
// (other tests run services with the recorder always on).
class FlightTest : public TraceTest {
 protected:
  void SetUp() override {
    TraceTest::SetUp();
    obs::FlightRecorder::Default().Reset();
  }
  void TearDown() override {
    obs::FlightRecorder::Default().Reset();
    TraceTest::TearDown();
  }
};

uint64_t RegistryCount(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name).value();
}

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

TEST_F(TraceTest, RingOverwriteCountsDrops) {
  obs::Tracer& tracer = obs::Tracer::Default();
  constexpr uint64_t kCapacity = obs::Tracer::kRingCapacity;
  constexpr uint64_t kChildren = kCapacity + 6;
  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    for (uint64_t i = 0; i < kChildren; ++i) {
      obs::SpanScope s(obs::Stage::kExecute, i);
    }
  }
  // kCapacity + 7 appends (the children, then the root) into one
  // kCapacity-slot ring.
  EXPECT_EQ(tracer.recorded(), kChildren + 1);
  EXPECT_EQ(tracer.dropped(), 7u);
  // The registry counters /metrics exposes are the tracer's counts.
  EXPECT_EQ(RegistryCount("xsketch_trace_spans_total"), kChildren + 1);
  EXPECT_EQ(RegistryCount("xsketch_trace_spans_dropped_total"), 7u);

  // The survivors are the newest spans (the overwrite discipline): the
  // first 7 children were overwritten.
  const std::vector<obs::Span> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), kCapacity);
  uint64_t min_arg = kChildren, max_arg = 0;
  for (const obs::Span& s : spans) {
    if (s.stage != obs::Stage::kExecute) continue;
    min_arg = std::min(min_arg, s.arg);
    max_arg = std::max(max_arg, s.arg);
  }
  EXPECT_EQ(min_arg, 7u);
  EXPECT_EQ(max_arg, kChildren - 1);
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
    // its duration (what a batch chunk of an untraced batch does on a
    // worker thread).
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
  const obs::TraceContext ctx = tracer.ForceTrace();
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    for (size_t i = 0; i < obs::Tracer::kRingCapacity; ++i) {
      obs::SpanScope s(obs::Stage::kParse);
    }
  }
  const uint64_t dropped = tracer.dropped();
  EXPECT_EQ(dropped, 1u);  // kRingCapacity + 1 spans, kRingCapacity slots
  EXPECT_EQ(tracer.Drain().size(), obs::Tracer::kRingCapacity);
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

  service::ServiceOptions opts;
  opts.num_threads = 2;
  auto plain = service::EstimationService::Create(sketch, opts);
  ASSERT_TRUE(plain.ok());
  auto traced = service::EstimationService::Create(sketch, opts);
  ASSERT_TRUE(traced.ok());

  const auto a = plain.value()->EstimateBatch(queries);
  const auto b = [&] {
    obs::SpanScope root(obs::Tracer::Default().ForceTrace(),
                        obs::Stage::kQuery);
    return traced.value()->EstimateBatch(queries);
  }();
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

TEST_F(TraceTest, ForcedRootTracesBatchAsOneTree) {
  // The caller owns the trace decision: a ForceTrace() root around
  // EstimateBatch on a 4-thread service yields one span tree
  // root -> kBatch -> kBatchChunk -> kQuery under the root's trace id,
  // with chunk spans recorded on the worker threads.
  xml::Document doc = data::MakeBibliography();
  const std::vector<query::TwigQuery> queries = BibQueries(doc);
  service::ServiceOptions opts;
  opts.num_threads = 4;
  auto svc = service::EstimationService::Create(
      core::TwigXSketch::Coarsest(doc), opts);
  ASSERT_TRUE(svc.ok());

  obs::Tracer& tracer = obs::Tracer::Default();
  const obs::TraceContext ctx = tracer.ForceTrace();
  uint64_t root_id = 0;
  {
    obs::SpanScope root(ctx, obs::Stage::kQuery);
    root_id = root.context().parent_span;
    for (const auto& r : svc.value()->EstimateBatch(queries)) {
      ASSERT_TRUE(r.ok());
    }
  }

  const std::vector<obs::Span> all = tracer.Snapshot();
  ASSERT_FALSE(all.empty());
  std::map<uint64_t, obs::Span> by_id;
  for (const obs::Span& s : all) {
    EXPECT_EQ(s.trace_id, ctx.trace_id) << StageName(s.stage);
    by_id[s.span_id] = s;
  }
  auto parent_stage = [&by_id](const obs::Span& s) {
    EXPECT_TRUE(by_id.count(s.parent_id)) << StageName(s.stage);
    return by_id[s.parent_id].stage;
  };
  size_t batches = 0, chunks = 0, query_spans = 0;
  for (const obs::Span& s : all) {
    switch (s.stage) {
      case obs::Stage::kBatch:
        ++batches;
        EXPECT_EQ(s.parent_id, root_id);
        EXPECT_EQ(s.arg, queries.size());
        break;
      case obs::Stage::kBatchChunk:
        ++chunks;
        EXPECT_EQ(parent_stage(s), obs::Stage::kBatch);
        break;
      case obs::Stage::kQuery:
        if (s.span_id == root_id) break;
        ++query_spans;
        EXPECT_EQ(parent_stage(s), obs::Stage::kBatchChunk);
        break;
      case obs::Stage::kPlanCache:
      case obs::Stage::kExecute:
        EXPECT_EQ(parent_stage(s), obs::Stage::kQuery);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(batches, 1u);
  EXPECT_GE(chunks, 1u);
  EXPECT_EQ(query_spans, queries.size());
}

TEST_F(TraceTest, ServiceRateZeroRecordsNothing) {
  // Outside any sampled root the service records zero spans, for batches
  // and single-query estimates alike: library code never starts a trace.
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  service::ServiceOptions opts;
  opts.num_threads = 2;
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());
  const std::vector<query::TwigQuery> queries = BibQueries(doc);
  for (const auto& r : svc.value()->EstimateBatch(queries)) {
    EXPECT_TRUE(r.ok());
  }
  for (const auto& q : queries) EXPECT_TRUE(svc.value()->Estimate(q).ok());
  EXPECT_EQ(obs::Tracer::Default().recorded(), 0u);
  EXPECT_TRUE(obs::Tracer::Default().Snapshot().empty());
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
  constexpr size_t kRecords = obs::FlightRecorder::kCapacity + 3;
  for (size_t i = 0; i < kRecords; ++i) {
    obs::FlightRecord r;
    r.twig_key = "k" + std::to_string(i);
    rec.Record(std::move(r));
  }
  const auto dump = rec.Dump();
  ASSERT_EQ(dump.size(), obs::FlightRecorder::kCapacity);
  EXPECT_EQ(dump.front().twig_key, "k" + std::to_string(kRecords - 1));
  EXPECT_EQ(dump.back().twig_key, "k3");  // k0..k2 were overwritten
  EXPECT_EQ(rec.counters().recorded, kRecords);
  EXPECT_EQ(rec.counters().dropped, 3u);
  // The registry counters /metrics exposes are the recorder's counts.
  EXPECT_EQ(RegistryCount("xsketch_flight_records_total"), kRecords);
  EXPECT_EQ(RegistryCount("xsketch_flight_dropped_total"), 3u);
}

TEST_F(FlightTest, SlowAndErrorRecordsPromoteSpanTrees) {
  obs::Tracer& tracer = obs::Tracer::Default();
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();

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
  slow.total_us = obs::FlightRecorder::kSlowUs;
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
  auto svc = service::EstimationService::Create(std::move(sketch), opts);
  ASSERT_TRUE(svc.ok());

  obs::Histogram& lat = obs::MetricsRegistry::Default().GetHistogram(
      "xsketch_service_query_latency_us", obs::LatencyBucketsUs());
  lat.TakeExemplar();  // fresh window
  {
    obs::SpanScope root(obs::Tracer::Default().ForceTrace(),
                        obs::Stage::kQuery);
    for (const auto& r : svc.value()->EstimateBatch(BibQueries(doc))) {
      ASSERT_TRUE(r.ok());
    }
  }
  const obs::Histogram::Exemplar ex = lat.TakeExemplar();
  ASSERT_NE(ex.trace_id, 0u);
  EXPECT_FALSE(obs::Tracer::Default().SpansForTrace(ex.trace_id).empty());
}

}  // namespace
}  // namespace xsketch
