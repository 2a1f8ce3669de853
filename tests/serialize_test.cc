#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/builder.h"
#include "core/estimator.h"
#include "core/serialize.h"
#include "data/figures.h"
#include "data/imdb.h"
#include "query/workload.h"
#include "query/xpath_parser.h"
#include "test_env.h"

namespace xsketch::core {
namespace {

TwigXSketch BuildRefined(const xml::Document& doc, size_t extra_bytes,
                         bool extensions = false) {
  BuildOptions opts;
  opts.seed = 5;
  opts.candidates_per_iteration = 6;
  opts.sample_queries = 10;
  opts.allow_backward_counts = extensions;
  opts.allow_value_correlation = extensions;
  opts.budget_bytes =
      TwigXSketch::Coarsest(doc, opts.coarsest).SizeBytes() + extra_bytes;
  return XBuild(doc, opts).Build();
}

TEST(SerializeTest, RoundTripPreservesEstimates) {
  xml::Document doc = data::GenerateImdb({.seed = 31, .scale = 0.03});
  TwigXSketch original = BuildRefined(doc, 4096);
  const std::string bytes = SaveSketch(original);

  auto restored = LoadSketch(bytes, doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().SizeBytes(), original.SizeBytes());
  EXPECT_EQ(restored.value().synopsis().node_count(),
            original.synopsis().node_count());

  // Every estimate must be bit-identical: the restored sketch re-derives
  // the same histograms from the same document.
  query::WorkloadOptions wopts;
  wopts.seed = 32;
  wopts.num_queries = 25;
  wopts.value_pred_fraction = 0.5;
  query::Workload w = query::GeneratePositiveWorkload(doc, wopts);
  Estimator before(original);
  Estimator after(restored.value());
  for (const auto& q : w.queries) {
    EXPECT_EQ(before.Estimate(q.twig), after.Estimate(q.twig));
  }
}

TEST(SerializeTest, RoundTripWithExtensions) {
  xml::Document doc = data::GenerateImdb({.seed = 33, .scale = 0.03});
  TwigXSketch original = BuildRefined(doc, 3072, /*extensions=*/true);
  auto restored = LoadSketch(SaveSketch(original), doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().HasBackwardDims(), original.HasBackwardDims());
  EXPECT_EQ(restored.value().SizeBytes(), original.SizeBytes());
}

TEST(SerializeTest, RejectsWrongDocument) {
  xml::Document doc = data::GenerateImdb({.seed = 31, .scale = 0.03});
  xml::Document other = data::GenerateImdb({.seed = 99, .scale = 0.03});
  xml::Document tiny = data::MakeBibliography();
  const std::string bytes = SaveSketch(TwigXSketch::Coarsest(doc));
  EXPECT_FALSE(LoadSketch(bytes, tiny).ok());   // different size
  EXPECT_FALSE(LoadSketch(bytes, other).ok());  // different elements
}

TEST(SerializeTest, RejectsCorruptInput) {
  xml::Document doc = data::MakeBibliography();
  const std::string bytes = SaveSketch(TwigXSketch::Coarsest(doc));

  EXPECT_FALSE(LoadSketch("", doc).ok());
  EXPECT_FALSE(LoadSketch("garbage", doc).ok());
  // Trailing junk is rejected.
  EXPECT_FALSE(LoadSketch(bytes + "x", doc).ok());
  // Flipped magic is rejected.
  std::string bad = bytes;
  bad[0] = 'Y';
  EXPECT_FALSE(LoadSketch(bad, doc).ok());
}

TEST(SerializeTest, RejectsTruncationAtEveryByte) {
  // Every strict prefix cuts some field short (the tail is length-counted,
  // so no prefix is a complete file): each must fail cleanly, never crash.
  xml::Document doc = data::GenerateImdb({.seed = 31, .scale = 0.03});
  const std::string bytes = SaveSketch(BuildRefined(doc, 2048));
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(LoadSketch(bytes.substr(0, len), doc).ok()) << len;
  }
}

TEST(SerializeTest, FormatIsExplicitLittleEndian) {
  // Byte-level pin of the XSK2 header so an accidental return to
  // host-endian words fails on any platform: magic, then the document
  // element count as a little-endian u32.
  xml::Document doc = data::MakeBibliography();
  const std::string bytes = SaveSketch(TwigXSketch::Coarsest(doc));
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "XSK2");
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data()) + 4;
  const uint32_t doc_size = static_cast<uint32_t>(p[0]) |
                            static_cast<uint32_t>(p[1]) << 8 |
                            static_cast<uint32_t>(p[2]) << 16 |
                            static_cast<uint32_t>(p[3]) << 24;
  EXPECT_EQ(doc_size, doc.size());
}

TEST(SerializeTest, RejectsLegacyXsk1WithClearError) {
  xml::Document doc = data::MakeBibliography();
  std::string bytes = SaveSketch(TwigXSketch::Coarsest(doc));
  bytes[3] = '1';  // pretend it was saved by the host-endian XSK1 writer
  auto r = LoadSketch(bytes, doc);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), util::StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("XSK1"), std::string::npos)
      << r.status().ToString();
}

TEST(SerializeTest, FileRoundTrip) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch original = TwigXSketch::Coarsest(doc);
  const std::string path = UniqueTempPath("sketch.xsk");
  ASSERT_TRUE(SaveSketchToFile(original, path).ok());
  auto restored = LoadSketchFromFile(path, doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().SizeBytes(), original.SizeBytes());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadSketchFromFile(path, doc).ok());
}

TEST(SerializeTest, RestoreValidatesScopes) {
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  std::vector<SynNodeId> partition(doc.size());
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    partition[e] = sketch.synopsis().NodeOf(e);
  }
  auto configs = sketch.ExportConfigs();
  // Point a scope at a nonexistent edge.
  configs[0].scope.push_back(CountRef{true, 0, 0});
  auto restored = TwigXSketch::Restore(doc, partition, configs);
  EXPECT_FALSE(restored.ok());
}

TEST(SerializeTest, RestoreRejectsOutOfRangeScopeNodeIds) {
  // Regression (found by fuzz_sketch_load): CountRef node ids beyond the
  // synopsis node count must be rejected, not used to index edge lists.
  xml::Document doc = data::MakeBibliography();
  TwigXSketch sketch = TwigXSketch::Coarsest(doc);
  std::vector<SynNodeId> partition(doc.size());
  for (xml::NodeId e = 0; e < doc.size(); ++e) {
    partition[e] = sketch.synopsis().NodeOf(e);
  }
  auto bad_scope = sketch.ExportConfigs();
  bad_scope[0].scope.push_back(CountRef{true, 0x7FFFFFFFu, 0});
  EXPECT_FALSE(TwigXSketch::Restore(doc, partition, bad_scope).ok());

  auto bad_value_scope = sketch.ExportConfigs();
  bad_value_scope[0].value_scope.push_back(CountRef{true, 0, 0x7FFFFFFFu});
  EXPECT_FALSE(TwigXSketch::Restore(doc, partition, bad_value_scope).ok());
}

TEST(SerializeTest, RestoreRejectsZeroNodeSynopsis) {
  // A synopsis with zero nodes cannot summarize a non-empty document:
  // Restore rejects it (and the byte format rejects node_count == 0).
  xml::Document doc = data::MakeBibliography();
  std::vector<SynNodeId> partition(doc.size(), 0);
  auto restored = TwigXSketch::Restore(doc, partition, {});
  EXPECT_FALSE(restored.ok());
}

TEST(SerializeTest, EmptyHistogramsRoundTrip) {
  // max_initial_dims = 0 yields a pure graph synopsis: every node
  // summary has an empty scope and no edge histogram. The format must
  // round-trip that shape bit-identically.
  xml::Document doc = data::GenerateImdb({.seed = 35, .scale = 0.02});
  CoarsestOptions copts;
  copts.max_initial_dims = 0;
  TwigXSketch original = TwigXSketch::Coarsest(doc, copts);
  const std::string bytes = SaveSketch(original);
  auto restored = LoadSketch(bytes, doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SaveSketch(restored.value()), bytes);

  query::WorkloadOptions wopts;
  wopts.seed = 36;
  wopts.num_queries = 15;
  query::Workload w = query::GeneratePositiveWorkload(doc, wopts);
  Estimator before(original);
  Estimator after(restored.value());
  for (const auto& q : w.queries) {
    EXPECT_EQ(before.Estimate(q.twig), after.Estimate(q.twig));
  }
}

TEST(SerializeTest, MaxBucketCountHistogramsRoundTrip) {
  // Bucket budgets far above the number of distinct count points keep
  // every point as its own bucket — the largest histograms the builder
  // can produce. Round trip must preserve them exactly.
  xml::Document doc = data::GenerateImdb({.seed = 37, .scale = 0.02});
  CoarsestOptions copts;
  copts.initial_buckets = 4096;
  copts.initial_value_buckets = 4096;
  copts.max_initial_dims = 2;
  TwigXSketch original = TwigXSketch::Coarsest(doc, copts);
  const std::string bytes = SaveSketch(original);
  auto restored = LoadSketch(bytes, doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SaveSketch(restored.value()), bytes);
  EXPECT_EQ(restored.value().SizeBytes(), original.SizeBytes());

  query::WorkloadOptions wopts;
  wopts.seed = 38;
  wopts.num_queries = 15;
  wopts.value_pred_fraction = 0.5;
  query::Workload w = query::GeneratePositiveWorkload(doc, wopts);
  Estimator before(original);
  Estimator after(restored.value());
  for (const auto& q : w.queries) {
    EXPECT_EQ(before.Estimate(q.twig), after.Estimate(q.twig));
  }
}

TEST(SerializeTest, SingleByteCorruptionsNeverCrashTheLoader) {
  // Deterministic mini-fuzz: flip each byte of a saved sketch in turn,
  // and truncate at every prefix length. Every mutation must either load
  // cleanly or fail with a Status — never crash (pins the bounds checks
  // fuzz_sketch_load exercises randomly).
  xml::Document doc = data::MakeBibliography();
  const std::string bytes = SaveSketch(TwigXSketch::Coarsest(doc));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    auto r = LoadSketch(mutated, doc);
    if (r.ok()) {
      EXPECT_TRUE(LoadSketch(SaveSketch(r.value()), doc).ok()) << i;
    }
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(LoadSketch(bytes.substr(0, len), doc).ok()) << len;
  }
}

}  // namespace
}  // namespace xsketch::core
