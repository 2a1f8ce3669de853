// Sketch persistence: XSK3 images of XBUILD-refined and edge-case
// sketches round-trip bit for bit (bytes and estimates), a sketch is
// checked against the document it summarizes, and corrupt or truncated
// images fail cleanly.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/builder.h"
#include "core/compile.h"
#include "core/estimator.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "core/xsk3_format.h"
#include "data/figures.h"
#include "data/imdb.h"
#include "query/workload.h"
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

std::string Image(const TwigXSketch& sketch) {
  auto image = SaveFrozen(FrozenSynopsis(sketch));
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? image.value() : std::string();
}

// Every query estimates bit-identically from the loaded image and from
// the reference interpreter over the original sketch.
void ExpectSameEstimates(const TwigXSketch& original,
                         std::shared_ptr<const FrozenSynopsis> loaded,
                         const xml::Document& doc, uint64_t seed,
                         double value_pred_fraction) {
  query::WorkloadOptions wopts;
  wopts.seed = seed;
  wopts.num_queries = 25;
  wopts.value_pred_fraction = value_pred_fraction;
  const query::Workload w = query::GeneratePositiveWorkload(doc, wopts);
  const Estimator reference(original);
  const TwigCompiler compiler(std::move(loaded));
  for (const auto& q : w.queries) {
    auto plan = compiler.Compile(q.twig);
    ASSERT_TRUE(plan.ok());
    const double want = reference.Estimate(q.twig);
    const double got = plan.value()->Execute();
    EXPECT_EQ(std::memcmp(&want, &got, sizeof(double)), 0)
        << want << " vs " << got;
  }
}

TEST(SerializeTest, RoundTripPreservesEstimates) {
  xml::Document doc = data::GenerateImdb({.seed = 31, .scale = 0.03});
  TwigXSketch original = BuildRefined(doc, 4096);
  const FrozenSynopsis frozen(original);

  auto loaded = LoadFrozenFromBytes(Image(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->SizeBytes(), frozen.SizeBytes());
  EXPECT_EQ(loaded.value()->node_count(),
            original.synopsis().node_count());
  ExpectSameEstimates(original, loaded.value(), doc, 32, 0.5);
}

TEST(SerializeTest, RoundTripWithExtensions) {
  xml::Document doc = data::GenerateImdb({.seed = 33, .scale = 0.03});
  TwigXSketch original = BuildRefined(doc, 3072, /*extensions=*/true);
  const FrozenSynopsis frozen(original);
  auto loaded = LoadFrozenFromBytes(Image(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->has_backward_dims(), original.HasBackwardDims());
  EXPECT_EQ(loaded.value()->SizeBytes(), frozen.SizeBytes());
}

TEST(SerializeTest, RejectsWrongDocument) {
  xml::Document doc = data::GenerateImdb({.seed = 31, .scale = 0.03});
  xml::Document other = data::GenerateImdb({.seed = 99, .scale = 0.03});
  xml::Document tiny = data::MakeBibliography();
  ASSERT_NE(other.size(), doc.size());
  auto loaded = LoadFrozenFromBytes(Image(TwigXSketch::Coarsest(doc)));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value()->MatchesDocument(doc).ok());
  EXPECT_FALSE(loaded.value()->MatchesDocument(tiny).ok());   // size, tags
  EXPECT_FALSE(loaded.value()->MatchesDocument(other).ok());  // size
}

TEST(SerializeTest, RejectsCorruptInput) {
  xml::Document doc = data::MakeBibliography();
  const std::string bytes = Image(TwigXSketch::Coarsest(doc));

  EXPECT_FALSE(LoadFrozenFromBytes("").ok());
  EXPECT_FALSE(LoadFrozenFromBytes("garbage").ok());
  // Trailing junk is rejected.
  EXPECT_FALSE(LoadFrozenFromBytes(bytes + "x").ok());
  // Flipped magic is rejected.
  std::string bad = bytes;
  bad[0] = 'Y';
  EXPECT_FALSE(LoadFrozenFromBytes(bad).ok());
}

TEST(SerializeTest, RejectsTruncationAtEveryByte) {
  // Every strict prefix disagrees with the recorded file size (and cuts
  // the last section short): each must fail cleanly, never crash.
  xml::Document doc = data::GenerateImdb({.seed = 31, .scale = 0.03});
  const std::string bytes = Image(BuildRefined(doc, 2048));
  ASSERT_TRUE(LoadFrozenFromBytes(bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        LoadFrozenFromBytes(std::string_view(bytes).substr(0, len)).ok())
        << len;
  }
}

TEST(SerializeTest, FormatIsExplicitLittleEndian) {
  // Byte-level pin of the XSK3 header so an accidental change of field
  // layout or byte order fails on any platform: magic, then the version
  // as a little-endian u32, and the document element count as a
  // little-endian u64 at its fixed offset.
  xml::Document doc = data::MakeBibliography();
  const std::string bytes = Image(TwigXSketch::Coarsest(doc));
  ASSERT_GE(bytes.size(), sizeof(Xsk3Header));
  EXPECT_EQ(bytes.substr(0, 4), "XSK3");
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  auto le = [p](size_t offset, size_t width) {
    uint64_t v = 0;
    for (size_t i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(p[offset + i]) << (8 * i);
    }
    return v;
  };
  EXPECT_EQ(le(offsetof(Xsk3Header, version), 4), kXsk3Version);
  EXPECT_EQ(le(offsetof(Xsk3Header, doc_size), 8), doc.size());
  EXPECT_EQ(le(offsetof(Xsk3Header, file_size), 8), bytes.size());
}

TEST(SerializeTest, FileRoundTrip) {
  xml::Document doc = data::MakeBibliography();
  const FrozenSynopsis original(TwigXSketch::Coarsest(doc));
  const std::string path = UniqueTempPath("sketch.xsk3");
  ASSERT_TRUE(SaveFrozenToFile(original, path).ok());
  auto restored = LoadFrozenFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value()->SizeBytes(), original.SizeBytes());
  EXPECT_EQ(SaveFrozen(*restored.value()).value(),
            SaveFrozen(original).value());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadFrozenFile(path).ok());
}

TEST(SerializeTest, EmptyHistogramsRoundTrip) {
  // max_initial_dims = 0 yields a pure graph synopsis: every node
  // summary has an empty scope and no edge histogram. The format must
  // round-trip that shape bit-identically.
  xml::Document doc = data::GenerateImdb({.seed = 35, .scale = 0.02});
  CoarsestOptions copts;
  copts.max_initial_dims = 0;
  TwigXSketch original = TwigXSketch::Coarsest(doc, copts);
  const std::string bytes = Image(original);
  auto restored = LoadFrozenFromBytes(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SaveFrozen(*restored.value()).value(), bytes);
  ExpectSameEstimates(original, restored.value(), doc, 36, 0.0);
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
  const std::string bytes = Image(original);
  auto restored = LoadFrozenFromBytes(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(SaveFrozen(*restored.value()).value(), bytes);
  EXPECT_EQ(restored.value()->SizeBytes(),
            FrozenSynopsis(original).SizeBytes());
  ExpectSameEstimates(original, restored.value(), doc, 38, 0.5);
}

TEST(SerializeTest, SingleByteCorruptionsNeverCrashTheLoader) {
  // Deterministic mini-fuzz: flip each byte of a saved image in turn, and
  // truncate at every prefix length. Every mutation must either load
  // cleanly or fail with a Status — never crash. A flip the checksums do
  // not catch can only sit in alignment padding, so an accepted image
  // re-saves to the original bytes.
  xml::Document doc = data::MakeBibliography();
  const std::string bytes = Image(TwigXSketch::Coarsest(doc));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    auto r = LoadFrozenFromBytes(mutated);
    if (r.ok()) {
      EXPECT_EQ(SaveFrozen(*r.value()).value(), bytes) << i;
    }
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        LoadFrozenFromBytes(std::string_view(bytes).substr(0, len)).ok())
        << len;
  }
}

}  // namespace
}  // namespace xsketch::core
