// XSK3 storage and catalog tests: byte-layout pins, save/load round-trip
// bit-identity (mmap path included), exhaustive truncation and bit-flip
// sweeps over the on-disk image, header-patch rejection, the mmap-backed
// SketchCatalog (LRU budget, hot swap, generation pinning, stats), the
// frozen-only Session, plan-cache key injectivity, and the XSK2 file I/O
// hardening.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/frozen_io.h"
#include "core/serialize.h"
#include "core/xsk3_format.h"
#include "data/figures.h"
#include "data/xmark.h"
#include "query/workload.h"
#include "service/sketch_catalog.h"
#include "util/mmap_file.h"
#include "xsketch_api.h"
#include "test_env.h"

namespace xsketch {
namespace {

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::vector<query::TwigQuery> SomeQueries(const xml::Document& doc, int n) {
  query::WorkloadOptions wopts;
  wopts.seed = 7;
  wopts.num_queries = n;
  wopts.value_pred_fraction = 0.3;
  const query::Workload wl = query::GeneratePositiveWorkload(doc, wopts);
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : wl.queries) queries.push_back(wq.twig);
  return queries;
}

// Re-stamps the header checksum after a test patches header fields, so
// the loader's semantic validation (not the CRC) is what rejects the
// patched image.
void FixHeaderCrc(std::string* image) {
  const size_t meta_bytes = sizeof(core::Xsk3Header) +
                            core::kXsk3SectionCount * sizeof(core::Xsk3Section);
  ASSERT_GE(image->size(), meta_bytes);
  const size_t crc_off = offsetof(core::Xsk3Header, header_crc);
  std::memset(image->data() + crc_off, 0, sizeof(uint32_t));
  const uint32_t crc = core::Crc32(image->data(), meta_bytes);
  std::memcpy(image->data() + crc_off, &crc, sizeof(crc));
}

// --- layout pins ---------------------------------------------------------

TEST(Xsk3FormatTest, LayoutPins) {
  static_assert(sizeof(core::Xsk3Header) == 64);
  static_assert(sizeof(core::Xsk3Section) == 32);
  static_assert(core::kXsk3SectionCount == 34);
  static_assert(core::Xsk3Align(0) == 0);
  static_assert(core::Xsk3Align(1) == 64);
  static_assert(core::Xsk3Align(64) == 64);
  static_assert(core::Xsk3Align(65) == 128);

  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const core::FrozenSynopsis frozen(sketch);
  auto image = core::SaveFrozen(frozen);
  ASSERT_TRUE(image.ok());
  const std::string& bytes = image.value();
  ASSERT_GE(bytes.size(), sizeof(core::Xsk3Header));
  EXPECT_EQ(bytes.compare(0, 4, "XSK3"), 0);
  core::Xsk3Header hdr;
  std::memcpy(&hdr, bytes.data(), sizeof(hdr));
  EXPECT_EQ(hdr.version, core::kXsk3Version);
  EXPECT_EQ(hdr.file_size, bytes.size());
  EXPECT_EQ(hdr.section_count, core::kXsk3SectionCount);
  EXPECT_EQ(hdr.node_count, frozen.node_count());

  // Every section starts on a 64-byte boundary.
  for (uint32_t i = 0; i < core::kXsk3SectionCount; ++i) {
    core::Xsk3Section sec;
    std::memcpy(&sec, bytes.data() + sizeof(hdr) + i * sizeof(sec),
                sizeof(sec));
    EXPECT_EQ(sec.id, i + 1);
    EXPECT_EQ(sec.offset % core::kXsk3Alignment, 0u);
  }

  // Serialization is deterministic: same synopsis, same bytes.
  auto again = core::SaveFrozen(frozen);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(bytes, again.value());
}

// --- round-trip bit-identity --------------------------------------------

void ExpectBitIdenticalPrograms(const core::TwigXSketch& sketch,
                                const xml::Document& doc) {
  const auto frozen = std::make_shared<const core::FrozenSynopsis>(sketch);
  auto image = core::SaveFrozen(*frozen);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  // Through the mmap path: write to disk, map, load.
  const std::string path = UniqueTempPath("roundtrip.xsk3");
  ASSERT_TRUE(core::SaveFrozenToFile(*frozen, path).ok());
  core::FrozenLoadOptions opts;
  opts.verify_checksums = true;
  auto loaded = core::LoadFrozenFile(path, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->node_count(), frozen->node_count());
  EXPECT_EQ(loaded.value()->doc_size(), frozen->doc_size());

  const core::TwigCompiler heap_compiler(frozen);
  const core::TwigCompiler mmap_compiler(loaded.value());
  const auto queries = SomeQueries(doc, 40);
  ASSERT_FALSE(queries.empty());
  for (const auto& q : queries) {
    auto hp = heap_compiler.Compile(q);
    auto mp = mmap_compiler.Compile(q);
    ASSERT_TRUE(hp.ok() && mp.ok());
    const core::EstimateStats hs = hp.value()->ExecuteWithStats();
    const core::EstimateStats ms = mp.value()->ExecuteWithStats();
    EXPECT_TRUE(BitEqual(hs.estimate, ms.estimate));
    EXPECT_EQ(hs.covered_terms, ms.covered_terms);
    EXPECT_EQ(hs.uniformity_terms, ms.uniformity_terms);
    EXPECT_EQ(hs.conditioned_nodes, ms.conditioned_nodes);
    EXPECT_EQ(hs.value_fractions, ms.value_fractions);
  }
}

TEST(Xsk3RoundTripTest, CoarsestXMark) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  ExpectBitIdenticalPrograms(core::TwigXSketch::Coarsest(doc), doc);
}

TEST(Xsk3RoundTripTest, RefinedWithBackwardAndValueCorrelation) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  core::BuildOptions bopts;
  bopts.budget_bytes = 16 * 1024;
  bopts.allow_backward_counts = true;
  bopts.allow_value_correlation = true;
  ExpectBitIdenticalPrograms(core::XBuild(doc, bopts).Build(), doc);
}

TEST(Xsk3RoundTripTest, EmptyHistogramSketch) {
  // max_initial_dims = 0: a pure graph synopsis, every histogram empty —
  // the hist-empty code paths must survive the format round trip.
  xml::Document doc = data::MakeBibliography();
  core::CoarsestOptions copts;
  copts.max_initial_dims = 0;
  ExpectBitIdenticalPrograms(core::TwigXSketch::Coarsest(doc, copts), doc);
}

TEST(Xsk3RoundTripTest, MaxBucketSketch) {
  // An oversized bucket budget: histograms as wide as the data allows.
  xml::Document doc = data::GenerateXMark({.seed = 3, .scale = 0.02});
  core::CoarsestOptions copts;
  copts.initial_buckets = 4096;
  copts.initial_value_buckets = 4096;
  ExpectBitIdenticalPrograms(core::TwigXSketch::Coarsest(doc, copts), doc);
}

// --- frozen-only Session -------------------------------------------------

TEST(Xsk3SessionTest, OpenMappedMatchesHeapSession) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const core::FrozenSynopsis frozen(sketch);
  const std::string path = UniqueTempPath("session.xsk3");
  ASSERT_TRUE(core::SaveFrozenToFile(frozen, path).ok());

  auto heap = api::Session::Open(core::TwigXSketch(sketch));
  auto mapped = api::Session::OpenMapped(path);
  ASSERT_TRUE(heap.ok());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(heap.value().has_sketch());
  EXPECT_FALSE(mapped.value().has_sketch());

  const auto queries = SomeQueries(doc, 24);
  for (const auto& q : queries) {
    auto he = heap.value().Execute(q);
    auto me = mapped.value().Execute(q);
    ASSERT_TRUE(he.ok() && me.ok());
    EXPECT_TRUE(BitEqual(he.value().estimate, me.value().estimate));
  }
  // Batch path too (exercises EstimateBatch without an interpreter).
  service::BatchStats stats;
  const auto hb = heap.value().ExecuteBatch(queries);
  const auto mb = mapped.value().ExecuteBatch(queries, &stats);
  ASSERT_EQ(hb.size(), mb.size());
  for (size_t i = 0; i < hb.size(); ++i) {
    ASSERT_TRUE(hb[i].ok() && mb[i].ok());
    EXPECT_TRUE(BitEqual(hb[i].value().estimate, mb[i].value().estimate));
  }
  EXPECT_EQ(stats.queries, queries.size());

  // Path-string Prepare works from the frozen tag table.
  auto pq = mapped.value().Prepare("//item");
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();

  // Explain needs a sketch to interpret.
  obs::ExplainTrace trace;
  auto ex = mapped.value().Explain(queries.front(), &trace);
  EXPECT_FALSE(ex.ok());

  // A PreparedQuery pins the mapping: drop the session, keep executing.
  auto pinned = mapped.value().Prepare(queries.front());
  ASSERT_TRUE(pinned.ok());
  mapped = util::Status::InvalidArgument("released");
  const double after = pinned.value().Execute();
  EXPECT_TRUE(std::isfinite(after));
}

TEST(Xsk3SessionTest, FrozenServiceRejectsAudit) {
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const auto frozen = std::make_shared<const core::FrozenSynopsis>(sketch);

  service::ServiceOptions audit;
  audit.audit_fraction = 0.5;
  EXPECT_FALSE(service::EstimationService::Create(frozen, audit).ok());

  EXPECT_TRUE(service::EstimationService::Create(frozen, {}).ok());
}

// Republishing a sketch file that a process has mapped: the file is
// replaced by rename, never truncated in place (which would SIGBUS the
// reader), so the old mapping keeps serving bit for bit while the next
// load sees the new image.
TEST(Xsk3SessionTest, RepublishWhileMappedKeepsOldMapping) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  const std::string path = UniqueTempPath("republish.xsk3");
  ASSERT_TRUE(core::SaveFrozenToFile(
                  core::FrozenSynopsis(core::TwigXSketch::Coarsest(doc)),
                  path)
                  .ok());
  auto mapped = core::LoadFrozenFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const core::TwigCompiler compiler(mapped.value());
  std::vector<std::shared_ptr<const core::CompiledTwig>> plans;
  std::vector<double> before;
  for (const auto& q : SomeQueries(doc, 16)) {
    auto plan = compiler.Compile(q);
    ASSERT_TRUE(plan.ok());
    before.push_back(plan.value()->Execute());
    plans.push_back(std::move(plan).value());
  }

  xml::Document bib = data::MakeBibliography();
  const core::FrozenSynopsis smaller(core::TwigXSketch::Coarsest(bib));
  ASSERT_LT(smaller.SizeBytes(), mapped.value()->SizeBytes());
  ASSERT_TRUE(core::SaveFrozenToFile(smaller, path).ok());

  for (size_t i = 0; i < plans.size(); ++i) {
    EXPECT_TRUE(BitEqual(plans[i]->Execute(), before[i])) << i;
  }
  auto reloaded = core::LoadFrozenFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto reloaded_image = core::SaveFrozen(*reloaded.value());
  auto smaller_image = core::SaveFrozen(smaller);
  ASSERT_TRUE(reloaded_image.ok() && smaller_image.ok());
  EXPECT_EQ(reloaded_image.value(), smaller_image.value());
}

// --- hostile-input sweeps ------------------------------------------------

std::string SmallImage() {
  xml::Document doc = data::MakeBibliography();
  core::CoarsestOptions copts;
  copts.initial_buckets = 2;
  copts.initial_value_buckets = 2;
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc, copts);
  const core::FrozenSynopsis frozen(sketch);
  auto image = core::SaveFrozen(frozen);
  EXPECT_TRUE(image.ok());
  return image.value();
}

TEST(Xsk3HardeningTest, TruncationAnywhereIsAnError) {
  const std::string image = SmallImage();
  ASSERT_FALSE(image.empty());
  // Every prefix — including prefixes that end exactly on a section
  // boundary, and the empty file — must be rejected, never crash, never
  // "succeed with fewer sections".
  for (size_t len = 0; len < image.size(); ++len) {
    auto r = core::LoadFrozenFromBytes(std::string_view(image).substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " bytes accepted";
  }
  // Trailing garbage is equally fatal.
  auto extended = core::LoadFrozenFromBytes(image + std::string(1, '\0'));
  EXPECT_FALSE(extended.ok());
  // The untruncated image loads.
  EXPECT_TRUE(core::LoadFrozenFromBytes(image).ok());
}

TEST(Xsk3HardeningTest, BitFlipSweep) {
  const std::string image = SmallImage();
  // Reference estimate for the semantic-equivalence arm below.
  auto ref = core::LoadFrozenFromBytes(image);
  ASSERT_TRUE(ref.ok());
  const core::TwigCompiler ref_compiler(ref.value());
  query::TwigQuery probe;
  probe.AddNode(-1, query::Axis::kDescendant, 0);
  auto ref_plan = ref_compiler.Compile(probe);
  ASSERT_TRUE(ref_plan.ok());
  const double ref_estimate = ref_plan.value()->Execute();

  core::FrozenLoadOptions checked;
  checked.verify_checksums = true;
  std::string mutated = image;
  size_t accepted = 0;
  for (size_t byte = 0; byte < image.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      mutated[byte] = static_cast<char>(image[byte] ^ (1 << bit));
      // With checksums on, a flip may only survive in inter-section
      // alignment padding (not covered by any CRC) — and padding never
      // feeds the arithmetic, so a surviving load must be semantically
      // identical. Everything else must be rejected. Either way: no
      // crash, no OOB (ASan/UBSan builds make that assertion real).
      auto r = core::LoadFrozenFromBytes(mutated, checked);
      if (r.ok()) {
        ++accepted;
        const core::TwigCompiler c(r.value());
        auto plan = c.Compile(probe);
        ASSERT_TRUE(plan.ok());
        EXPECT_TRUE(BitEqual(plan.value()->Execute(), ref_estimate))
            << "padding flip at byte " << byte << " changed an estimate";
      }
      // Without checksum verification the loader still must not crash;
      // structural validation decides acceptance.
      (void)core::LoadFrozenFromBytes(mutated);
    }
    mutated[byte] = image[byte];
  }
  // Exactly the inter-section alignment padding escapes CRC coverage;
  // every header, table, and payload byte is covered, so the accepted
  // count must equal the padding bit count exactly.
  size_t covered = sizeof(core::Xsk3Header) +
                   core::kXsk3SectionCount * sizeof(core::Xsk3Section);
  for (uint32_t i = 0; i < core::kXsk3SectionCount; ++i) {
    core::Xsk3Section sec;
    std::memcpy(&sec,
                image.data() + sizeof(core::Xsk3Header) + i * sizeof(sec),
                sizeof(sec));
    covered += sec.bytes;
  }
  ASSERT_LE(covered, image.size());
  EXPECT_EQ(accepted, (image.size() - covered) * 8);
}

TEST(Xsk3HardeningTest, PatchedHeaderFieldsRejected) {
  const std::string image = SmallImage();

  {  // node_count = 0: a sketch always has a root.
    std::string patched = image;
    const uint32_t zero = 0;
    std::memcpy(patched.data() + offsetof(core::Xsk3Header, node_count),
                &zero, sizeof(zero));
    FixHeaderCrc(&patched);
    auto r = core::LoadFrozenFromBytes(patched);
    EXPECT_FALSE(r.ok());
  }
  {  // node_count inflated: every fixed-count section goes inconsistent.
    std::string patched = image;
    core::Xsk3Header hdr;
    std::memcpy(&hdr, patched.data(), sizeof(hdr));
    const uint32_t inflated = hdr.node_count + 1;
    std::memcpy(patched.data() + offsetof(core::Xsk3Header, node_count),
                &inflated, sizeof(inflated));
    FixHeaderCrc(&patched);
    EXPECT_FALSE(core::LoadFrozenFromBytes(patched).ok());
  }
  {  // root out of range.
    std::string patched = image;
    const uint32_t huge = 0xFFFFFFFE;
    std::memcpy(patched.data() + offsetof(core::Xsk3Header, root_node),
                &huge, sizeof(huge));
    FixHeaderCrc(&patched);
    EXPECT_FALSE(core::LoadFrozenFromBytes(patched).ok());
  }
  {  // absurd depth (the '//'-expansion recursion bound).
    std::string patched = image;
    const uint32_t deep = 1u << 20;
    std::memcpy(patched.data() + offsetof(core::Xsk3Header, doc_max_depth),
                &deep, sizeof(deep));
    FixHeaderCrc(&patched);
    EXPECT_FALSE(core::LoadFrozenFromBytes(patched).ok());
  }
  {  // wrong magic / version.
    std::string patched = image;
    patched[0] = 'Y';
    EXPECT_FALSE(core::LoadFrozenFromBytes(patched).ok());
  }
}

// --- MappedFile ----------------------------------------------------------

TEST(MappedFileTest, ErrorsAndEmptyFiles) {
  EXPECT_FALSE(
      util::MappedFile::Open(UniqueTempPath("does_not_exist")).ok());
  // A directory is not mappable sketch storage.
  EXPECT_FALSE(util::MappedFile::Open(::testing::TempDir()).ok());
  // Zero-length file: mappable (no pages), but not a valid XSK3 image.
  const std::string path = UniqueTempPath("empty.bin");
  WriteFile(path, "");
  auto mapped = util::MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value()->size(), 0u);
  EXPECT_FALSE(core::LoadFrozen(mapped.value()).ok());
}

// --- SketchCatalog -------------------------------------------------------

std::string SaveSketchAs(const core::TwigXSketch& sketch,
                         const std::string& name) {
  const core::FrozenSynopsis frozen(sketch);
  const std::string path = UniqueTempPath(name);
  EXPECT_TRUE(core::SaveFrozenToFile(frozen, path).ok());
  return path;
}

TEST(SketchCatalogTest, PutGetRemoveAndStats) {
  xml::Document doc = data::MakeBibliography();
  const std::string path =
      SaveSketchAs(core::TwigXSketch::Coarsest(doc), "cat_a.xsk3");

  auto catalog = service::SketchCatalog::Create();
  ASSERT_TRUE(catalog.ok());
  auto put = catalog.value()->Put("bib", path);
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  EXPECT_EQ(put.value().generation(), 1u);
  EXPECT_GT(put.value().size_bytes(), 0u);

  auto get = catalog.value()->Get("bib");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().generation(), 1u);
  EXPECT_FALSE(catalog.value()->Get("nope").ok());

  auto plan = get.value().Prepare(std::string("//book"));
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(plan.value()->Execute(), 0.0);

  auto s = catalog.value()->stats();
  EXPECT_EQ(s.sketches, 1u);
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.resident_bytes, put.value().size_bytes());

  EXPECT_TRUE(catalog.value()->Remove("bib"));
  EXPECT_FALSE(catalog.value()->Remove("bib"));
  EXPECT_EQ(catalog.value()->stats().sketches, 0u);
  EXPECT_EQ(catalog.value()->stats().resident_bytes, 0u);

  // Load failure leaves the catalog unchanged and is counted.
  EXPECT_FALSE(
      catalog.value()->Put("bad", UniqueTempPath("missing.xsk3")).ok());
  EXPECT_EQ(catalog.value()->stats().load_failures, 1u);
}

TEST(SketchCatalogTest, HotSwapPinsOldGeneration) {
  xml::Document doc = data::MakeBibliography();
  core::CoarsestOptions small;
  small.initial_buckets = 2;
  const std::string v1 =
      SaveSketchAs(core::TwigXSketch::Coarsest(doc, small), "swap_v1.xsk3");
  const std::string v2 =
      SaveSketchAs(core::TwigXSketch::Coarsest(doc), "swap_v2.xsk3");

  auto catalog = service::SketchCatalog::Create();
  ASSERT_TRUE(catalog.ok());
  auto h1 = catalog.value()->Put("doc", v1);
  ASSERT_TRUE(h1.ok());
  auto plan1 = h1.value().Prepare(std::string("//book"));
  ASSERT_TRUE(plan1.ok());
  const double before = plan1.value()->Execute();

  // Replace the file contents on disk, then hot-swap.
  auto h2 = catalog.value()->Put("doc", v2);
  ASSERT_TRUE(h2.ok());
  EXPECT_GT(h2.value().generation(), h1.value().generation());
  EXPECT_EQ(catalog.value()->stats().swaps, 1u);
  EXPECT_EQ(catalog.value()->stats().sketches, 1u);

  // The new generation owns a fresh service: its plan cache starts
  // empty, and the old generation's plan stays with the old handle.
  const auto fresh = h2.value().service().plan_cache_counters();
  EXPECT_EQ(fresh.size, 0u);
  EXPECT_EQ(fresh.lookups, 0u);
  EXPECT_EQ(h1.value().service().plan_cache_counters().size, 1u);
  EXPECT_EQ(h2.value().service().num_threads(), 1);

  // The old handle (and its compiled program) still serve the old
  // snapshot, bit for bit; re-preparing through it hits its own cache.
  EXPECT_TRUE(BitEqual(plan1.value()->Execute(), before));
  auto plan1b = h1.value().Prepare(std::string("//book"));
  ASSERT_TRUE(plan1b.ok());
  EXPECT_EQ(plan1b.value(), plan1.value());
  EXPECT_TRUE(BitEqual(plan1b.value()->Execute(), before));
  EXPECT_EQ(h1.value().service().plan_cache_counters().hits, 1u);

  // New lookups see the new generation.
  auto current = catalog.value()->Get("doc");
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current.value().generation(), h2.value().generation());
}

// Each catalog and each generation's service counts only its own
// events; the registry series sum them over every owner, destroyed ones
// included, so hot swaps never make a series go down.
TEST(SketchCatalogTest, RegistrySeriesSumOwnersAndNeverDecrease) {
  xml::Document doc = data::MakeBibliography();
  const std::string path =
      SaveSketchAs(core::TwigXSketch::Coarsest(doc), "series.xsk3");
  constexpr std::string_view kHits = "xsketch_catalog_hits_total";
  constexpr std::string_view kLookups =
      "xsketch_service_plan_cache_lookups_total";

  auto a = service::SketchCatalog::Create();
  auto b = service::SketchCatalog::Create();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.value()->Put("bib", path).ok());
  ASSERT_TRUE(b.value()->Put("bib", path).ok());
  const uint64_t hits_before = CounterSeries(kHits);
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(a.value()->Get("bib").ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(b.value()->Get("bib").ok());
  EXPECT_EQ(a.value()->stats().hits, 2u);
  EXPECT_EQ(b.value()->stats().hits, 3u);
  EXPECT_EQ(CounterSeries(kHits), hits_before + 5);

  {
    auto old_gen = a.value()->Get("bib");
    ASSERT_TRUE(old_gen.ok());
    ASSERT_TRUE(old_gen.value().Prepare(std::string("//book")).ok());
    ASSERT_TRUE(old_gen.value().Prepare(std::string("//book")).ok());
    EXPECT_EQ(old_gen.value().service().plan_cache_counters().lookups, 2u);
  }
  const uint64_t lookups = CounterSeries(kLookups);
  // The re-Put drops the catalog's handle to the old generation, the
  // last one, so its service is destroyed here.
  auto new_gen = a.value()->Put("bib", path);
  ASSERT_TRUE(new_gen.ok());
  EXPECT_EQ(new_gen.value().service().plan_cache_counters().lookups, 0u);
  EXPECT_EQ(CounterSeries(kLookups), lookups);

  const uint64_t hits = CounterSeries(kHits);
  a.value().reset();
  EXPECT_EQ(CounterSeries(kHits), hits);
}

TEST(SketchCatalogTest, ByteBudgetEvictsLru) {
  xml::Document bib = data::MakeBibliography();
  xml::Document xmark = data::GenerateXMark({.seed = 1, .scale = 0.02});
  const std::string a =
      SaveSketchAs(core::TwigXSketch::Coarsest(bib), "lru_a.xsk3");
  const std::string b =
      SaveSketchAs(core::TwigXSketch::Coarsest(xmark), "lru_b.xsk3");

  // Budget fits either sketch alone but not both.
  auto probe = core::LoadFrozenFile(a);
  ASSERT_TRUE(probe.ok());
  auto probe_b = core::LoadFrozenFile(b);
  ASSERT_TRUE(probe_b.ok());
  service::CatalogOptions copts;
  copts.byte_budget =
      std::max(probe.value()->SizeBytes(), probe_b.value()->SizeBytes()) + 64;

  auto catalog = service::SketchCatalog::Create(copts);
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE(catalog.value()->Put("a", a).ok());
  auto hb = catalog.value()->Put("b", b);
  ASSERT_TRUE(hb.ok());

  // "a" (least recently used) was evicted to make room.
  auto s = catalog.value()->stats();
  EXPECT_EQ(s.sketches, 1u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_LE(s.resident_bytes, copts.byte_budget);
  EXPECT_FALSE(catalog.value()->Get("a").ok());
  EXPECT_TRUE(catalog.value()->Get("b").ok());

  // An over-budget single sketch still installs (never self-evicts).
  service::CatalogOptions tiny;
  tiny.byte_budget = 1;
  auto tiny_catalog = service::SketchCatalog::Create(tiny);
  ASSERT_TRUE(tiny_catalog.ok());
  EXPECT_TRUE(tiny_catalog.value()->Put("a", a).ok());
  EXPECT_EQ(tiny_catalog.value()->stats().sketches, 1u);
}

// --- plan-cache key injectivity (regression, satellite) ------------------

TEST(PlanCacheKeyTest, DistinctTwigsNeverShareAnEntry) {
  xml::Document doc = data::GenerateXMark({.seed = 42, .scale = 0.05});
  auto session = api::Session::Open(core::TwigXSketch::Coarsest(doc));
  ASSERT_TRUE(session.ok());

  // Adversarial pairs: shapes whose un-delimited concatenations could
  // alias if the encoding were not self-delimiting (a one-node twig with
  // a value predicate vs. two plain nodes; same tags, different
  // structure). With the length-prefixed encoding each must get its own
  // plan-cache entry.
  std::vector<query::TwigQuery> twigs;
  {
    query::TwigQuery t;
    t.AddNode(-1, query::Axis::kChild, 0, false,
              query::ValuePredicate{.lo = 0x0101010101010101, .hi = 42});
    twigs.push_back(t);
  }
  {
    query::TwigQuery t;
    const int root = t.AddNode(-1, query::Axis::kChild, 0);
    t.AddNode(root, query::Axis::kChild, 1);
    twigs.push_back(t);
  }
  {
    query::TwigQuery t;  // same two tags, descendant axis
    const int root = t.AddNode(-1, query::Axis::kChild, 0);
    t.AddNode(root, query::Axis::kDescendant, 1);
    twigs.push_back(t);
  }
  {
    query::TwigQuery t;  // same shape, existential child
    const int root = t.AddNode(-1, query::Axis::kChild, 0);
    t.AddNode(root, query::Axis::kChild, 1, /*existential=*/true);
    twigs.push_back(t);
  }

  for (const auto& t : twigs) {
    auto p = session.value().Prepare(t);
    ASSERT_TRUE(p.ok()) << p.status().ToString();
  }
  const auto counters = session.value().service().plan_cache_counters();
  EXPECT_EQ(counters.size, twigs.size());  // one entry per distinct twig
  EXPECT_EQ(counters.hits, 0u);

  // Re-preparing hits the right entries, one each.
  for (const auto& t : twigs) {
    ASSERT_TRUE(session.value().Prepare(t).ok());
  }
  EXPECT_EQ(session.value().service().plan_cache_counters().hits,
            twigs.size());
}

// --- XSK2 file I/O hardening (satellite) ---------------------------------

TEST(Xsk2FileTest, TruncatedFileOnDiskIsAnError) {
  xml::Document doc = data::MakeBibliography();
  core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const std::string bytes = core::SaveSketch(sketch);
  const std::string path = UniqueTempPath("trunc.xsk2");

  // Full file round-trips.
  WriteFile(path, bytes);
  EXPECT_TRUE(core::LoadSketchFromFile(path, doc).ok());

  // Any truncation on disk — including cutting exactly at the tail — is
  // a load error.
  for (const size_t keep :
       {bytes.size() - 1, bytes.size() / 2, bytes.size() / 4, size_t{8}}) {
    WriteFile(path, bytes.substr(0, keep));
    EXPECT_FALSE(core::LoadSketchFromFile(path, doc).ok())
        << "accepted a file truncated to " << keep << " bytes";
  }
}

TEST(Xsk2FileTest, UnreadablePathIsAnError) {
  xml::Document doc = data::MakeBibliography();
  // Reading a directory: open(2) succeeds on Linux but every read fails —
  // the loader must surface an I/O error, not parse an empty buffer.
  EXPECT_FALSE(core::LoadSketchFromFile(::testing::TempDir(), doc).ok());
  EXPECT_FALSE(
      core::LoadSketchFromFile(UniqueTempPath("nope.xsk2"), doc).ok());
}

}  // namespace
}  // namespace xsketch
