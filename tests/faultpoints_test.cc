// Fault-injection layer tests: the FaultPoints registry itself
// (determinism, skip/budget/probability semantics, env-var arming), the
// instrumented IO sites (posix_io, mmap_file), and the headline
// robustness scenario — a catalog load failure injected mid-hot-swap
// must leave the old generation serving, count the failure in the
// catalog metrics, and keep in-flight prepared programs valid.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/frozen.h"
#include "core/frozen_io.h"
#include "core/serialize.h"
#include "core/twig_xsketch.h"
#include "data/figures.h"
#include "service/sketch_catalog.h"
#include "testing/faultpoints.h"
#include "util/mmap_file.h"
#include "util/posix_io.h"
#include "test_env.h"

namespace xsketch {
namespace {

using testing::FaultPoints;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Every test leaves the process-wide registry clean: faultpoints are
// global state, and a leaked arming would poison unrelated tests.
class FaultPointsTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultPoints::Default().DisarmAll(); }
};

TEST_F(FaultPointsTest, UnarmedNeverFires) {
  EXPECT_FALSE(FaultPoints::AnyArmed());
  EXPECT_FALSE(XS_FAULT("nothing.armed"));
  EXPECT_EQ(XS_FAULT_DELAY_MS("nothing.armed"), 0);
  // Unarmed hits are not even counted: the registry has no entry.
  EXPECT_EQ(FaultPoints::Default().counters("nothing.armed").hits, 0u);
}

TEST_F(FaultPointsTest, ArmFireDisarm) {
  FaultPoints::Default().Arm("p");
  EXPECT_TRUE(FaultPoints::AnyArmed());
  EXPECT_TRUE(XS_FAULT("p"));
  EXPECT_TRUE(XS_FAULT("p"));
  EXPECT_FALSE(XS_FAULT("q"));  // a different, unarmed point
  const auto c = FaultPoints::Default().counters("p");
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.fires, 2u);
  FaultPoints::Default().Disarm("p");
  EXPECT_FALSE(FaultPoints::AnyArmed());
  EXPECT_FALSE(XS_FAULT("p"));
}

TEST_F(FaultPointsTest, SkipAndBudget) {
  FaultPoints::Config cfg;
  cfg.skip = 2;       // hits 0 and 1 pass
  cfg.max_fires = 1;  // only one failure total
  FaultPoints::Default().Arm("p", cfg);
  EXPECT_FALSE(XS_FAULT("p"));
  EXPECT_FALSE(XS_FAULT("p"));
  EXPECT_TRUE(XS_FAULT("p"));   // third hit fires
  EXPECT_FALSE(XS_FAULT("p"));  // budget exhausted
  const auto c = FaultPoints::Default().counters("p");
  EXPECT_EQ(c.hits, 4u);
  EXPECT_EQ(c.fires, 1u);
}

TEST_F(FaultPointsTest, ProbabilityIsDeterministicInSeed) {
  FaultPoints::Config cfg;
  cfg.probability = 0.5;
  cfg.seed = 42;
  auto pattern = [&cfg]() {
    FaultPoints::Default().Arm("p", cfg);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(XS_FAULT("p"));
    return fired;
  };
  const auto first = pattern();
  const auto again = pattern();  // re-arm resets counters: same ordinals
  EXPECT_EQ(first, again);
  // Roughly half fire (SplitMix64 over 64 draws; bounds are generous).
  const int fires = static_cast<int>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 16);
  EXPECT_LT(fires, 48);
  // A different seed gives a different pattern.
  cfg.seed = 43;
  EXPECT_NE(pattern(), first);
}

TEST_F(FaultPointsTest, DelayReportedOnlyWhenFiring) {
  FaultPoints::Config cfg;
  cfg.delay_ms = 25;
  cfg.skip = 1;
  FaultPoints::Default().Arm("slow", cfg);
  EXPECT_EQ(XS_FAULT_DELAY_MS("slow"), 0);   // skipped hit: no delay
  EXPECT_EQ(XS_FAULT_DELAY_MS("slow"), 25);  // fires: delay reported
}

TEST_F(FaultPointsTest, ArmFromEnvParsesAndSkipsTypos) {
  ::setenv("XSKETCH_FAULTPOINTS",
           "a,b:0.25,c:1:50:2:3:99,broken:not-a-number,d:2.0", 1);
  EXPECT_EQ(FaultPoints::Default().ArmFromEnv(), 3);  // a, b, c
  ::unsetenv("XSKETCH_FAULTPOINTS");
  EXPECT_TRUE(XS_FAULT("a"));  // default config: always fires
  // b armed at 0.25; we only check it is armed (hits counted).
  (void)XS_FAULT("b");
  EXPECT_EQ(FaultPoints::Default().counters("b").hits, 1u);
  // c: skip=2 then 50ms delay.
  EXPECT_EQ(XS_FAULT_DELAY_MS("c"), 0);
  EXPECT_EQ(XS_FAULT_DELAY_MS("c"), 0);
  EXPECT_EQ(XS_FAULT_DELAY_MS("c"), 50);
  // Typos and out-of-range probabilities never arm.
  EXPECT_FALSE(XS_FAULT("broken"));
  EXPECT_FALSE(XS_FAULT("d"));
}

// --- instrumented IO sites ----------------------------------------------

TEST_F(FaultPointsTest, PosixIoInjectedFailures) {
  const std::string path = UniqueTempPath("fp_io.bin");
  const std::string payload(8192, 'x');
  ASSERT_TRUE(util::WriteStringToFile(path, payload).ok());

  std::string back;
  ASSERT_TRUE(util::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);

  FaultPoints::Default().Arm("posix_io.open");
  EXPECT_FALSE(util::ReadFileToString(path, &back).ok());
  FaultPoints::Default().Disarm("posix_io.open");

  // A short read must be detected, not handed to the caller as success.
  FaultPoints::Default().Arm("posix_io.short_read");
  const util::Status short_read = util::ReadFileToString(path, &back);
  EXPECT_FALSE(short_read.ok());
  EXPECT_EQ(short_read.code(), util::StatusCode::kInternal);
  FaultPoints::Default().Disarm("posix_io.short_read");

  FaultPoints::Default().Arm("posix_io.short_write");
  EXPECT_FALSE(util::WriteStringToFile(path, payload).ok());
  FaultPoints::Default().Disarm("posix_io.short_write");
  // The failed write truncated, but a clean retry works again.
  ASSERT_TRUE(util::WriteStringToFile(path, payload).ok());
  ASSERT_TRUE(util::ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, payload);
}

TEST_F(FaultPointsTest, MmapInjectedFailures) {
  const std::string path = UniqueTempPath("fp_map.bin");
  ASSERT_TRUE(util::WriteStringToFile(path, std::string(4096, 'm')).ok());

  FaultPoints::Default().Arm("mmap_file.open");
  EXPECT_FALSE(util::MappedFile::Open(path).ok());
  FaultPoints::Default().Disarm("mmap_file.open");

  FaultPoints::Default().Arm("mmap_file.mmap");
  EXPECT_FALSE(util::MappedFile::Open(path).ok());
  FaultPoints::Default().Disarm("mmap_file.mmap");

  auto mapped = util::MappedFile::Open(path);
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(mapped.value()->size(), 4096u);
}

// --- sketch save/load through the hardened IO path ----------------------

TEST_F(FaultPointsTest, SketchFileIoSurvivesInjectedFaults) {
  xml::Document doc = data::MakeBibliography();
  const core::TwigXSketch sketch = core::TwigXSketch::Coarsest(doc);
  const std::string path = UniqueTempPath("fp_sketch.xsk2");
  ASSERT_TRUE(core::SaveSketchToFile(sketch, path).ok());

  FaultPoints::Default().Arm("posix_io.short_read");
  xml::Document doc2 = data::MakeBibliography();
  EXPECT_FALSE(core::LoadSketchFromFile(path, doc2).ok());
  FaultPoints::Default().Disarm("posix_io.short_read");

  auto loaded = core::LoadSketchFromFile(path, doc2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
}

// --- the headline: catalog load failure mid-hot-swap --------------------

TEST_F(FaultPointsTest, CatalogHotSwapLoadFailureKeepsServing) {
  xml::Document doc = data::MakeBibliography();
  const core::FrozenSynopsis frozen(core::TwigXSketch::Coarsest(doc));
  const std::string path = UniqueTempPath("fp_catalog.xsk3");
  ASSERT_TRUE(core::SaveFrozenToFile(frozen, path).ok());

  auto catalog = service::SketchCatalog::Create();
  ASSERT_TRUE(catalog.ok());
  auto h1 = catalog.value()->Put("bib", path);
  ASSERT_TRUE(h1.ok());
  const uint64_t gen1 = h1.value().generation();

  // In-flight query state: a prepared program on generation 1.
  auto plan = h1.value().Prepare(std::string("//book"));
  ASSERT_TRUE(plan.ok());
  const double before = plan.value()->Execute();

  const uint64_t failures_before =
      CounterSeries("xsketch_catalog_load_failures_total");

  // The replacement load fails at the mmap site, as if the new file were
  // unreadable at swap time.
  FaultPoints::Default().Arm("mmap_file.mmap");
  auto swap = catalog.value()->Put("bib", path);
  FaultPoints::Default().Disarm("mmap_file.mmap");
  EXPECT_FALSE(swap.ok());

  // Old generation keeps serving...
  auto get = catalog.value()->Get("bib");
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(get.value().generation(), gen1);
  // ...the failure is visible in catalog stats and the metrics registry...
  EXPECT_EQ(catalog.value()->stats().load_failures, 1u);
  EXPECT_EQ(CounterSeries("xsketch_catalog_load_failures_total"),
            failures_before + 1);
  EXPECT_EQ(catalog.value()->stats().sketches, 1u);
  // ...and the in-flight prepared program still executes, bit-identical.
  EXPECT_TRUE(BitEqual(plan.value()->Execute(), before));

  // With the fault cleared the same swap succeeds and bumps the
  // generation.
  auto retry = catalog.value()->Put("bib", path);
  ASSERT_TRUE(retry.ok());
  EXPECT_GT(retry.value().generation(), gen1);
  EXPECT_TRUE(BitEqual(plan.value()->Execute(), before));
}

}  // namespace
}  // namespace xsketch
