// Synopsis construction wall time: XBUILD with parallel candidate scoring
// at 1, 2, 4, 8 worker threads on the XMark bench document, against the
// 1-thread configuration as baseline.
//
// Candidate scoring is deterministic regardless of scheduling (every
// trial starts from a private copy of the current sketch; ties break on
// candidate index), so each run is checked bit-identical to the baseline:
// same accepted-refinement step sizes, same per-kind acceptance counts,
// and byte-identical serialized sketches.
//
// Scale knobs (see bench_common.h): XS_BENCH_SCALE, XS_BENCH_BUDGET.
//
// --smoke: assert-only determinism pass on a tiny document and budget —
// byte-identical sketches across thread counts, no timing output. Part of
// the bench_smoke ctest entry.

#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "util/thread_pool.h"

namespace {

using namespace xsketch;

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      argc > 1 && std::string(argv[1]) == std::string("--smoke");
  const bench::DataSet data =
      smoke ? bench::DataSet{"XMark",
                             data::GenerateXMark({.seed = 42, .scale = 0.02})}
            : bench::MakeXMark();

  core::BuildOptions opts;
  opts.budget_bytes = smoke ? 8 * 1024 : bench::BenchBudgetBytes();

  if (!smoke) {
    // Speedup is bounded by the machine: a 4-thread build cannot beat a
    // sequential one on fewer than 4 hardware threads, so print the cap.
    std::printf("# %s scale=%.2f, %zu elements, budget %.0f KB, "
                "%d hardware threads\n",
                data.name.c_str(), bench::BenchScale(), data.doc.size(),
                opts.budget_bytes / 1024.0,
                util::ThreadPool::HardwareThreads());
  }

  std::string baseline_bytes;
  std::vector<size_t> baseline_steps;
  std::array<int64_t, core::BuildStats::kNumKinds> baseline_kinds = {};
  double baseline_ms = 0.0;

  const std::vector<int> thread_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (int threads : thread_counts) {
    opts.num_threads = threads;
    core::BuildStats stats;
    std::vector<size_t> steps;
    core::TwigXSketch sketch = core::XBuild(data.doc, opts)
        .Build([&](const core::TwigXSketch&, size_t size) {
                 steps.push_back(size);
               },
               &stats);
    // Bit-identity fingerprint: the element partition plus the XSK3 image
    // of the frozen synopsis.
    std::string bytes;
    for (xml::NodeId e = 0; e < data.doc.size(); ++e) {
      const core::SynNodeId n = sketch.synopsis().NodeOf(e);
      bytes.append(reinterpret_cast<const char*>(&n), sizeof(n));
    }
    auto image = core::SaveFrozen(core::FrozenSynopsis(sketch));
    if (!image.ok()) {
      std::fprintf(stderr, "%s\n", image.status().ToString().c_str());
      return 1;
    }
    bytes += image.value();
    if (threads == 1) {
      baseline_bytes = bytes;
      baseline_steps = steps;
      baseline_kinds = stats.accepted_by_kind;
      baseline_ms = stats.wall_ms;
    }
    const bool identical = bytes == baseline_bytes &&
                           steps == baseline_steps &&
                           stats.accepted_by_kind == baseline_kinds;
    if (smoke) {
      if (!identical || stats.iterations < 1 ||
          stats.scoring_p50_ms > stats.scoring_p95_ms) {
        std::fprintf(stderr,
                     "perf_build --smoke FAILED at %d threads: %s, "
                     "%d refinements, scoring p50 %.1f p95 %.1f\n",
                     threads, identical ? "identical" : "MISMATCH",
                     stats.iterations, stats.scoring_p50_ms,
                     stats.scoring_p95_ms);
        return 1;
      }
      continue;
    }
    std::printf(
        "%2d threads   %8.0f ms   %5.2fx   %3d refinements   "
        "scoring p50 %6.1f ms  p95 %6.1f ms   err %.3f   %s\n",
        threads, stats.wall_ms, baseline_ms / stats.wall_ms,
        stats.iterations, stats.scoring_p50_ms, stats.scoring_p95_ms,
        stats.final_error, identical ? "bit-identical" : "MISMATCH");
    if (!identical) return 1;
  }
  if (smoke) std::printf("perf_build --smoke OK\n");
  return 0;
}
