// Cold-load latency: time-to-first-estimate for an XSK3 sketch that is on
// disk but not in memory. The cold path maps the frozen image and
// validates it (checksums, bounds, floating-point sweeps) — no
// recomputation — then compiles and executes a probe query. The timing
// starts at the file open and ends when the first estimate is produced.
//
// Every run cross-checks the mapped path bit-identical against the heap
// path over the whole probe workload before any timing is reported.
//
// Scale knobs: XS_BENCH_SCALE (default 1.0),
// XS_BENCH_COLDLOAD_REPEATS (default 5, best-of).
//
// --smoke: assert-only pass on a tiny document (bit-identity + the cold
// path succeeds), wired into ctest via bench_smoke.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "core/compile.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "query/xpath_parser.h"

namespace {

using namespace xsketch;
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count() * 1e3;
}

std::string TempPath(const char* suffix) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  return std::string(dir) + "/xsketch_coldload_" +
         std::to_string(::getpid()) + suffix;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bench::DataSet data =
      smoke ? bench::DataSet{"XMark",
                             data::GenerateXMark({.seed = 42, .scale = 0.02})}
            : bench::MakeXMark();
  const int repeats =
      smoke ? 2 : bench::EnvInt("XS_BENCH_COLDLOAD_REPEATS", 5);

  // Probe workload: generated positive twigs plus the first parseable
  // '//' path, which doubles as the timed "first estimate" query.
  query::WorkloadOptions wopts;
  wopts.seed = 55;
  wopts.num_queries = smoke ? 20 : 60;
  wopts.value_pred_fraction = 0.3;
  const query::Workload workload =
      query::GeneratePositiveWorkload(data.doc, wopts);
  std::vector<query::TwigQuery> queries;
  for (const auto& wq : workload.queries) queries.push_back(wq.twig);
  if (auto q = query::ParsePath("//item", data.doc.tags()); q.ok()) {
    queries.insert(queries.begin(), std::move(q).value());
  }
  if (queries.empty()) {
    std::fprintf(stderr, "empty probe workload\n");
    return 1;
  }

  const core::TwigXSketch sketch = core::TwigXSketch::Coarsest(data.doc);
  const std::string xsk3_path = TempPath(".xsk3");
  {
    const core::FrozenSynopsis frozen(sketch);
    if (util::Status st = core::SaveFrozenToFile(frozen, xsk3_path);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const auto cleanup = [&] { std::remove(xsk3_path.c_str()); };

  // Bit-identity gate before any timing: heap-frozen vs mapped estimates
  // over the full probe workload.
  std::vector<double> expected(queries.size());
  {
    const auto heap = std::make_shared<const core::FrozenSynopsis>(sketch);
    const core::TwigCompiler compiler(heap);
    auto mapped = core::LoadFrozenFile(xsk3_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
      cleanup();
      return 1;
    }
    const core::TwigCompiler mapped_compiler(mapped.value());
    core::ExecScratch scratch;
    for (size_t i = 0; i < queries.size(); ++i) {
      auto p1 = compiler.Compile(queries[i]);
      auto p2 = mapped_compiler.Compile(queries[i]);
      if (!p1.ok() || !p2.ok()) {
        std::fprintf(stderr, "compile failed on probe query %zu\n", i);
        cleanup();
        return 1;
      }
      expected[i] = p1.value()->Execute(scratch);
      const double got = p2.value()->Execute(scratch);
      if (std::memcmp(&expected[i], &got, sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "MISMATCH on probe query %zu: heap %.17g mapped %.17g\n",
                     i, expected[i], got);
        cleanup();
        return 1;
      }
    }
  }

  // XSK3 cold path: mmap + validate + compile + first execute.
  double xsk3_best_ms = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point start = Clock::now();
    auto mapped = core::LoadFrozenFile(xsk3_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
      cleanup();
      return 1;
    }
    const core::TwigCompiler compiler(mapped.value());
    auto plan = compiler.Compile(queries[0]);
    if (!plan.ok()) {
      cleanup();
      return 1;
    }
    const double first = plan.value()->Execute();
    const double ms = MsSince(start);
    xsk3_best_ms = std::min(xsk3_best_ms, ms);
    if (std::memcmp(&first, &expected[0], sizeof(double)) != 0) {
      std::fprintf(stderr, "XSK3 cold path first-estimate mismatch\n");
      cleanup();
      return 1;
    }
  }

  size_t xsk3_bytes = 0;
  {
    std::ifstream in(xsk3_path, std::ios::binary | std::ios::ate);
    if (in) xsk3_bytes = static_cast<size_t>(in.tellg());
  }
  cleanup();

  if (smoke) {
    std::printf("perf_coldload --smoke OK (%zu probe queries bit-identical, "
                "xsk3 %.2f ms)\n",
                queries.size(), xsk3_best_ms);
    return 0;
  }
  std::printf("# %s scale=%.2f, %zu synopsis nodes, best of %d cold loads\n",
              data.name.c_str(), bench::BenchScale(),
              static_cast<size_t>(sketch.synopsis().node_count()), repeats);
  std::printf("coldload xsk3 %10.3f ms   %8.1f KB file   bit-identical\n",
              xsk3_best_ms, xsk3_bytes / 1024.0);
  return 0;
}
