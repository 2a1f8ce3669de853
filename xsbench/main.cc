// xsbench: the repository benchmark. One process runs one workload:
//
//   xsbench --workload <estimate|serve|optimize|build> --seed <n>
//           --seconds <s> --trace <0|1> [--tiny] [--corrupt-oracle]
//           [--out-dir <dir>] [--source-id <id>]
//
// It prints a host and build record, a readable summary, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. The exit code is non-zero when any operation disagreed with
// its oracle or failed. See README.md for the workloads and metrics.

#include <sched.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "workloads.h"

namespace xsbench {
namespace {

// The metric names BENCHMARK.json declares; a run prints exactly one of
// these lists.
const char* const kEndToEnd[] = {
    "setup_s",         "ops_per_s", "latency_p50_us", "latency_p99_us",
    "rel_error",       "plan_cost_ratio", "sketch_kb", "peak_rss_mb",
};
const char* const kPerLayer[] = {
    "estimate.ops_per_s_1t",
    "query.parse_us",
    "service.prepare_hit_us",
    "service.prepare_miss_us",
    "service.plan_cache_hit_ratio",
    "service.plan_cache_evictions",
    "core.execute_us",
    "service.catalog_swap_ms",
    "service.first_request_after_swap_us",
    "daemon.rtt_xskb_us",
    "daemon.rtt_http_us",
    "daemon.shed",
    "daemon.deadline_expired",
    "daemon.errors",
    "net.encode_us",
    "net.decode_us",
    "plan.plan_us",
    "plan.card_calls",
    "plan.card_us",
    "exec.execute_us",
    "exec.logical_rows",
    "exec.emitted_rows",
    "exec.holistic_share",
    "exec.stream_index_ms",
    "xml.parse_ms",
    "core.xbuild_ms",
    "core.save_frozen_ms",
    "core.load_frozen_ms",
    "core.refinements",
    "core.candidates_scored",
    "core.scoring_p50_ms",
    "loadgen.late_p99_us",
    "trace.overhead_frac",
};

using RunFn = Outcome (*)(const Config&);
struct Workload {
  const char* name;
  RunFn run;
};
const Workload kWorkloads[] = {
    {"estimate", RunEstimate},
    {"serve", RunServe},
    {"optimize", RunOptimize},
    {"build", RunBuild},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <estimate|serve|optimize|build> "
               "--seed <n> --seconds <s> --trace <0|1> [--tiny] "
               "[--corrupt-oracle] [--out-dir <dir>] [--source-id <id>]\n",
               argv0);
  return 2;
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace xsbench

int main(int argc, char** argv) {
  using namespace xsbench;
  std::signal(SIGPIPE, SIG_IGN);
  Config config;
  std::string out_dir = ".";
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::atof(argv[++i]);
      have_seconds = config.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string v = argv[++i];
      if (v != "0" && v != "1") return Usage(argv[0]);
      config.trace = v == "1";
      have_trace = true;
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--corrupt-oracle") {
      config.corrupt_oracle = true;
    } else if (arg == "--out-dir" && has_value) {
      out_dir = argv[++i];
    } else if (arg == "--source-id" && has_value) {
      source_id = argv[++i];
    } else {
      return Usage(argv[0]);
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage(argv[0]);
  }
  config.nproc = Nproc();

  namespace fs = std::filesystem;
  std::error_code ec;
  config.work_dir = out_dir + "/run-" + std::to_string(::getpid());
  fs::remove_all(config.work_dir, ec);
  fs::create_directories(config.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "xsbench: cannot create %s: %s\n",
                 config.work_dir.c_str(), ec.message().c_str());
    return 2;
  }
  if (config.trace) {
    config.trace_dir = out_dir + "/traces/" + config.workload + "-seed" +
                       std::to_string(config.seed);
    fs::create_directories(config.trace_dir, ec);
  }

#ifdef XSKETCH_FAULTPOINTS
  const bool faultpoints = true;
#else
  const bool faultpoints = false;
#endif
  std::printf(
      "host {\"nproc\": %d, \"cpu\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"fp_contract\": \"off\", \"faultpoints\": %s, "
      "\"source\": %s, \"workload\": %s, \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d, \"tiny\": %s, "
      "\"note\": \"BENCH_0..5 were recorded on a 1-hardware-thread host "
      "with other benches; they are not comparable with these numbers\"}\n",
      config.nproc, JsonString(CpuModel()).c_str(),
      JsonString(std::string(XSBENCH_CXX_ID) + " " + XSBENCH_CXX_VERSION)
          .c_str(),
      JsonString(XSBENCH_BUILD_TYPE).c_str(), faultpoints ? "true" : "false",
      JsonString(source_id).c_str(), JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0,
      config.tiny ? "true" : "false");
  std::fflush(stdout);

  Outcome out = workload->run(config);
  if (config.trace) {
    // Layers this workload's loop does not reach are measured by a short
    // tiny-size pass of the workloads that do (the layer probe), so that
    // every traced run reports every per-layer metric. The workload's own
    // values take precedence.
    for (const Workload& w : kWorkloads) {
      if (&w == workload) continue;
      Config probe = config;
      probe.workload = w.name;
      probe.tiny = true;
      probe.corrupt_oracle = false;
      probe.seconds = 0.6;
      out.Merge(w.run(probe));
    }
  }

  // Exactly the declared metrics of this mode, each with a unit.
  std::string metrics_json;
  bool complete = true;
  std::printf("%-38s %16s  %s\n", "metric", "value", "unit");
  const auto emit = [&](const char* name) {
    auto it = out.metrics.find(name);
    if (it == out.metrics.end()) {
      out.Fail(std::string("metric not measured: ") + name);
      complete = false;
      return;
    }
    std::printf("%-38s %16.6g  %s\n", name, it->second.value,
                it->second.unit.c_str());
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += JsonString(name) + ": {\"value\": " +
                    Number(it->second.value) +
                    ", \"unit\": " + JsonString(it->second.unit) + "}";
  };
  if (config.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  const double fail_frac =
      out.attempted == 0 ? 1.0
                         : static_cast<double>(out.failed) / out.attempted;
  std::printf("attempted %llu, failed %llu (fail_frac %.6g)\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), fail_frac);
  for (const std::string& f : out.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  fs::remove_all(config.work_dir, ec);

  const bool correct = complete && out.failed == 0 && out.attempted > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(1, out.attempted)),
      static_cast<unsigned long long>(out.failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
