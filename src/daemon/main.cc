// xsketch_daemon: serve selectivity estimates over HTTP/JSON and the
// XSKB binary framing.
//
//   xsketch_daemon --sketch movies=/path/movies.xsk3 [--port 8331] ...
//
// Prints "listening on <port>" to stdout once ready (so scripts can use
// --port 0 and discover the ephemeral port), then serves until SIGTERM
// or SIGINT, which drain gracefully: stop accepting, finish in-flight
// requests, flush responses, exit 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>
#include <vector>

#include "daemon/daemon.h"
#include "obs/metrics.h"
#include "testing/faultpoints.h"

namespace {

// The drain pipe fd, published for the signal handler. write(2) is
// async-signal-safe; everything else happens on the event loop.
volatile sig_atomic_t g_drain_fd = -1;

void HandleDrainSignal(int /*signo*/) {
  const int fd = g_drain_fd;
  if (fd >= 0) {
    const char byte = 'd';
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --sketch <doc>=<path.xsk3> [--sketch ...]\n"
      "  [--port N]            listen port (default 8331; 0 = ephemeral)\n"
      "  [--bind ADDR]         bind address (default 127.0.0.1)\n"
      "  [--workers N]         handler threads, batches included (default:\n"
      "                        hardware)\n"
      "  [--admission-limit N] queued requests before shedding (default 128)\n"
      "  [--deadline-ms N]     default per-request deadline (default none)\n"
      "  [--max-connections N] concurrent connections (default 1024)\n"
      "  [--read-timeout-ms N] [--write-timeout-ms N] [--idle-timeout-ms N]\n"
      "  [--drain-grace-ms N]  max wait for in-flight work on SIGTERM\n"
      "  [--catalog-budget N]  resident sketch byte budget (default none)\n"
      "\nFault injection (test builds): set XSKETCH_FAULTPOINTS, e.g.\n"
      "  XSKETCH_FAULTPOINTS=\"daemon.slow_handler:1:50\"\n",
      argv0);
}

bool ParseInt(const char* s, long long* out) {
  errno = 0;
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0' && errno != ERANGE;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-response must surface as a write error,
  // not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  xsketch::daemon::DaemonOptions options;
  options.server.port = 8331;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_int = [&]() -> long long {
      const char* v = next();
      long long out = 0;
      if (!ParseInt(v, &out) || out < 0) {
        std::fprintf(stderr, "error: bad value '%s' for %s\n", v,
                     arg.c_str());
        std::exit(2);
      }
      return out;
    };
    if (arg == "--sketch") {
      const std::string spec = next();
      const size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::fprintf(stderr,
                     "error: --sketch wants <doc>=<path>, got '%s'\n",
                     spec.c_str());
        return 2;
      }
      options.sketches.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--port") {
      options.server.port = static_cast<uint16_t>(next_int());
    } else if (arg == "--bind") {
      options.server.bind_address = next();
    } else if (arg == "--workers") {
      options.worker_threads = static_cast<int>(next_int());
    } else if (arg == "--admission-limit") {
      options.admission_queue_limit = static_cast<size_t>(next_int());
    } else if (arg == "--deadline-ms") {
      options.default_deadline_ms = static_cast<int>(next_int());
    } else if (arg == "--max-connections") {
      options.server.max_connections = static_cast<int>(next_int());
    } else if (arg == "--read-timeout-ms") {
      options.server.read_timeout_ms = static_cast<int>(next_int());
    } else if (arg == "--write-timeout-ms") {
      options.server.write_timeout_ms = static_cast<int>(next_int());
    } else if (arg == "--idle-timeout-ms") {
      options.server.idle_timeout_ms = static_cast<int>(next_int());
    } else if (arg == "--drain-grace-ms") {
      options.server.drain_grace_ms = static_cast<int>(next_int());
    } else if (arg == "--catalog-budget") {
      options.catalog_byte_budget = static_cast<uint64_t>(next_int());
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (options.sketches.empty()) {
    std::fprintf(stderr, "error: at least one --sketch is required\n");
    Usage(argv[0]);
    return 2;
  }

#if defined(XSKETCH_FAULTPOINTS)
  if (const int armed =
          xsketch::testing::FaultPoints::Default().ArmFromEnv();
      armed > 0) {
    std::fprintf(stderr, "faultpoints: %d armed from XSKETCH_FAULTPOINTS\n",
                 armed);
  }
#endif

  auto daemon = xsketch::daemon::Daemon::Create(std::move(options));
  if (!daemon.ok()) {
    std::fprintf(stderr, "error: %s\n", daemon.status().message().c_str());
    return 1;
  }

  g_drain_fd = daemon.value()->drain_fd();
  struct sigaction sa{};
  sa.sa_handler = HandleDrainSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  std::printf("listening on %u\n", daemon.value()->port());
  std::fflush(stdout);

  daemon.value()->Run();

  // Drained: report the final counters so an operator's last journal
  // lines show what the process did.
  const auto stats = daemon.value()->stats();
  std::fprintf(stderr,
               "drained: requests=%llu shed=%llu deadline_expired=%llu "
               "errors=%llu\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.deadline_expired),
               static_cast<unsigned long long>(stats.errors));
  return 0;
}
