// Daemon load driver: latency and shed behavior of the serving path
// under increasing offered load, over the real XSKB socket protocol.
//
// Every handler sleeps a fixed kServiceMs through the daemon.slow_handler
// fault point, so the per-request service time does not depend on the
// host: on a fast machine a real estimate takes microseconds, clients
// never fill the queue, and "2x saturation" would shed nothing.
//
// Phase 1 (probe): one closed-loop binary client measures unloaded
// request latency — the per-request service cost the admission valve is
// protecting.
//
// Phase 2 (2x saturation): with a fixed small worker pool and admission
// queue, 2 x (workers + queue slots) closed-loop clients oversubscribe
// the daemon: at most workers + queue slots requests are admitted at
// once, and each holds its slot for kServiceMs, so the other clients'
// requests are shed. The report shows accepted p50/p99 and the shed rate;
// the acceptance gates (every request answered explicitly, accepted p99
// bounded by queue depth x service time rather than offered load) are
// asserted on every run, not just --smoke. Builds without fault points
// (-DXSKETCH_FAULTPOINTS_ENABLED=OFF) serve at the host's real speed.
//
// The daemon runs in-process on an ephemeral port: the socket path,
// event loop, admission queue, and worker pool are all the production
// code; only process isolation is skipped (scripts/ci_check.sh smokes
// the real binary + SIGTERM separately).
//
// Scale knobs: XS_BENCH_SCALE (default 1.0),
// XS_BENCH_DAEMON_REQUESTS (per client, default 40).
//
// --smoke: tiny document, few requests — asserts the gates and exits.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "daemon/daemon.h"
#include "net/wire.h"
#include "testing/faultpoints.h"
#include "util/percentiles.h"

namespace {

using namespace xsketch;
using Clock = std::chrono::steady_clock;

std::string TempPath() {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  return std::string(dir) + "/xsketch_perf_daemon_" +
         std::to_string(::getpid()) + ".xsk3";
}

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// One closed-loop binary client: send kEstimate, wait for the answer,
// repeat. Records accepted latencies and counts explicit sheds; any
// other outcome (hang, reset, unexpected frame) is a transport error.
struct ClientResult {
  std::vector<double> accepted_ms;
  int shed = 0;
  int transport_errors = 0;
};

ClientResult RunClient(uint16_t port, const std::string& payload,
                       int requests) {
  ClientResult result;
  const int fd = ConnectTo(port);
  if (fd < 0) {
    result.transport_errors = requests;
    return result;
  }
  if (!SendAll(fd, std::string(net::kWirePreface))) {
    ::close(fd);
    result.transport_errors = requests;
    return result;
  }
  std::string frame_bytes;
  net::AppendWireFrame(&frame_bytes, net::FrameType::kEstimate, payload);
  std::string rbuf;
  for (int i = 0; i < requests; ++i) {
    const auto start = Clock::now();
    if (!SendAll(fd, frame_bytes)) {
      ++result.transport_errors;
      break;
    }
    bool answered = false;
    while (!answered) {
      auto parsed = net::ParseWireFrame(rbuf, 1 << 20);
      if (parsed.outcome == net::WireParseOutcome::kFrame) {
        rbuf.erase(0, parsed.consumed);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        if (parsed.frame.type ==
            static_cast<uint8_t>(net::FrameType::kEstimateOk)) {
          result.accepted_ms.push_back(ms);
        } else if (parsed.frame.type ==
                   static_cast<uint8_t>(net::FrameType::kNack)) {
          auto nack = net::DecodeNack(parsed.frame.payload);
          if (nack.ok() && nack.value().first == net::NackCode::kOverload) {
            ++result.shed;
          } else {
            ++result.transport_errors;  // unexpected NACK reason
          }
        } else {
          ++result.transport_errors;
        }
        answered = true;
        continue;
      }
      if (parsed.outcome == net::WireParseOutcome::kError) {
        ++result.transport_errors;
        answered = true;
        continue;
      }
      char buf[16384];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ++result.transport_errors;
        answered = true;
        continue;
      }
      rbuf.append(buf, static_cast<size_t>(n));
    }
    if (result.transport_errors > 0) break;
  }
  ::close(fd);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  const bench::DataSet data =
      smoke ? bench::DataSet{"XMark",
                             data::GenerateXMark({.seed = 42, .scale = 0.02})}
            : bench::MakeXMark();
  const int per_client =
      smoke ? 8 : bench::EnvInt("XS_BENCH_DAEMON_REQUESTS", 40);

  const std::string sketch_path = TempPath();
  {
    const core::FrozenSynopsis frozen(core::TwigXSketch::Coarsest(data.doc));
    if (util::Status st = core::SaveFrozenToFile(frozen, sketch_path);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }

  daemon::DaemonOptions options;
  options.server.port = 0;
  options.sketches.emplace_back("bench", sketch_path);
  constexpr int kWorkers = 2;
  constexpr size_t kQueueLimit = 8;
  constexpr int kServiceMs = 10;
  options.worker_threads = kWorkers;
  options.admission_queue_limit = kQueueLimit;
  testing::FaultPoints::Config slow;
  slow.delay_ms = kServiceMs;
  testing::FaultPoints::Default().Arm("daemon.slow_handler", slow);
  auto created = daemon::Daemon::Create(std::move(options));
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    std::remove(sketch_path.c_str());
    return 1;
  }
  std::unique_ptr<daemon::Daemon> d = std::move(created).value();
  std::thread loop([&d] { d->Run(); });
  const uint16_t port = d->port();

  net::WireEstimateRequest req;
  req.doc = "bench";
  req.query = "//item";
  const std::string payload = net::EncodeEstimateRequest(req);

  // Phase 1: unloaded probe.
  ClientResult probe = RunClient(port, payload, per_client);
  if (probe.transport_errors > 0 || probe.accepted_ms.empty()) {
    std::fprintf(stderr, "probe phase failed (%d transport errors)\n",
                 probe.transport_errors);
    d->Stop();
    loop.join();
    std::remove(sketch_path.c_str());
    return 1;
  }
  const double probe_p50 = util::Percentile(probe.accepted_ms, 0.5);
  const double probe_p99 = util::Percentile(probe.accepted_ms, 0.99);

  // Phase 2: 2x the daemon's total capacity (running + queued) in
  // closed-loop clients.
  const int clients = 2 * static_cast<int>(kWorkers + kQueueLimit);
  std::vector<ClientResult> results(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      results[c] = RunClient(port, payload, per_client);
    });
  }
  for (auto& t : threads) t.join();

  std::vector<double> accepted;
  int shed = 0, transport = 0;
  for (const ClientResult& r : results) {
    accepted.insert(accepted.end(), r.accepted_ms.begin(),
                    r.accepted_ms.end());
    shed += r.shed;
    transport += r.transport_errors;
  }

  d->BeginDrain();
  loop.join();
  const daemon::Daemon::Stats stats = d->stats();
  d.reset();
  std::remove(sketch_path.c_str());

  // Gates: every request answered explicitly; accepted tail bounded by
  // the admission queue, not the offered load. The bound is generous
  // (queue depth + self, times the unloaded p99, times a scheduling
  // allowance) so it only trips on real queueing-discipline regressions.
  if (transport > 0) {
    std::fprintf(stderr, "FAIL: %d requests got no explicit answer\n",
                 transport);
    return 1;
  }
  const int total = clients * per_client;
  if (static_cast<int>(accepted.size()) + shed != total) {
    std::fprintf(stderr, "FAIL: answered %zu + shed %d != sent %d\n",
                 accepted.size(), shed, total);
    return 1;
  }
  if (accepted.empty() || shed == 0) {
    std::fprintf(stderr,
                 "FAIL: 2x saturation must both serve (%zu) and shed (%d)\n",
                 accepted.size(), shed);
    return 1;
  }
  const double accepted_p50 = util::Percentile(accepted, 0.5);
  const double accepted_p99 = util::Percentile(accepted, 0.99);
  const double bound_ms =
      static_cast<double>(kQueueLimit + 2) * std::max(probe_p99, 1.0) * 8.0;
  if (accepted_p99 > bound_ms) {
    std::fprintf(stderr,
                 "FAIL: accepted p99 %.2f ms exceeds queue-derived bound "
                 "%.2f ms\n",
                 accepted_p99, bound_ms);
    return 1;
  }

  const double shed_rate = 100.0 * shed / total;
  if (smoke) {
    std::printf("perf_daemon --smoke OK (%d clients, accepted p99 %.2f ms "
                "<= bound %.2f ms, shed %.0f%%, drained clean)\n",
                clients, accepted_p99, bound_ms, shed_rate);
    return 0;
  }
  std::printf("# %s scale=%.2f, %d workers, admission queue %zu, "
              "%d clients x %d requests, +%d ms per request\n",
              data.name.c_str(), bench::BenchScale(), kWorkers, kQueueLimit,
              clients, per_client, kServiceMs);
  std::printf("daemon unloaded   p50 %8.3f ms   p99 %8.3f ms\n", probe_p50,
              probe_p99);
  std::printf("daemon 2x-sat     p50 %8.3f ms   p99 %8.3f ms   "
              "shed %5.1f%%   (%zu served, %d shed, 0 unanswered)\n",
              accepted_p50, accepted_p99, shed_rate, accepted.size(), shed);
  std::printf("daemon totals     requests %llu, shed %llu, errors %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.errors));
  return 0;
}
