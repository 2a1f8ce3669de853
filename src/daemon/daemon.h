// The estimation daemon: SketchCatalog + compiled-plan EstimationService
// behind the net/ event-loop server.
//
// Request flow: the server's loop thread parses a request and hands it to
// Daemon::Dispatch, which only routes. Cheap read-only endpoints
// (healthz, metrics, ping) answer inline; estimation work is admitted
// into a bounded worker-pool queue. A full queue is the overload signal:
// the request is shed immediately with HTTP 429 (Retry-After: 1) or a
// binary NACK kOverload — never queued into memory, never silently
// dropped. Deadlines (X-Deadline-Ms header, JSON "deadline_ms", or the
// binary frame field; falling back to DaemonOptions::default_deadline_ms)
// become an absolute steady-clock cutoff at admission; requests that
// expire in the queue answer 504 without touching a sketch, and batch
// deadlines propagate into EstimateBatch's chunk boundaries so a
// too-slow batch returns partial results plus an explicit
// deadline_exceeded marker.
//
// HTTP endpoints (JSON in/out):
//   GET  /healthz            -> {"status":"ok"|"draining", ...}
//   GET  /metrics            -> Prometheus text exposition
//   POST /estimate  {"doc","query","deadline_ms"?}
//   POST /batch     {"doc","queries":[...],"deadline_ms"?}
//   POST /explain   {"doc","query"}   (estimate + term counters + plan shape)
// Binary endpoints (XSKB framing, net/wire.h): kEstimate, kBatch, kPing.
//
// Shutdown: BeginDrain (SIGTERM in the binary) stops accepting, lets
// admitted work finish, flushes responses, and Run() returns — the clean
// half of the torture test's kill-under-load scenario.

#ifndef XSKETCH_DAEMON_DAEMON_H_
#define XSKETCH_DAEMON_DAEMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/server.h"
#include "obs/metrics.h"
#include "service/estimation_service.h"
#include "service/sketch_catalog.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace xsketch::daemon {

struct DaemonOptions {
  net::ServerOptions server;
  // Sketches to load at startup: (doc id, XSK3 path). More can be added
  // (or hot-swapped) later via AddSketch.
  std::vector<std::pair<std::string, std::string>> sketches;
  // Handler worker threads, the daemon's only pool: a batch runs on the
  // worker that admitted it. 0 = hardware concurrency.
  int worker_threads = 0;
  // Admission bound: requests queued (not yet executing) beyond this are
  // shed with 429/NACK. This is the daemon's overload valve — it bounds
  // queueing delay, which is what actually kills tail latency.
  size_t admission_queue_limit = 128;
  // Catalog resident-byte budget (0 = unlimited).
  uint64_t catalog_byte_budget = 0;
  // Deadline applied to requests that don't carry their own (0 = none).
  int default_deadline_ms = 0;

  util::Status Validate() const;
};

class Daemon {
 public:
  // Creates the catalog, loads startup sketches (any load failure fails
  // Create — a daemon that can't serve its configured sketches should
  // not start), binds the server.
  static util::Result<std::unique_ptr<Daemon>> Create(DaemonOptions options);

  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  uint16_t port() const { return server_->port(); }

  // Blocks in the server event loop until Stop() or a completed drain.
  void Run();

  // Graceful drain from any thread; drain_fd() is the async-signal-safe
  // variant (write one byte from the handler).
  void BeginDrain() { server_->BeginDrain(); }
  int drain_fd() const { return server_->drain_fd(); }
  void Stop() { server_->Stop(); }
  bool draining() const { return server_->draining(); }

  // Hot swap / add: catalog Put. In-flight queries on the old generation
  // finish on it; new requests see the new one.
  util::Status AddSketch(const std::string& doc_id, const std::string& path);

  net::Server& server() { return *server_; }
  service::SketchCatalog& catalog() { return *catalog_; }

  // This daemon's counts; the xsketch_daemon_*_total series sum them
  // over every daemon in the process.
  struct Stats {
    uint64_t requests = 0;
    uint64_t shed = 0;              // admission-queue overflow
    uint64_t deadline_expired = 0;  // expired before execution started
    uint64_t errors = 0;            // 4xx/5xx + NACKs other than overload
  };
  Stats stats() const;

 private:
  explicit Daemon(DaemonOptions options);

  using Clock = std::chrono::steady_clock;

  // Server dispatcher (loop thread): route or answer inline.
  void Dispatch(net::ServerRequest&& request, net::Responder responder);
  void DispatchHttp(net::HttpRequest&& request, net::Responder responder);
  void DispatchBinary(net::WireFrame&& frame, net::Responder responder);

  // Admits `work` into the worker pool; on overflow sheds with the
  // protocol-appropriate overload response. `binary` selects the NACK vs
  // 429 shape.
  void Admit(std::function<void()> work, net::Responder responder,
             bool binary);

  // Worker-thread handlers. Each computes the full response and Sends it.
  void HandleEstimate(const std::string& doc, const std::string& query,
                      std::optional<Clock::time_point> deadline,
                      net::Responder responder, bool binary);
  void HandleBatch(const std::string& doc, std::vector<std::string> queries,
                   std::optional<Clock::time_point> deadline,
                   net::Responder responder, bool binary);
  void HandleExplain(const std::string& doc, const std::string& query,
                     net::Responder responder);

  // Absolute deadline from a relative ms field (0 = fall back to the
  // configured default; both 0 = none).
  std::optional<Clock::time_point> DeadlineFrom(uint64_t deadline_ms) const;

  const DaemonOptions options_;
  std::unique_ptr<service::SketchCatalog> catalog_;

  struct Metrics {
    obs::OwnedCounter requests{
        "xsketch_daemon_requests_total",
        "Requests dispatched to the daemon (both protocols)"};
    obs::OwnedCounter shed{
        "xsketch_daemon_shed_total",
        "Requests shed by admission control (HTTP 429 / NACK overload)"};
    obs::OwnedCounter deadline_expired{
        "xsketch_daemon_deadline_expired_total",
        "Requests whose deadline passed before execution started"};
    obs::OwnedCounter errors{
        "xsketch_daemon_errors_total",
        "Requests answered with an error (excluding overload sheds)"};
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* handler_us = nullptr;
  };
  Metrics metrics_;

  // Destruction order matters: workers hold Responders into server_ and
  // handles from catalog_, so the pool (declared last) is destroyed/joined
  // first.
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace xsketch::daemon

#endif  // XSKETCH_DAEMON_DAEMON_H_
