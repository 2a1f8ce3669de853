// serve: an open loop from one generator thread over a few connections
// to an in-process daemon::Daemon on an ephemeral port. Traffic is mostly
// XSKB kEstimate, plus HTTP /estimate and small /batch requests, over a
// query pool that fits the plan cache. While it runs, one document is
// republished every second the way the catalog documents it: the new
// image is written to a temporary file, renamed over the live path, and
// handed to Daemon::AddSketch; the republished versions alternate
// between two prebuilt sketches.
//
// Phases: a closed-loop probe per protocol (unloaded round trip), then a
// reference phase at a fixed offered rate (latency, measured from each
// request's scheduled send time), then a ladder of offered rates for the
// highest rate whose p99 stays within the limit.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>

#include "daemon/daemon.h"
#include "net/json.h"
#include "net/wire.h"
#include "workloads.h"

namespace xsbench {
namespace {

// Offered rates (requests/s) of the ladder, and the p99 limit a rung must
// meet. The daemon answers an unloaded request in tens of microseconds,
// and perf_daemon sees about 1 ms p99 at twice saturation: the limit sits
// at that mark.
constexpr double kLadder[] = {2000,  4000,  6000,  8000,  12000, 16000,
                              20000, 24000, 32000, 40000, 48000, 64000};
constexpr double kLatencyLimitUs = 1000.0;
constexpr int kReferenceSlices = 7;
constexpr double kReferenceRate = 2000;
constexpr int kPoolPerDoc = 96;  // well inside the 256-entry plan cache
constexpr int kBatchSize = 4;
constexpr size_t kSpanCapacity = 1 << 18;

enum Kind : uint8_t { kXskb, kHttpEstimate, kHttpBatch };

struct Setup {
  std::vector<Corpus> corpora;
  std::vector<BuiltSketch> built;  // xmark, imdb
  // The republished document (xmark) alternates between two images:
  // version 0, the XBUILD sketch the daemon starts with, and version 1,
  // the coarsest synopsis of the same document.
  std::string version_image[2];
  std::vector<std::string> texts[2];
  // oracle[doc][version][i]; imdb is never republished (version 0 only).
  std::vector<double> oracle[2][2];
  std::unique_ptr<daemon::Daemon> daemon;
};

const char* const kDocIds[2] = {"xmark", "imdb"};

std::unique_ptr<Setup> MakeSetup(const Config& config, int rep,
                                 Outcome* out) {
  auto s = std::make_unique<Setup>();
  const DataConfig dc = DataConfigFor(config);
  const int pool = config.tiny ? 8 : kPoolPerDoc;
  daemon::DaemonOptions options;
  options.server.port = 0;
  for (int d = 0; d < 2; ++d) {
    s->corpora.push_back(MakeCorpus(kDocIds[d], dc.scale));
    const Corpus& corpus = s->corpora.back();
    const query::Workload held = HeldAsideWorkload(corpus, dc);
    const std::string path = JoinPath(
        config.work_dir, "serve-" + std::to_string(rep) + "-" + kDocIds[d] +
                             ".xsk3");
    auto built = BuildVerified(corpus, dc, config.nproc, held, path, false,
                               nullptr, 0, out);
    out->attempted += held.queries.size();
    if (!built) return nullptr;
    s->built.push_back(std::move(*built));
    options.sketches.emplace_back(kDocIds[d], path);
    s->texts[d] = PathPool(corpus, pool, SubSeed(config.seed, 20 + d));
  }
  const BuiltSketch& xmark = s->built[0];
  const core::TwigXSketch coarse = core::TwigXSketch::Coarsest(*xmark.doc);
  for (int v = 0; v < 2; ++v) {
    auto image = core::SaveFrozen(core::FrozenSynopsis(
        v == 0 ? *xmark.sketch : coarse));
    if (!image.ok()) {
      out->Fail("SaveFrozen: " + image.status().ToString());
      return nullptr;
    }
    s->version_image[v] = std::move(image).value();
  }
  for (int d = 0; d < 2; ++d) {
    const util::StringInterner& tags = s->built[d].loaded->tags();
    const core::Estimator v0(*s->built[d].sketch);
    const core::Estimator v1(coarse);
    for (const std::string& text : s->texts[d]) {
      auto twig = query::ParsePath(text, tags);
      if (!twig.ok()) {
        out->Fail("ParsePath(" + text + "): " + twig.status().ToString());
        return nullptr;
      }
      s->oracle[d][0].push_back(v0.Estimate(twig.value()));
      if (d == 0) s->oracle[d][1].push_back(v1.Estimate(twig.value()));
    }
  }
  if (config.corrupt_oracle) {
    s->oracle[1][0][0] += 1.0;  // imdb is never swapped: always version 0
  }
  auto created = daemon::Daemon::Create(std::move(options));
  if (!created.ok()) {
    out->Fail("Daemon::Create: " + created.status().ToString());
    return nullptr;
  }
  s->daemon = std::move(created).value();
  return s;
}

// One catalog swap as the swapper thread saw it.
struct Swap {
  int64_t begin_ns = 0;  // AddSketch called
  int64_t end_ns = 0;    // AddSketch returned
  int version = 0;       // version installed
};

// Republishes xmark every `period_s` until stopped.
class Swapper {
 public:
  Swapper(Setup& setup, double period_s, SpanLog* log)
      : setup_(setup), period_s_(period_s), log_(log) {}
  ~Swapper() { Stop(); }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Versions of xmark that a request sent at `send_ns` and answered
  // at `done_ns` may legitimately have seen (bit 0: version 0, bit 1:
  // version 1).
  unsigned Allowed(int64_t send_ns, int64_t done_ns) const {
    std::lock_guard<std::mutex> lock(mu_);
    unsigned allowed = 1u << 0;
    for (const Swap& s : swaps_) {
      if (s.end_ns <= send_ns) {
        allowed = 1u << s.version;
      } else if (s.begin_ns <= done_ns) {
        allowed |= 1u << s.version;
      }
    }
    return allowed;
  }
  // Number of completed swaps.
  uint64_t completed() const { return completed_.load(); }
  std::vector<Swap> swaps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return swaps_;
  }
  // Outcome of the swaps (failures), merged by the caller after Stop.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void Loop() {
    int version = 0;
    int n = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_s_),
                         [this] { return stop_; })) {
      lock.unlock();
      version ^= 1;
      const std::string& live = setup_.built[0].path;
      const std::string tmp = live + ".tmp";
      std::string error;
      {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        f.write(setup_.version_image[version].data(),
                setup_.version_image[version].size());
        f.close();
        if (!f) error = "cannot write " + tmp;
      }
      if (error.empty() && std::rename(tmp.c_str(), live.c_str()) != 0) {
        error = "cannot rename " + tmp;
      }
      // The swap is visible to the oracle from before AddSketch starts
      // (end unknown) until it returns: a request answered meanwhile may
      // have seen either version.
      const int64_t begin = NowNs();
      size_t index = 0;
      if (error.empty()) {
        lock.lock();
        swaps_.push_back({begin, INT64_MAX, version});
        index = swaps_.size() - 1;
        lock.unlock();
        if (util::Status st = setup_.daemon->AddSketch("xmark", live);
            !st.ok()) {
          error = "AddSketch: " + st.ToString();
        }
      }
      const int64_t end = NowNs();
      if (log_) log_->Add("service.catalog_swap", begin, end, ++n, -1);
      lock.lock();
      if (error.empty()) {
        swaps_[index].end_ns = end;
        completed_.fetch_add(1);
      } else {
        // The catalog keeps serving the old version after a failed load.
        if (!swaps_.empty() && swaps_.back().end_ns == INT64_MAX) {
          swaps_.pop_back();
        }
        errors_.push_back(error);
        version ^= 1;
      }
    }
  }

  Setup& setup_;
  const double period_s_;
  SpanLog* const log_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Swap> swaps_;
  std::vector<std::string> errors_;
  std::atomic<uint64_t> completed_{0};
  std::thread thread_;
};

struct Pending {
  int64_t sched_ns = 0;
  int64_t send_ns = 0;
  Kind kind = kXskb;
  uint8_t doc = 0;
  uint8_t nq = 0;
  bool first_after_swap = false;
  uint32_t q[kBatchSize] = {};
  uint64_t req = 0;
  int span = -1;  // root span index when traced
};

struct Conn {
  int fd = -1;
  bool http = false;
  std::string wbuf;
  size_t woff = 0;
  std::string rbuf;
  std::deque<Pending> inflight;
};

// Per-phase record of completed requests.
struct PhaseStats {
  std::vector<double> latency_us;  // from scheduled send
  std::vector<int64_t> sched_ns;    // scheduled send of each latency_us
  std::vector<double> late_us;     // generator lateness at send
  std::vector<double> first_after_swap_us;
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  size_t outstanding_at_end = 0;  // when the phase stopped sending
  double seconds = 0.0;
  int64_t start_ns = 0;

  // Latency quantile over `slices` equal spans of the phase (by
  // scheduled send time), the median of the per-span values.
  double SlicedQuantile(double p, int slices) const {
    std::vector<SlicedSample> samples;
    const double span_ns = seconds * 1e9 / slices;
    for (size_t i = 0; i < latency_us.size(); ++i) {
      const int k = std::clamp(
          static_cast<int>((sched_ns[i] - start_ns) / span_ns), 0,
          slices - 1);
      samples.push_back({static_cast<uint32_t>(k),
                         static_cast<float>(latency_us[i])});
    }
    return SliceMedianQuantile(samples, p);
  }
};

class LoadGen {
 public:
  LoadGen(Setup& setup, const Config& config, Swapper* swapper,
          Outcome* out)
      : setup_(setup), config_(config), swapper_(swapper), out_(out),
        rng_(SubSeed(config.seed, 50)) {}
  ~LoadGen() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  bool Connect(uint16_t port) {
    // The generator sleeps between sends; the default 50 us timer slack
    // would add itself to every send's lateness.
    ::prctl(PR_SET_TIMERSLACK, 1UL);
    const int n = std::max(2, config_.nproc);
    const int http = std::max(1, n / 4);
    for (int i = 0; i < n; ++i) {
      Conn c;
      c.http = i >= n - http;
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        ::close(c.fd);
        return false;
      }
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      if (!c.http) c.wbuf = std::string(net::kWirePreface);
      (c.http ? http_ : xskb_).push_back(conns_.size());
      conns_.push_back(std::move(c));
    }
    return true;
  }

  void set_log(SpanLog* log) { log_ = log; }

  // Closed loop on one connection: send, wait for the answer, repeat.
  // Returns the round-trip times (us).
  std::vector<double> RunClosed(bool http, double seconds) {
    PhaseStats stats;
    const size_t ci = http ? http_.front() : xskb_.front();
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    while (NowNs() < end) {
      const int64_t now = NowNs();
      Send(static_cast<int>(ci), http ? kHttpEstimate : kXskb, now, now,
            &stats);
      while (!conns_[ci].inflight.empty()) {
        if (!Pump(NowNs() + 1'000'000'000, &stats)) return {};
      }
    }
    return stats.latency_us;
  }

  // Open loop at `rate` requests/s for `seconds`; then waits (bounded)
  // for the stragglers.
  PhaseStats RunOpen(double rate, double seconds) {
    PhaseStats stats;
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
    stats.start_ns = start;
    stats.seconds = seconds;
    const double interval_ns = 1e9 / rate;
    double next = static_cast<double>(start);
    for (;;) {
      const int64_t now = NowNs();
      while (next <= now && next < end) {
        Send(-1, PickKind(), static_cast<int64_t>(next), now, &stats);
        next += interval_ns;
      }
      if (next >= end) break;
      if (!Pump(static_cast<int64_t>(next), &stats)) return stats;
    }
    stats.outstanding_at_end = Outstanding();
    const int64_t drain_end = NowNs() + 2'000'000'000;
    while (Outstanding() > 0 && NowNs() < drain_end) {
      if (!Pump(drain_end, &stats)) break;
    }
    if (Outstanding() > 0) {
      FailAll("no answer within 2 s of the phase end", &stats);
    }
    return stats;
  }

 private:
  size_t Outstanding() const {
    size_t n = 0;
    for (const Conn& c : conns_) n += c.inflight.size();
    return n;
  }

  Kind PickKind() {
    const double u = rng_.Uniform();
    return u < 0.80 ? kXskb : u < 0.95 ? kHttpEstimate : kHttpBatch;
  }

  // Encodes and sends one request of `kind` scheduled at `sched_ns`, on
  // connection `forced` or, when it is negative, round robin over the
  // kind's protocol.
  void Send(int forced, Kind kind, int64_t sched_ns, int64_t now_ns,
             PhaseStats* stats) {
    const std::vector<size_t>& group = kind == kXskb ? xskb_ : http_;
    uint64_t& rr = rr_[kind == kXskb ? 0 : 1];
    Conn& c = conns_[forced >= 0 ? static_cast<size_t>(forced)
                                 : group[rr++ % group.size()]];
    Pending p;
    p.sched_ns = sched_ns;
    p.send_ns = now_ns;
    p.kind = kind;
    p.doc = static_cast<uint8_t>(rng_.Next() & 1);
    p.nq = kind == kHttpBatch ? kBatchSize : 1;
    for (int i = 0; i < p.nq; ++i) {
      p.q[i] = static_cast<uint32_t>(rng_.Below(setup_.texts[p.doc].size()));
    }
    p.req = ++next_req_;
    if (p.doc == 0 && swapper_ != nullptr) {
      const uint64_t swaps = swapper_->completed();
      if (swaps != seen_swaps_) {
        seen_swaps_ = swaps;
        p.first_after_swap = true;
      }
    }
    const int64_t enc_start = NowNs();
    const std::string doc = kDocIds[p.doc];
    if (kind == kXskb) {
      net::WireEstimateRequest req;
      req.doc = doc;
      req.query = setup_.texts[p.doc][p.q[0]];
      net::AppendWireFrame(&c.wbuf, net::FrameType::kEstimate,
                           net::EncodeEstimateRequest(req));
    } else {
      std::string body = "{\"doc\":";
      net::AppendJsonString(&body, doc);
      if (kind == kHttpEstimate) {
        body += ",\"query\":";
        net::AppendJsonString(&body, setup_.texts[p.doc][p.q[0]]);
      } else {
        body += ",\"queries\":[";
        for (int i = 0; i < p.nq; ++i) {
          if (i > 0) body += ",";
          net::AppendJsonString(&body, setup_.texts[p.doc][p.q[i]]);
        }
        body += "]";
      }
      body += "}";
      c.wbuf += kind == kHttpEstimate ? "POST /estimate" : "POST /batch";
      c.wbuf += " HTTP/1.1\r\nHost: xsbench\r\nContent-Type: "
                "application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n";
      c.wbuf += body;
    }
    const int64_t enc_end = NowNs();
    if (log_) {
      p.span = log_->Add("serve.request", sched_ns, 0, p.req, -1);
      log_->Add("net.encode", enc_start, enc_end, p.req, p.span);
    }
    c.inflight.push_back(p);
    ++stats->sent;
    stats->late_us.push_back((now_ns - sched_ns) / 1e3);
    Flush(c);
  }

  void Flush(Conn& c) {
    while (c.woff < c.wbuf.size()) {
      const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
      if (n > 0) {
        c.woff += static_cast<size_t>(n);
      } else {
        break;  // EAGAIN (the server is behind) or an error read later
      }
    }
    if (c.woff == c.wbuf.size()) {
      c.wbuf.clear();
      c.woff = 0;
    }
  }

  // Waits for socket events until `until_ns` (or the first readable
  // connection) and completes every whole response. False on a transport
  // failure, which fails everything in flight.
  bool Pump(int64_t until_ns, PhaseStats* stats) {
    std::vector<pollfd> fds(conns_.size());
    for (size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN;
      if (!conns_[i].wbuf.empty()) fds[i].events |= POLLOUT;
    }
    const int64_t wait_ns = std::max<int64_t>(0, until_ns - NowNs());
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return true;
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Flush(c);
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      char buf[65536];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          c.rbuf.append(buf, static_cast<size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                       errno != EINTR)) {
          FailAll("connection closed by the daemon", stats);
          return false;
        }
        break;
      }
      if (!CompleteResponses(c, stats)) {
        FailAll("unparseable response", stats);
        return false;
      }
    }
    return true;
  }

  // Parses every whole response at the front of c.rbuf. False on bytes
  // that can never become a response.
  bool CompleteResponses(Conn& c, PhaseStats* stats) {
    while (!c.inflight.empty()) {
      const int64_t dec_start = NowNs();
      std::vector<double> values;
      std::string error;
      size_t consumed = 0;
      if (!c.http) {
        auto parsed = net::ParseWireFrame(c.rbuf, 1 << 20);
        if (parsed.outcome == net::WireParseOutcome::kNeedMore) return true;
        if (parsed.outcome == net::WireParseOutcome::kError) return false;
        consumed = parsed.consumed;
        const auto type = static_cast<net::FrameType>(parsed.frame.type);
        if (type == net::FrameType::kEstimateOk) {
          auto v = net::DecodeEstimateOk(parsed.frame.payload);
          if (v.ok()) {
            values.push_back(v.value());
          } else {
            error = "bad kEstimateOk: " + v.status().ToString();
          }
        } else if (type == net::FrameType::kNack) {
          auto nack = net::DecodeNack(parsed.frame.payload);
          error = "NACK " + (nack.ok() ? std::to_string(static_cast<int>(
                                             nack.value().first)) +
                                             " " + nack.value().second
                                       : std::string("(undecodable)"));
        } else {
          error = "unexpected frame type " +
                  std::to_string(parsed.frame.type);
        }
      } else {
        const size_t hdr_end = c.rbuf.find("\r\n\r\n");
        if (hdr_end == std::string::npos) return true;
        size_t content_length = 0;
        bool have_length = false;
        for (size_t pos = 0; pos < hdr_end;) {
          size_t eol = c.rbuf.find("\r\n", pos);
          if (eol == std::string::npos || eol > hdr_end) eol = hdr_end;
          std::string line = c.rbuf.substr(pos, eol - pos);
          for (char& ch : line) ch = static_cast<char>(std::tolower(ch));
          if (line.rfind("content-length:", 0) == 0) {
            content_length = std::strtoull(line.c_str() + 15, nullptr, 10);
            have_length = true;
          }
          pos = eol + 2;
        }
        if (!have_length) return false;
        if (c.rbuf.size() < hdr_end + 4 + content_length) return true;
        consumed = hdr_end + 4 + content_length;
        const int status = std::atoi(c.rbuf.c_str() + 9);
        auto json = net::ParseJson(
            std::string_view(c.rbuf).substr(hdr_end + 4, content_length));
        if (status != 200 || !json.ok()) {
          error = "HTTP " + std::to_string(status) + " " +
                  c.rbuf.substr(hdr_end + 4, std::min<size_t>(
                                                 content_length, 120));
        } else if (c.inflight.front().kind == kHttpEstimate) {
          const double* v = json.value().FindNumber("estimate");
          if (v) values.push_back(*v);
          else error = "no estimate in reply";
        } else {
          const net::JsonValue* results = json.value().Find("results");
          if (results && results->kind() == net::JsonValue::Kind::kArray) {
            for (const net::JsonValue& r : results->array()) {
              const double* v = r.FindNumber("estimate");
              if (v) values.push_back(*v);
              else error = "batch entry without estimate";
            }
          } else {
            error = "no results in batch reply";
          }
        }
      }
      const int64_t done = NowNs();
      c.rbuf.erase(0, consumed);
      Pending p = c.inflight.front();
      c.inflight.pop_front();
      if (log_ && p.span >= 0) {
        log_->Add("net.decode", dec_start, done, p.req, p.span);
        log_->SetEnd(p.span, done);
      }
      if (error.empty()) error = Check(p, values, done);
      ++stats->completed;
      if (!error.empty()) {
        ++stats->failed;
        out_->Fail("serve: " + error);
      } else {
        stats->latency_us.push_back((done - p.sched_ns) / 1e3);
        stats->sched_ns.push_back(p.sched_ns);
        if (p.first_after_swap) {
          stats->first_after_swap_us.push_back((done - p.sched_ns) / 1e3);
        }
      }
    }
    return c.rbuf.empty();
  }

  // Oracle: every estimate bit-identical to the reference Estimator of a
  // sketch version the request may have seen.
  std::string Check(const Pending& p, const std::vector<double>& values,
                    int64_t done_ns) const {
    if (values.size() != p.nq) {
      return "expected " + std::to_string(p.nq) + " estimates, got " +
             std::to_string(values.size());
    }
    const unsigned allowed =
        p.doc == 0 && swapper_ ? swapper_->Allowed(p.send_ns, done_ns) : 1u;
    for (int i = 0; i < p.nq; ++i) {
      bool ok = false;
      for (int v = 0; v < 2; ++v) {
        if ((allowed >> v & 1) && !setup_.oracle[p.doc][v].empty() &&
            SameBits(values[i], setup_.oracle[p.doc][v][p.q[i]])) {
          ok = true;
        }
      }
      if (!ok) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "estimate %.17g disagrees with ",
                      values[i]);
        return buf + std::string("the reference for ") + kDocIds[p.doc] +
               " " + setup_.texts[p.doc][p.q[i]];
      }
    }
    return "";
  }

  void FailAll(const std::string& why, PhaseStats* stats) {
    for (Conn& c : conns_) {
      for (size_t i = 0; i < c.inflight.size(); ++i) {
        ++stats->failed;
        out_->Fail("serve: " + why);
      }
      c.inflight.clear();
    }
  }

  Setup& setup_;
  const Config& config_;
  Swapper* const swapper_;
  Outcome* const out_;
  Rng rng_;
  std::vector<Conn> conns_;
  std::vector<size_t> xskb_, http_;
  uint64_t rr_[2] = {0, 0};
  uint64_t next_req_ = 0;
  uint64_t seen_swaps_ = 0;
  SpanLog* log_ = nullptr;
};

// A rung meets the SLO when nothing failed, p99 is within the limit, and
// the backlog left when sending stopped is no more than twice the limit's
// worth of requests (a growing queue would exceed it).
constexpr int kRungSlices = 3;

bool RungPasses(double rate, const PhaseStats& stats) {
  return stats.failed == 0 &&
         stats.SlicedQuantile(0.99, kRungSlices) <= kLatencyLimitUs &&
         stats.outstanding_at_end <=
             std::max(8.0, rate * kLatencyLimitUs * 2e-6);
}

}  // namespace

Outcome RunServe(const Config& config) {
  Outcome out;
  std::vector<double> setup_s;
  auto setup = RepeatSetup<Setup>(
      config, [&](int rep) { return MakeSetup(config, rep, &out); },
      &setup_s);
  if (!setup) return out;

  const double peak_rss_mb = PeakRssMb();
  std::thread loop([&] { setup->daemon->Run(); });
  const double S = config.seconds;
  Tracer tracer;
  SpanLog* const log = config.trace ? tracer.NewLog(kSpanCapacity) : nullptr;
  Swapper swapper(*setup, config.tiny ? 0.15 : 1.0,
                  config.trace ? tracer.NewLog(1 << 10) : nullptr);
  LoadGen gen(*setup, config, &swapper, &out);
  PhaseStats reference;
  std::vector<PhaseStats> rungs;
  std::vector<double> rtt_xskb, rtt_http;
  if (!gen.Connect(setup->daemon->port())) {
    out.Fail("serve: cannot connect to the daemon");
  } else {
    // Closed-loop warm-up: connections open, plan caches fill.
    gen.RunClosed(false, 0.05 * S);
    rtt_xskb = gen.RunClosed(false, 0.08 * S);
    rtt_http = gen.RunClosed(true, 0.04 * S);
    swapper.Start();
    gen.set_log(log);
    reference = gen.RunOpen(kReferenceRate, 0.35 * S);
    gen.set_log(nullptr);
    const double rung_s = config.tiny ? 0.05 : 0.45;
    double budget = 0.45 * S;
    int misses = 0;
    for (double rate : kLadder) {
      if (budget < rung_s / 2 || misses == 2) break;
      budget -= rung_s;
      rungs.push_back(gen.RunOpen(rate, rung_s));
      misses = RungPasses(rate, rungs.back()) ? 0 : misses + 1;
    }
    swapper.Stop();
  }
  setup->daemon->BeginDrain();
  loop.join();
  for (const std::string& e : swapper.errors()) out.Fail("serve: " + e);

  out.attempted += reference.sent + rtt_xskb.size() + rtt_http.size();
  for (const PhaseStats& r : rungs) out.attempted += r.sent;

  // SLO rate: the highest ladder rate that met the SLO, linearly
  // interpolated towards the next rate, which missed it (so the crossing
  // of the limit lies between them). The ladder stops after two misses in
  // a row; one isolated miss below the highest passing rate is a stall of
  // the host, not the daemon's limit.
  double slo = 0.0;
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (RungPasses(kLadder[i], rungs[i])) best = static_cast<int>(i);
  }
  if (best < 0) {
    const double p99 = rungs.empty() ? kLatencyLimitUs
                                     : rungs[0].SlicedQuantile(0.99, kRungSlices);
    slo = kLadder[0] * std::min(1.0, kLatencyLimitUs / std::max(p99, 1.0));
  } else if (static_cast<size_t>(best) + 1 < rungs.size()) {
    const double lo = rungs[best].SlicedQuantile(0.99, kRungSlices);
    const double hi = rungs[best + 1].SlicedQuantile(0.99, kRungSlices);
    const double frac =
        std::clamp((kLatencyLimitUs - lo) / std::max(hi - lo, 1e-9), 0.0, 1.0);
    slo = kLadder[best] + frac * (kLadder[best + 1] - kLadder[best]);
  } else {
    slo = kLadder[best];
  }
  const bool behind =
      Quantile(reference.late_us, 0.99) > kLatencyLimitUs / 4;
  std::printf("serve: reference %.0f/s p99 %.1f us, generator late p99 "
              "%.1f us%s; ladder:",
              kReferenceRate, reference.SlicedQuantile(0.99, kReferenceSlices),
              Quantile(reference.late_us, 0.99),
              behind ? " (GENERATOR FELL BEHIND: run not valid)" : "");
  for (size_t i = 0; i < rungs.size(); ++i) {
    std::printf(" %.0f/s:p99=%.0fus", kLadder[i],
                rungs[i].SlicedQuantile(0.99, kRungSlices));
  }
  std::printf("; slo %.0f/s\n", slo);

  if (!config.trace) {
    out.Set("ops_per_s", reference.completed / std::max(reference.seconds, 1e-9),
            "1/s");
    out.Set("latency_p50_us", reference.SlicedQuantile(0.50, kReferenceSlices),
            "us");
    out.Set("latency_p99_us", reference.SlicedQuantile(0.99, kReferenceSlices),
            "us");
    out.Set("plan_cost_ratio", kNotApplicable, "ratio");
  } else {
    const daemon::Daemon::Stats stats = setup->daemon->stats();
    std::vector<double> swap_ms;
    for (const Swap& s : swapper.swaps()) {
      swap_ms.push_back((s.end_ns - s.begin_ns) / 1e6);
    }
    out.Set("service.catalog_swap_ms", Median(swap_ms), "ms");
    out.Set("service.first_request_after_swap_us",
            Median(reference.first_after_swap_us), "us");
    out.Set("daemon.rtt_xskb_us", Median(rtt_xskb), "us");
    out.Set("daemon.rtt_http_us", Median(rtt_http), "us");
    out.Set("daemon.shed", static_cast<double>(stats.shed), "count");
    out.Set("daemon.deadline_expired",
            static_cast<double>(stats.deadline_expired), "count");
    out.Set("daemon.errors", static_cast<double>(stats.errors), "count");
    out.Set("net.encode_us", tracer.MedianUs("net.encode"), "us");
    out.Set("net.decode_us", tracer.MedianUs("net.decode"), "us");
    out.Set("loadgen.late_p99_us", Quantile(reference.late_us, 0.99), "us");
    if (!config.trace_dir.empty()) {
      tracer.WriteFile(JoinPath(config.trace_dir, "trace-serve.tsv"));
    }
  }
  std::vector<const BuiltSketch*> sketches;
  for (const BuiltSketch& b : setup->built) sketches.push_back(&b);
  SetSetupMetrics(setup_s, sketches, peak_rss_mb, &out);
  return out;
}

}  // namespace xsbench
