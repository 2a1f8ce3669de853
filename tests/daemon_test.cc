// Daemon robustness tests: an in-process daemon exercised over real
// sockets — correctness of both protocols, admission-control shedding at
// 2x saturation (every shed request gets an explicit 429/NACK, accepted
// tail latency stays bounded), deadline handling (queue expiry and batch
// chunk abandonment), request-size limits, and graceful drain under
// load (the SIGTERM half of the ci_check smoke, driven here through
// drain_fd, which is byte-for-byte what the signal handler does).

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/frozen.h"
#include "core/frozen_io.h"
#include "core/twig_xsketch.h"
#include "daemon/daemon.h"
#include "data/figures.h"
#include "net/json.h"
#include "obs/explain.h"
#include "net/wire.h"
#include "query/xpath_parser.h"
#include "service/estimation_service.h"
#include "testing/faultpoints.h"
#include "util/percentiles.h"
#include "test_env.h"

namespace xsketch {
namespace {

using Clock = std::chrono::steady_clock;

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// --- tiny blocking clients ----------------------------------------------

int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  timeval tv{10, 0};  // a hung test is worse than a failed one
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

struct HttpResponse {
  int status = 0;       // 0 = transport failure (connection died)
  std::string body;
  std::string raw;
};

// One Connection: close request; reads to EOF.
HttpResponse HttpRoundTrip(uint16_t port, const std::string& method,
                           const std::string& path, const std::string& body,
                           const std::string& extra_headers = "") {
  HttpResponse resp;
  const int fd = ConnectTo(port);
  if (fd < 0) return resp;
  std::string req = method + " " + path + " HTTP/1.1\r\n" +
                    "Host: test\r\nConnection: close\r\n" + extra_headers +
                    "Content-Length: " + std::to_string(body.size()) +
                    "\r\n\r\n" + body;
  if (!SendAll(fd, req)) {
    ::close(fd);
    return resp;
  }
  char buf[16384];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  if (resp.raw.size() < 12 || resp.raw.compare(0, 5, "HTTP/") != 0) {
    return resp;
  }
  resp.status = std::atoi(resp.raw.c_str() + 9);
  const size_t split = resp.raw.find("\r\n\r\n");
  if (split != std::string::npos) resp.body = resp.raw.substr(split + 4);
  return resp;
}

// A persistent XSKB connection.
class BinaryClient {
 public:
  explicit BinaryClient(uint16_t port) : fd_(ConnectTo(port)) {
    if (fd_ >= 0) SendAll(fd_, std::string(net::kWirePreface));
  }
  ~BinaryClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool ok() const { return fd_ >= 0; }

  bool SendFrame(net::FrameType type, const std::string& payload) {
    std::string out;
    net::AppendWireFrame(&out, type, payload);
    return SendAll(fd_, out);
  }

  // Reads one complete frame; false on EOF/timeout.
  bool ReadFrame(net::WireFrame* frame) {
    while (true) {
      auto parsed = net::ParseWireFrame(rbuf_, 64 << 20);
      if (parsed.outcome == net::WireParseOutcome::kFrame) {
        *frame = std::move(parsed.frame);
        rbuf_.erase(0, parsed.consumed);
        return true;
      }
      if (parsed.outcome == net::WireParseOutcome::kError) return false;
      char buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      rbuf_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string rbuf_;
};

// --- fixture -------------------------------------------------------------

class DaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One shared sketch file for the whole suite.
    xml::Document doc = data::MakeBibliography();
    const core::FrozenSynopsis frozen(core::TwigXSketch::Coarsest(doc));
    sketch_path_ = new std::string(UniqueTempPath("daemon_test.xsk3"));
    ASSERT_TRUE(core::SaveFrozenToFile(frozen, *sketch_path_).ok());
  }

  // Each SetUpTestSuite (one per --gtest_repeat) makes a new file and
  // string; both go here.
  static void TearDownTestSuite() {
    std::remove(sketch_path_->c_str());
    delete sketch_path_;
    sketch_path_ = nullptr;
  }

  void TearDown() override {
    StopDaemon();
    xsketch::testing::FaultPoints::Default().DisarmAll();
  }

  void StartDaemon(daemon::DaemonOptions options) {
    options.server.port = 0;
    options.sketches.emplace_back("bib", *sketch_path_);
    auto created = daemon::Daemon::Create(std::move(options));
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    daemon_ = std::move(created).value();
    loop_ = std::thread([this] { daemon_->Run(); });
  }

  void StopDaemon() {
    if (daemon_ == nullptr) return;
    daemon_->Stop();
    if (loop_.joinable()) loop_.join();
    daemon_.reset();
  }

  uint16_t port() const { return daemon_->port(); }

  static std::string* sketch_path_;
  std::unique_ptr<daemon::Daemon> daemon_;
  std::thread loop_;
};

std::string* DaemonTest::sketch_path_ = nullptr;

// --- protocol correctness ------------------------------------------------

TEST_F(DaemonTest, HttpEndpoints) {
  StartDaemon({});
  auto health = HttpRoundTrip(port(), "GET", "/healthz", "");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"ok\""), std::string::npos);

  auto est = HttpRoundTrip(port(), "POST", "/estimate",
                           R"({"doc":"bib","query":"//book"})");
  ASSERT_EQ(est.status, 200) << est.body;
  EXPECT_NE(est.body.find("\"estimate\":"), std::string::npos);
  EXPECT_NE(est.body.find("\"generation\":1"), std::string::npos);

  auto batch = HttpRoundTrip(
      port(), "POST", "/batch",
      R"({"doc":"bib","queries":["//book","//book/author","//]bad"]})");
  ASSERT_EQ(batch.status, 200) << batch.body;
  EXPECT_NE(batch.body.find("\"results\":["), std::string::npos);
  EXPECT_NE(batch.body.find("\"error\":"), std::string::npos);
  EXPECT_NE(batch.body.find("\"failed\":1"), std::string::npos);

  auto explain = HttpRoundTrip(port(), "POST", "/explain",
                               R"({"doc":"bib","query":"//book"})");
  ASSERT_EQ(explain.status, 200) << explain.body;
  EXPECT_NE(explain.body.find("\"terms\":"), std::string::npos);
  EXPECT_NE(explain.body.find("\"plan\":"), std::string::npos);

  auto metrics = HttpRoundTrip(port(), "GET", "/metrics", "");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("xsketch_daemon_requests_total"),
            std::string::npos);

  // Error statuses: wrong doc, bad query, bad body, unknown path, wrong
  // method.
  EXPECT_EQ(HttpRoundTrip(port(), "POST", "/estimate",
                          R"({"doc":"nope","query":"//book"})")
                .status,
            404);
  EXPECT_EQ(HttpRoundTrip(port(), "POST", "/estimate",
                          R"({"doc":"bib","query":"//]bad"})")
                .status,
            400);
  EXPECT_EQ(HttpRoundTrip(port(), "POST", "/estimate", "not json").status,
            400);
  EXPECT_EQ(HttpRoundTrip(port(), "GET", "/nope", "").status, 404);
  EXPECT_EQ(HttpRoundTrip(port(), "GET", "/estimate", "").status, 405);
}

TEST_F(DaemonTest, HttpEstimateMatchesDirectExecution) {
  StartDaemon({});
  auto resp = HttpRoundTrip(port(), "POST", "/estimate",
                            R"({"doc":"bib","query":"//book/author"})");
  ASSERT_EQ(resp.status, 200);

  // The same query straight through the catalog handle.
  auto handle = daemon_->catalog().Get("bib");
  ASSERT_TRUE(handle.ok());
  auto plan = handle.value().Prepare(std::string("//book/author"));
  ASSERT_TRUE(plan.ok());
  std::string expected = "{\"estimate\":";
  net::AppendJsonNumber(&expected, plan.value()->Execute());
  EXPECT_EQ(resp.body.compare(0, expected.size(), expected), 0)
      << resp.body << " vs " << expected;
}

TEST_F(DaemonTest, BinaryProtocol) {
  StartDaemon({});
  BinaryClient client(port());
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client.SendFrame(net::FrameType::kPing, ""));
  net::WireFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kPong));

  net::WireEstimateRequest est;
  est.doc = "bib";
  est.query = "//book";
  ASSERT_TRUE(client.SendFrame(net::FrameType::kEstimate,
                               net::EncodeEstimateRequest(est)));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kEstimateOk));
  auto estimate = net::DecodeEstimateOk(frame.payload);
  ASSERT_TRUE(estimate.ok());
  EXPECT_GT(estimate.value(), 0.0);

  net::WireBatchRequest batch;
  batch.doc = "bib";
  batch.queries = {"//book", "//]bad", "//book/author"};
  ASSERT_TRUE(client.SendFrame(net::FrameType::kBatch,
                               net::EncodeBatchRequest(batch)));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kBatchOk));
  auto decoded = net::DecodeBatchResponse(frame.payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.value().results.size(), 3u);
  EXPECT_TRUE(decoded.value().results[0].ok);
  EXPECT_FALSE(decoded.value().results[1].ok);
  EXPECT_EQ(decoded.value().results[1].code, net::NackCode::kBadRequest);
  EXPECT_TRUE(decoded.value().results[2].ok);

  // Unknown doc: explicit NACK, connection stays usable.
  est.doc = "nope";
  ASSERT_TRUE(client.SendFrame(net::FrameType::kEstimate,
                               net::EncodeEstimateRequest(est)));
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kNack));
  auto nack = net::DecodeNack(frame.payload);
  ASSERT_TRUE(nack.ok());
  EXPECT_EQ(nack.value().first, net::NackCode::kNotFound);

  ASSERT_TRUE(client.SendFrame(net::FrameType::kPing, ""));
  ASSERT_TRUE(client.ReadFrame(&frame));
  EXPECT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kPong));
}

TEST_F(DaemonTest, RequestSizeLimits) {
  daemon::DaemonOptions options;
  options.server.max_request_bytes = 4096;
  StartDaemon(std::move(options));

  const std::string huge(1 << 20, 'x');
  auto resp = HttpRoundTrip(port(), "POST", "/estimate", huge);
  EXPECT_EQ(resp.status, 413);

  BinaryClient client(port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.SendFrame(net::FrameType::kEstimate, huge));
  net::WireFrame frame;
  ASSERT_TRUE(client.ReadFrame(&frame));
  ASSERT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kNack));
  auto nack = net::DecodeNack(frame.payload);
  ASSERT_TRUE(nack.ok());
  EXPECT_EQ(nack.value().first, net::NackCode::kBadRequest);
}

// Every document is served by its catalog generation's one-thread
// service, on the daemon worker that admitted the request: serving more
// documents never adds threads.
TEST_F(DaemonTest, ServingManyDocumentsAddsNoThreads) {
  daemon::DaemonOptions options;
  options.worker_threads = 2;
  std::vector<std::string> docs = {"bib"};  // StartDaemon adds "bib"
  for (int d = 0; d < 8; ++d) {
    docs.push_back("doc" + std::to_string(d));
    options.sketches.emplace_back(docs.back(), *sketch_path_);
  }
  StartDaemon(std::move(options));
  // Create's workers plus this test's event-loop thread, once the count
  // holds still.
  const size_t threads = SettledThreadCount();

  for (const std::string& doc : docs) {
    auto resp = HttpRoundTrip(
        port(), "POST", "/batch",
        R"({"doc":")" + doc + R"(","queries":["//book","//book/author"]})");
    EXPECT_EQ(resp.status, 200) << doc << ": " << resp.body;
    BinaryClient client(port());
    ASSERT_TRUE(client.ok());
    net::WireBatchRequest req;
    req.doc = doc;
    req.queries = {"//book", "//article"};
    ASSERT_TRUE(
        client.SendFrame(net::FrameType::kBatch, net::EncodeBatchRequest(req)));
    net::WireFrame frame;
    ASSERT_TRUE(client.ReadFrame(&frame));
    EXPECT_EQ(frame.type, static_cast<uint8_t>(net::FrameType::kBatchOk));
  }
  EXPECT_EQ(ProcessThreadCount(), threads);
}

// --- deadlines -----------------------------------------------------------

TEST_F(DaemonTest, DeadlineExpiredInQueueAnswers504) {
  daemon::DaemonOptions options;
  options.worker_threads = 1;
  StartDaemon(std::move(options));

  // Every handler sleeps 80ms; with one worker, a burst guarantees that
  // later requests outlive a 1ms deadline while queued.
  xsketch::testing::FaultPoints::Config slow;
  slow.delay_ms = 80;
  xsketch::testing::FaultPoints::Default().Arm("daemon.slow_handler", slow);

  std::vector<std::thread> threads;
  std::atomic<int> expired{0};
  std::atomic<int> served{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([this, &expired, &served] {
      auto resp = HttpRoundTrip(
          port(), "POST", "/estimate",
          R"({"doc":"bib","query":"//book","deadline_ms":1})");
      if (resp.status == 504) expired.fetch_add(1);
      if (resp.status == 200) served.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // The first request may start before its deadline passes; everything
  // behind it in the queue must answer 504 — never hang, never 200 after
  // the deadline was hopeless.
  EXPECT_GE(expired.load(), 3);
  EXPECT_EQ(expired.load() + served.load(), 4);
}

// Hostile HTTP deadlines: anything but an integer number of ms in
// [0, 2^32 - 1] (the XSKB u32 domain) answers 400 and counts as an error.
// Values this large used to overflow the steady-clock arithmetic.
TEST_F(DaemonTest, HostileDeadlinesAnswer400) {
  StartDaemon({});
  const uint64_t errors_before = daemon_->stats().errors;
  int rejected = 0;
  for (const char* deadline :
       {"1e13", "4294967296", "-5", "1.5", "\"10\"", "true",
        // Not JSON numbers at all (RFC 8259), though strtod takes them.
        "+1", ".5", "01", "1.", "[+2]"}) {
    const std::string body =
        std::string(R"({"doc":"bib","query":"//book","deadline_ms":)") +
        deadline + "}";
    auto resp = HttpRoundTrip(port(), "POST", "/estimate", body);
    EXPECT_EQ(resp.status, 400) << deadline << ": " << resp.body;
    ++rejected;
  }
  for (const char* header : {"10000000000000", "4294967296", "-1", "abc",
                             "12ms"}) {
    auto resp = HttpRoundTrip(
        port(), "POST", "/estimate", R"({"doc":"bib","query":"//book"})",
        std::string("X-Deadline-Ms: ") + header + "\r\n");
    EXPECT_EQ(resp.status, 400) << header << ": " << resp.body;
    ++rejected;
  }
  EXPECT_EQ(daemon_->stats().errors - errors_before,
            static_cast<uint64_t>(rejected));

  // The edges of the domain are served.
  EXPECT_EQ(HttpRoundTrip(
                port(), "POST", "/estimate",
                R"({"doc":"bib","query":"//book","deadline_ms":4294967295})")
                .status,
            200);
  EXPECT_EQ(HttpRoundTrip(port(), "POST", "/estimate",
                          R"({"doc":"bib","query":"//book","deadline_ms":0})")
                .status,
            200);
  EXPECT_EQ(HttpRoundTrip(port(), "POST", "/estimate",
                          R"({"doc":"bib","query":"//book"})",
                          "X-Deadline-Ms: 4294967295\r\n")
                .status,
            200);
}

// Replays an explain tree rendered by ExplainTrace::ToJson into `trace`.
void ReplayExplainJson(const net::JsonValue& node, obs::ExplainTrace* trace) {
  static const std::map<std::string, obs::ExplainOp> kOps = {
      {"leaf", obs::ExplainOp::kLeaf},
      {"sum", obs::ExplainOp::kSum},
      {"product", obs::ExplainOp::kProduct},
      {"existential", obs::ExplainOp::kExistential},
      {"opaque", obs::ExplainOp::kOpaque}};
  const std::string& op = *node.FindString("op");
  const std::string& kind = *node.FindString("kind");
  const std::string& label = *node.FindString("label");
  const double value = *node.FindNumber("value");
  const double* t = node.FindNumber("twig_node");
  const int twig_node = t != nullptr ? static_cast<int>(*t) : -1;
  if (op == "leaf") {
    trace->Leaf(kind, label, value, twig_node);
    return;
  }
  trace->Open(kOps.at(op), kind, label, twig_node);
  if (const double* b = node.FindNumber("buckets")) {
    trace->AnnotateBuckets(static_cast<int>(*b));
  }
  if (const double* d = node.FindNumber("conditioned")) {
    trace->AnnotateConditioned(static_cast<int>(*d));
  }
  if (const net::JsonValue* children = node.Find("children")) {
    for (const net::JsonValue& c : children->array()) {
      ReplayExplainJson(c, trace);
    }
  }
  trace->Close(value);
}

// /explain on the mmap'd sketch the daemon serves returns the full E/U/D
// tree beside its counters; the tree's root value, its recomputation, and
// the recomputed extent sum all equal /estimate's estimate bit for bit.
TEST_F(DaemonTest, ExplainReturnsFullTreeOnMappedSketch) {
  StartDaemon({});
  for (const char* query :
       {"//author[book]/paper", "//author/paper/keyword",
        "//paper[year>2000]/title"}) {
    const std::string body =
        std::string(R"({"doc":"bib","query":")") + query + "\"}";
    auto est = HttpRoundTrip(port(), "POST", "/estimate", body);
    auto explain = HttpRoundTrip(port(), "POST", "/explain", body);
    ASSERT_EQ(est.status, 200) << est.body;
    ASSERT_EQ(explain.status, 200) << explain.body;
    auto est_json = net::ParseJson(est.body);
    auto explain_json = net::ParseJson(explain.body, /*max_depth=*/256);
    ASSERT_TRUE(est_json.ok() && explain_json.ok()) << explain.body;
    const double estimate = *est_json.value().FindNumber("estimate");

    // Every field of the counter-only response is still there.
    for (const char* field : {"estimate", "doc", "generation", "terms",
                              "plan", "trace"}) {
      EXPECT_NE(explain_json.value().Find(field), nullptr) << field;
    }
    EXPECT_TRUE(BitEqual(*explain_json.value().FindNumber("estimate"),
                         estimate));

    const net::JsonValue& tree = *explain_json.value().Find("trace");
    obs::ExplainTrace trace;
    ReplayExplainJson(tree, &trace);
    EXPECT_TRUE(BitEqual(trace.estimate(), estimate)) << query;
    EXPECT_TRUE(BitEqual(trace.Recompute(), estimate)) << query;
    // The root is the final clamp; re-derive the extent sum beneath it.
    obs::ExplainTrace extents;
    ReplayExplainJson(tree.Find("children")->array().at(0), &extents);
    EXPECT_TRUE(BitEqual(std::max(0.0, extents.Recompute()), estimate))
        << query;
    // Each query has a child step, so the tree reaches an E or U term.
    EXPECT_TRUE(explain.body.find("\"kind\":\"E\"") != std::string::npos ||
                explain.body.find("\"kind\":\"U\"") != std::string::npos)
        << query;
  }
}

TEST_F(DaemonTest, BatchDeadlinePropagatesToChunks) {
  // Service-level check of the chunk-boundary contract the daemon relies
  // on: an already-expired deadline abandons every chunk with explicit
  // DeadlineExceeded results and partial stats.
  xml::Document doc = data::MakeBibliography();
  auto frozen = std::make_shared<const core::FrozenSynopsis>(
      core::TwigXSketch::Coarsest(doc));
  service::ServiceOptions options;
  options.num_threads = 2;
  auto service = service::EstimationService::Create(frozen, options);
  ASSERT_TRUE(service.ok());

  auto twig = query::ParsePath("//book", frozen->tags());
  ASSERT_TRUE(twig.ok());
  std::vector<query::TwigQuery> queries(64, twig.value());

  service::BatchStats stats;
  auto results = service.value()->EstimateBatch(
      queries, &stats, service::EstimationService::Deadline(Clock::now()));
  ASSERT_EQ(results.size(), queries.size());
  EXPECT_TRUE(stats.deadline_exceeded);
  EXPECT_EQ(stats.abandoned, queries.size());
  EXPECT_EQ(stats.failed, 0u);  // abandoned is not failure
  for (const auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::StatusCode::kDeadlineExceeded);
  }

  // A generous deadline runs everything.
  auto all = service.value()->EstimateBatch(
      queries, &stats, Clock::now() + std::chrono::seconds(30));
  EXPECT_FALSE(stats.deadline_exceeded);
  EXPECT_EQ(stats.abandoned, 0u);
  for (const auto& r : all) EXPECT_TRUE(r.ok());
}

// --- overload torture ----------------------------------------------------

TEST_F(DaemonTest, OverloadShedsExplicitlyAndBoundsAcceptedTail) {
  daemon::DaemonOptions options;
  options.worker_threads = 2;
  options.admission_queue_limit = 4;
  StartDaemon(std::move(options));

  // 25ms per request, 2 workers => ~80 req/s capacity. 16 closed-loop
  // clients issuing back-to-back requests drive well over 2x that.
  xsketch::testing::FaultPoints::Config slow;
  slow.delay_ms = 25;
  xsketch::testing::FaultPoints::Default().Arm("daemon.slow_handler", slow);

  constexpr int kClients = 16;
  constexpr int kPerClient = 8;
  std::atomic<int> ok_http{0}, shed_http{0}, ok_bin{0}, shed_bin{0};
  std::atomic<int> other{0};
  std::vector<double> accepted_ms[kClients];
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &ok_http, &shed_http, &ok_bin, &shed_bin,
                          &other, &accepted_ms] {
      if (c % 2 == 0) {
        for (int i = 0; i < kPerClient; ++i) {
          const auto start = Clock::now();
          auto resp = HttpRoundTrip(port(), "POST", "/estimate",
                                    R"({"doc":"bib","query":"//book"})");
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count();
          if (resp.status == 200) {
            ok_http.fetch_add(1);
            accepted_ms[c].push_back(ms);
          } else if (resp.status == 429) {
            shed_http.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      } else {
        BinaryClient client(port());
        if (!client.ok()) {
          other.fetch_add(kPerClient);
          return;
        }
        net::WireEstimateRequest est;
        est.doc = "bib";
        est.query = "//book";
        const std::string payload = net::EncodeEstimateRequest(est);
        for (int i = 0; i < kPerClient; ++i) {
          const auto start = Clock::now();
          if (!client.SendFrame(net::FrameType::kEstimate, payload)) {
            other.fetch_add(1);
            break;
          }
          net::WireFrame frame;
          if (!client.ReadFrame(&frame)) {
            other.fetch_add(1);
            break;
          }
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count();
          if (frame.type == static_cast<uint8_t>(net::FrameType::kEstimateOk)) {
            ok_bin.fetch_add(1);
            accepted_ms[c].push_back(ms);
          } else if (frame.type ==
                     static_cast<uint8_t>(net::FrameType::kNack)) {
            auto nack = net::DecodeNack(frame.payload);
            ASSERT_TRUE(nack.ok());
            EXPECT_EQ(nack.value().first, net::NackCode::kOverload);
            shed_bin.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every request got an explicit answer — success or overload, no
  // resets, no hangs, no silent drops.
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok_http.load() + shed_http.load() + ok_bin.load() +
                shed_bin.load(),
            kClients * kPerClient);
  // At 2x+ saturation both protocols must shed some and serve some.
  EXPECT_GT(shed_http.load() + shed_bin.load(), 0);
  EXPECT_GT(ok_http.load() + ok_bin.load(), 0);
  EXPECT_EQ(daemon_->stats().shed,
            static_cast<uint64_t>(shed_http.load() + shed_bin.load()));

  // Accepted latency is bounded by queue depth x handler time, not by
  // the offered load: limit 4 + 2 running + self = 7 x 25ms plus
  // overhead. 2s is an order of magnitude of slack for sanitizer builds.
  std::vector<double> all_ms;
  for (const auto& v : accepted_ms) {
    all_ms.insert(all_ms.end(), v.begin(), v.end());
  }
  ASSERT_FALSE(all_ms.empty());
  const double p99 = util::Percentile(all_ms, 0.99);
  EXPECT_LT(p99, 2000.0) << "accepted p99 " << p99 << "ms";
}

// Each daemon's stats() counts only its own requests; the registry's
// xsketch_daemon_*_total series sum them over every daemon.
TEST_F(DaemonTest, StatsArePerDaemon) {
  const uint64_t requests_before =
      CounterSeries("xsketch_daemon_requests_total");
  const uint64_t shed_before = CounterSeries("xsketch_daemon_shed_total");
  daemon::DaemonOptions busy;
  busy.worker_threads = 1;
  busy.admission_queue_limit = 1;
  StartDaemon(std::move(busy));
  daemon::DaemonOptions idle_options;
  idle_options.server.port = 0;
  idle_options.sketches.emplace_back("bib", *sketch_path_);
  auto idle = daemon::Daemon::Create(std::move(idle_options));
  ASSERT_TRUE(idle.ok()) << idle.status().ToString();
  std::thread idle_loop([&idle] { idle.value()->Run(); });

  // One worker, one queue slot, 20 ms per request: four closed-loop
  // clients overflow the busy daemon's queue within a few requests.
  xsketch::testing::FaultPoints::Config slow;
  slow.delay_ms = 20;
  xsketch::testing::FaultPoints::Default().Arm("daemon.slow_handler", slow);
  std::atomic<bool> shed{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([this, &shed] {
      for (int i = 0; i < 100 && !shed.load(); ++i) {
        auto resp = HttpRoundTrip(port(), "POST", "/estimate",
                                  R"({"doc":"bib","query":"//book"})");
        if (resp.status == 429) shed.store(true);
      }
    });
  }
  for (auto& t : clients) t.join();

  const daemon::Daemon::Stats busy_stats = daemon_->stats();
  const daemon::Daemon::Stats idle_stats = idle.value()->stats();
  idle.value()->Stop();
  idle_loop.join();

  EXPECT_TRUE(shed.load());
  EXPECT_GT(busy_stats.shed, 0u);
  EXPECT_EQ(idle_stats.shed, 0u);
  EXPECT_EQ(idle_stats.requests, 0u);
  EXPECT_EQ(CounterSeries("xsketch_daemon_shed_total") - shed_before,
            busy_stats.shed);
  EXPECT_EQ(CounterSeries("xsketch_daemon_requests_total") - requests_before,
            busy_stats.requests);
}

// --- graceful drain under load ------------------------------------------

TEST_F(DaemonTest, DrainUnderLoadFinishesInFlightAndReturns) {
  daemon::DaemonOptions options;
  options.worker_threads = 2;
  options.server.drain_grace_ms = 5000;
  StartDaemon(std::move(options));

  xsketch::testing::FaultPoints::Config slow;
  slow.delay_ms = 20;
  xsketch::testing::FaultPoints::Default().Arm("daemon.slow_handler", slow);

  std::atomic<bool> stop_load{false};
  std::atomic<int> answered{0}, refused{0}, transport{0};
  std::vector<std::thread> load;
  for (int c = 0; c < 6; ++c) {
    load.emplace_back([this, &stop_load, &answered, &refused, &transport] {
      while (!stop_load.load()) {
        auto resp = HttpRoundTrip(port(), "POST", "/estimate",
                                  R"({"doc":"bib","query":"//book"})");
        if (resp.status == 200 || resp.status == 429) {
          answered.fetch_add(1);
        } else if (resp.status == 503) {
          refused.fetch_add(1);  // explicit draining response
        } else {
          transport.fetch_add(1);  // connection refused/closed post-drain
        }
      }
    });
  }

  // Let the load ramp, then drain exactly the way the SIGTERM handler
  // does: one byte down the drain pipe.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const char byte = 'd';
  ASSERT_EQ(::write(daemon_->drain_fd(), &byte, 1), 1);

  const auto drain_start = Clock::now();
  loop_.join();  // Run() must return on its own
  const double drain_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - drain_start)
          .count();
  EXPECT_LT(drain_ms, 5000.0) << "drain took " << drain_ms << "ms";

  stop_load.store(true);
  for (auto& t : load) t.join();

  EXPECT_GT(answered.load(), 0);
  // In-flight work was answered, not dropped: the daemon counts every
  // dispatched request, and whatever it admitted it finished within the
  // grace (checked by Run() returning without force-closes above).
  daemon_.reset();
}

TEST_F(DaemonTest, HotSwapWhileServing) {
  StartDaemon({});
  auto before = HttpRoundTrip(port(), "POST", "/estimate",
                              R"({"doc":"bib","query":"//book"})");
  ASSERT_EQ(before.status, 200);
  EXPECT_NE(before.body.find("\"generation\":1"), std::string::npos);

  ASSERT_TRUE(daemon_->AddSketch("bib", *sketch_path_).ok());
  auto after = HttpRoundTrip(port(), "POST", "/estimate",
                             R"({"doc":"bib","query":"//book"})");
  ASSERT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("\"generation\":2"), std::string::npos);

  // A swap whose load fails keeps the current generation serving.
  xsketch::testing::FaultPoints::Default().Arm("mmap_file.mmap");
  EXPECT_FALSE(daemon_->AddSketch("bib", *sketch_path_).ok());
  xsketch::testing::FaultPoints::Default().DisarmAll();
  auto still = HttpRoundTrip(port(), "POST", "/estimate",
                             R"({"doc":"bib","query":"//book"})");
  ASSERT_EQ(still.status, 200);
  EXPECT_NE(still.body.find("\"generation\":2"), std::string::npos);
}

}  // namespace
}  // namespace xsketch
