#include "daemon/daemon.h"

#include <chrono>
#include <string_view>
#include <thread>

#include "net/json.h"
#include "obs/explain.h"
#include "query/xpath_parser.h"
#include "testing/faultpoints.h"

namespace xsketch::daemon {

namespace {

using Clock = std::chrono::steady_clock;

// The two surface syntaxes (query/xpath_parser.h): a for-clause always
// contains " in " (variable binding), a path never does.
bool IsForClause(std::string_view text) {
  return text.find(" in ") != std::string_view::npos;
}

// Parses a query in either surface syntax.
util::Result<query::TwigQuery> ParseQueryText(
    const std::string& text, const util::StringInterner& tags) {
  if (IsForClause(text)) return query::ParseForClause(text, tags);
  return query::ParsePath(text, tags);
}

// Prepares a query in either surface syntax. Path texts go through the
// service's text-keyed Prepare, so a repeated path is not parsed again;
// for-clauses are parsed, then prepared as twigs.
util::Result<std::shared_ptr<const core::CompiledTwig>> PrepareQueryText(
    const service::EstimationService& service, const std::string& text) {
  if (!IsForClause(text)) return service.Prepare(std::string_view(text));
  auto twig = query::ParseForClause(text, service.tags());
  if (!twig.ok()) return twig.status();
  return service.Prepare(twig.value());
}

std::string JsonError(const std::string& message) {
  std::string body = "{\"error\":";
  net::AppendJsonString(&body, message);
  body += "}\n";
  return body;
}

net::ServerResponse HttpError(int status, const std::string& message) {
  net::ServerResponse resp;
  resp.status = status;
  resp.body = JsonError(message);
  return resp;
}

net::ServerResponse BinaryNack(net::NackCode code,
                               const std::string& message) {
  net::ServerResponse resp;
  resp.frame_type = net::FrameType::kNack;
  resp.body = net::EncodeNack(code, message);
  return resp;
}

// Maps a util::Status from the estimation path onto the two protocols.
int HttpStatusFor(const util::Status& s) {
  switch (s.code()) {
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kParseError:
      return 400;
    case util::StatusCode::kNotFound:
      return 404;
    case util::StatusCode::kDeadlineExceeded:
      return 504;
    case util::StatusCode::kUnavailable:
      return 503;
    default:
      return 500;
  }
}

net::NackCode NackCodeFor(const util::Status& s) {
  switch (s.code()) {
    case util::StatusCode::kInvalidArgument:
    case util::StatusCode::kParseError:
      return net::NackCode::kBadRequest;
    case util::StatusCode::kNotFound:
      return net::NackCode::kNotFound;
    case util::StatusCode::kDeadlineExceeded:
      return net::NackCode::kDeadline;
    case util::StatusCode::kUnavailable:
      return net::NackCode::kShuttingDown;
    default:
      return net::NackCode::kInternal;
  }
}

net::ServerResponse ErrorResponse(const util::Status& s, bool binary) {
  if (binary) return BinaryNack(NackCodeFor(s), s.message());
  return HttpError(HttpStatusFor(s), s.message());
}

// An HTTP deadline is an integer number of milliseconds in
// [0, kMaxDeadlineMs], the domain of the XSKB frame's u32 field. Larger
// values would overflow the clock arithmetic in DeadlineFrom.
constexpr uint64_t kMaxDeadlineMs = 0xFFFFFFFFu;

// The "deadline_ms" JSON member; false unless an in-range integer.
bool ParseJsonDeadline(const net::JsonValue& v, uint64_t* ms) {
  if (v.kind() != net::JsonValue::Kind::kNumber) return false;
  const double d = v.number_value();
  if (!(d >= 0.0 && d <= static_cast<double>(kMaxDeadlineMs)) ||
      d != static_cast<double>(static_cast<uint64_t>(d))) {
    return false;
  }
  *ms = static_cast<uint64_t>(d);
  return true;
}

// The X-Deadline-Ms header; false unless all digits and in range.
bool ParseHeaderDeadline(const std::string& text, uint64_t* ms) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
    if (v > kMaxDeadlineMs) return false;
  }
  *ms = v;
  return true;
}

}  // namespace

util::Status DaemonOptions::Validate() const {
  if (util::Status s = server.Validate(); !s.ok()) return s;
  if (worker_threads < 0) {
    return util::Status::InvalidArgument("worker_threads must be >= 0");
  }
  if (admission_queue_limit == 0) {
    return util::Status::InvalidArgument(
        "admission_queue_limit must be >= 1");
  }
  if (default_deadline_ms < 0) {
    return util::Status::InvalidArgument("default_deadline_ms must be >= 0");
  }
  return util::Status::OK();
}

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  auto& reg = obs::MetricsRegistry::Default();
  metrics_.queue_depth = &reg.GetGauge(
      "xsketch_daemon_queue_depth",
      "Admission queue depth observed at the last dispatch");
  metrics_.handler_us = &reg.GetHistogram(
      "xsketch_daemon_handler_us", obs::LatencyBucketsUs(),
      "Handler execution time (admission to response post), microseconds");
}

Daemon::~Daemon() {
  // Join workers before the server/services they hold Responders and
  // shared_ptrs into are torn down.
  if (pool_) pool_->Shutdown();
}

util::Result<std::unique_ptr<Daemon>> Daemon::Create(DaemonOptions options) {
  if (util::Status s = options.Validate(); !s.ok()) return s;
  std::unique_ptr<Daemon> daemon(new Daemon(std::move(options)));

  service::CatalogOptions catalog_options;
  catalog_options.byte_budget = daemon->options_.catalog_byte_budget;
  auto catalog = service::SketchCatalog::Create(catalog_options);
  if (!catalog.ok()) return catalog.status();
  daemon->catalog_ = std::move(catalog).value();

  for (const auto& [doc_id, path] : daemon->options_.sketches) {
    if (util::Status s = daemon->AddSketch(doc_id, path); !s.ok()) {
      return util::Status::Internal("loading sketch '" + doc_id +
                                    "' from " + path + ": " + s.message());
    }
  }

  const int workers = daemon->options_.worker_threads > 0
                          ? daemon->options_.worker_threads
                          : util::ThreadPool::HardwareThreads();
  daemon->pool_ = std::make_unique<util::ThreadPool>(workers);

  Daemon* self = daemon.get();
  auto server = net::Server::Create(
      daemon->options_.server,
      [self](net::ServerRequest&& request, net::Responder responder) {
        self->Dispatch(std::move(request), std::move(responder));
      });
  if (!server.ok()) return server.status();
  daemon->server_ = std::move(server).value();
  return daemon;
}

void Daemon::Run() { server_->Run(); }

util::Status Daemon::AddSketch(const std::string& doc_id,
                               const std::string& path) {
  // The new generation brings its own service; in-flight requests keep
  // the old handle (service, plan cache, mapping) alive until they finish.
  return catalog_->Put(doc_id, path).status();
}

Daemon::Stats Daemon::stats() const {
  Stats s;
  s.requests = metrics_.requests.value();
  s.shed = metrics_.shed.value();
  s.deadline_expired = metrics_.deadline_expired.value();
  s.errors = metrics_.errors.value();
  return s;
}

std::optional<Clock::time_point> Daemon::DeadlineFrom(
    uint64_t deadline_ms) const {
  if (deadline_ms == 0 && options_.default_deadline_ms > 0) {
    deadline_ms = static_cast<uint64_t>(options_.default_deadline_ms);
  }
  if (deadline_ms == 0) return std::nullopt;
  return Clock::now() + std::chrono::milliseconds(deadline_ms);
}

void Daemon::Dispatch(net::ServerRequest&& request,
                      net::Responder responder) {
  metrics_.requests.Increment();
  if (request.proto == net::ServerRequest::Proto::kHttp) {
    DispatchHttp(std::move(request.http), std::move(responder));
  } else {
    DispatchBinary(std::move(request.frame), std::move(responder));
  }
}

void Daemon::Admit(std::function<void()> work, net::Responder responder,
                   bool binary) {
  if (draining()) {
    // The server already stops reading during drain, but requests parsed
    // in the same loop iteration as the drain signal can still arrive.
    metrics_.errors.Increment();
    responder.Send(ErrorResponse(
        util::Status::Unavailable("server is draining"), binary));
    return;
  }
  const bool admitted =
      pool_->TrySubmit(std::move(work), options_.admission_queue_limit);
  metrics_.queue_depth->Set(static_cast<int64_t>(pool_->queue_depth()));
  if (admitted) return;
  metrics_.shed.Increment();
  if (binary) {
    responder.Send(BinaryNack(net::NackCode::kOverload,
                              "admission queue full; retry later"));
  } else {
    net::ServerResponse resp =
        HttpError(429, "admission queue full; retry later");
    resp.extra_headers.emplace_back("Retry-After", "1");
    responder.Send(std::move(resp));
  }
}

void Daemon::DispatchHttp(net::HttpRequest&& request,
                          net::Responder responder) {
  // Inline endpoints: read-only, microseconds, no admission.
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      responder.Send(HttpError(405, "healthz is GET-only"));
      return;
    }
    net::ServerResponse resp;
    resp.body = std::string("{\"status\":\"") +
                (draining() ? "draining" : "ok") + "\",\"sketches\":" +
                std::to_string(catalog_->stats().sketches) + "}\n";
    responder.Send(std::move(resp));
    return;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      responder.Send(HttpError(405, "metrics is GET-only"));
      return;
    }
    // Publish the server/pool gauges the loop thread owns, then render.
    metrics_.queue_depth->Set(static_cast<int64_t>(pool_->queue_depth()));
    net::ServerResponse resp;
    resp.content_type = "text/plain; version=0.0.4";
    resp.body = obs::MetricsRegistry::Default().ToPrometheusText();
    responder.Send(std::move(resp));
    return;
  }

  if (request.path != "/estimate" && request.path != "/batch" &&
      request.path != "/explain") {
    metrics_.errors.Increment();
    responder.Send(HttpError(404, "unknown endpoint " + request.path));
    return;
  }
  if (request.method != "POST") {
    metrics_.errors.Increment();
    responder.Send(HttpError(405, request.path + " is POST-only"));
    return;
  }

  auto parsed = net::ParseJson(request.body);
  if (!parsed.ok()) {
    metrics_.errors.Increment();
    responder.Send(HttpError(400, "request body: " +
                                      parsed.status().message()));
    return;
  }
  const net::JsonValue& body = parsed.value();
  const std::string* doc = body.FindString("doc");
  if (doc == nullptr) {
    metrics_.errors.Increment();
    responder.Send(HttpError(400, "missing string field 'doc'"));
    return;
  }

  // Deadline: a non-zero JSON field beats the X-Deadline-Ms header.
  uint64_t deadline_ms = 0;
  if (const net::JsonValue* v = body.Find("deadline_ms");
      v != nullptr && !ParseJsonDeadline(*v, &deadline_ms)) {
    metrics_.errors.Increment();
    responder.Send(HttpError(
        400, "'deadline_ms' must be an integer in [0, 4294967295]"));
    return;
  }
  if (const std::string* h = request.Header("x-deadline-ms");
      deadline_ms == 0 && h != nullptr &&
      !ParseHeaderDeadline(*h, &deadline_ms)) {
    metrics_.errors.Increment();
    responder.Send(HttpError(
        400, "X-Deadline-Ms must be an integer in [0, 4294967295]"));
    return;
  }
  const std::optional<Clock::time_point> deadline = DeadlineFrom(deadline_ms);

  if (request.path == "/batch") {
    const net::JsonValue* queries = body.Find("queries");
    if (queries == nullptr ||
        queries->kind() != net::JsonValue::Kind::kArray) {
      metrics_.errors.Increment();
      responder.Send(HttpError(400, "missing array field 'queries'"));
      return;
    }
    std::vector<std::string> texts;
    texts.reserve(queries->array().size());
    for (const net::JsonValue& q : queries->array()) {
      if (q.kind() != net::JsonValue::Kind::kString) {
        metrics_.errors.Increment();
        responder.Send(HttpError(400, "'queries' must be strings"));
        return;
      }
      texts.push_back(q.string_value());
    }
    Admit(
        [this, doc = *doc, texts = std::move(texts), deadline, responder] {
          HandleBatch(doc, std::move(texts), deadline, responder,
                      /*binary=*/false);
        },
        responder, /*binary=*/false);
    return;
  }

  const std::string* query = body.FindString("query");
  if (query == nullptr) {
    metrics_.errors.Increment();
    responder.Send(HttpError(400, "missing string field 'query'"));
    return;
  }
  if (request.path == "/explain") {
    Admit([this, doc = *doc, query = *query,
           responder] { HandleExplain(doc, query, responder); },
          responder, /*binary=*/false);
    return;
  }
  Admit(
      [this, doc = *doc, query = *query, deadline, responder] {
        HandleEstimate(doc, query, deadline, responder, /*binary=*/false);
      },
      responder, /*binary=*/false);
}

void Daemon::DispatchBinary(net::WireFrame&& frame,
                            net::Responder responder) {
  const auto type = static_cast<net::FrameType>(frame.type);
  if (type == net::FrameType::kPing) {
    net::ServerResponse resp;
    resp.frame_type = net::FrameType::kPong;
    responder.Send(std::move(resp));
    return;
  }
  if (type == net::FrameType::kEstimate) {
    auto req = net::DecodeEstimateRequest(frame.payload);
    if (!req.ok()) {
      metrics_.errors.Increment();
      responder.Send(
          BinaryNack(net::NackCode::kBadRequest, req.status().message()));
      return;
    }
    const std::optional<Clock::time_point> deadline =
        DeadlineFrom(req.value().deadline_ms);
    Admit(
        [this, doc = std::move(req.value().doc),
         query = std::move(req.value().query), deadline, responder] {
          HandleEstimate(doc, query, deadline, responder, /*binary=*/true);
        },
        responder, /*binary=*/true);
    return;
  }
  if (type == net::FrameType::kBatch) {
    auto req = net::DecodeBatchRequest(frame.payload);
    if (!req.ok()) {
      metrics_.errors.Increment();
      responder.Send(
          BinaryNack(net::NackCode::kBadRequest, req.status().message()));
      return;
    }
    const std::optional<Clock::time_point> deadline =
        DeadlineFrom(req.value().deadline_ms);
    Admit(
        [this, doc = std::move(req.value().doc),
         queries = std::move(req.value().queries), deadline, responder] {
          HandleBatch(doc, std::move(queries), deadline, responder,
                      /*binary=*/true);
        },
        responder, /*binary=*/true);
    return;
  }
  metrics_.errors.Increment();
  responder.Send(BinaryNack(
      net::NackCode::kBadRequest,
      "unknown frame type " + std::to_string(frame.type)));
}

void Daemon::HandleEstimate(const std::string& doc, const std::string& query,
                            std::optional<Clock::time_point> deadline,
                            net::Responder responder, bool binary) {
  const auto start = Clock::now();
  if (const int ms = XS_FAULT_DELAY_MS("daemon.slow_handler"); ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (deadline.has_value() && Clock::now() >= *deadline) {
    metrics_.deadline_expired.Increment();
    responder.Send(ErrorResponse(
        util::Status::DeadlineExceeded(
            "deadline passed while queued for admission"),
        binary));
    return;
  }
  auto handle = catalog_->Get(doc);
  if (!handle.ok()) {
    metrics_.errors.Increment();
    responder.Send(ErrorResponse(handle.status(), binary));
    return;
  }
  auto plan = PrepareQueryText(handle.value().service(), query);
  if (!plan.ok()) {
    metrics_.errors.Increment();
    responder.Send(ErrorResponse(plan.status(), binary));
    return;
  }
  const double estimate = plan.value()->Execute();
  metrics_.handler_us->Observe(
      std::chrono::duration<double, std::micro>(Clock::now() - start)
          .count());

  net::ServerResponse resp;
  if (binary) {
    resp.frame_type = net::FrameType::kEstimateOk;
    resp.body = net::EncodeEstimateOk(estimate);
  } else {
    resp.body = "{\"estimate\":";
    net::AppendJsonNumber(&resp.body, estimate);
    resp.body += ",\"doc\":";
    net::AppendJsonString(&resp.body, doc);
    resp.body += ",\"generation\":" +
                 std::to_string(handle.value().generation()) + "}\n";
  }
  responder.Send(std::move(resp));
}

void Daemon::HandleBatch(const std::string& doc,
                         std::vector<std::string> queries,
                         std::optional<Clock::time_point> deadline,
                         net::Responder responder, bool binary) {
  const auto start = Clock::now();
  if (const int ms = XS_FAULT_DELAY_MS("daemon.slow_handler"); ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (deadline.has_value() && Clock::now() >= *deadline) {
    metrics_.deadline_expired.Increment();
    responder.Send(ErrorResponse(
        util::Status::DeadlineExceeded(
            "deadline passed while queued for admission"),
        binary));
    return;
  }
  auto handle = catalog_->Get(doc);
  if (!handle.ok()) {
    metrics_.errors.Increment();
    responder.Send(ErrorResponse(handle.status(), binary));
    return;
  }
  // One-thread service: the batch runs right here on the worker that
  // admitted it, so daemon threads never nest another pool.
  const service::EstimationService& service = handle.value().service();

  // Parse failures become per-query errors, exactly like the service's
  // own validation: one bad query never sinks the batch.
  std::vector<query::TwigQuery> twigs;
  twigs.reserve(queries.size());
  std::vector<util::Status> parse_errors(queries.size(), util::Status::OK());
  std::vector<size_t> twig_index(queries.size(), SIZE_MAX);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto twig = ParseQueryText(queries[i], service.tags());
    if (twig.ok()) {
      twig_index[i] = twigs.size();
      twigs.push_back(std::move(twig).value());
    } else {
      parse_errors[i] = twig.status();
    }
  }

  service::BatchStats stats;
  std::vector<util::Result<core::EstimateStats>> results;
  if (!twigs.empty()) {
    results = service.EstimateBatch(twigs, &stats, deadline);
  }

  metrics_.handler_us->Observe(
      std::chrono::duration<double, std::micro>(Clock::now() - start)
          .count());

  if (binary) {
    net::WireBatchResponse wire;
    wire.deadline_exceeded = stats.deadline_exceeded;
    wire.abandoned = static_cast<uint32_t>(stats.abandoned);
    wire.results.resize(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      net::WireBatchResult& out = wire.results[i];
      if (twig_index[i] == SIZE_MAX) {
        out.ok = false;
        out.code = net::NackCode::kBadRequest;
        out.error = parse_errors[i].message();
      } else {
        const auto& r = results[twig_index[i]];
        if (r.ok()) {
          out.ok = true;
          out.estimate = r.value().estimate;
        } else {
          out.ok = false;
          out.code = NackCodeFor(r.status());
          out.error = r.status().message();
        }
      }
    }
    net::ServerResponse resp;
    resp.frame_type = net::FrameType::kBatchOk;
    resp.body = net::EncodeBatchResponse(wire);
    responder.Send(std::move(resp));
    return;
  }

  std::string body = "{\"results\":[";
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i > 0) body += ",";
    if (twig_index[i] == SIZE_MAX) {
      body += "{\"error\":";
      net::AppendJsonString(&body, parse_errors[i].message());
      body += "}";
      continue;
    }
    const auto& r = results[twig_index[i]];
    if (r.ok()) {
      body += "{\"estimate\":";
      net::AppendJsonNumber(&body, r.value().estimate);
      body += "}";
    } else {
      body += "{\"error\":";
      net::AppendJsonString(&body, r.status().message());
      body += "}";
    }
  }
  body += "],\"deadline_exceeded\":";
  body += stats.deadline_exceeded ? "true" : "false";
  body += ",\"abandoned\":" + std::to_string(stats.abandoned);
  body += ",\"stats\":{\"wall_ms\":";
  net::AppendJsonNumber(&body, stats.wall_ms);
  body += ",\"p50_latency_us\":";
  net::AppendJsonNumber(&body, stats.p50_latency_us);
  body += ",\"p95_latency_us\":";
  net::AppendJsonNumber(&body, stats.p95_latency_us);
  body += ",\"failed\":" + std::to_string(stats.failed +
                                          (queries.size() - twigs.size()));
  body += "}}\n";
  net::ServerResponse resp;
  resp.body = std::move(body);
  responder.Send(std::move(resp));
}

void Daemon::HandleExplain(const std::string& doc, const std::string& query,
                           net::Responder responder) {
  if (const int ms = XS_FAULT_DELAY_MS("daemon.slow_handler"); ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  auto handle = catalog_->Get(doc);
  if (!handle.ok()) {
    metrics_.errors.Increment();
    responder.Send(ErrorResponse(handle.status(), /*binary=*/false));
    return;
  }
  auto plan = PrepareQueryText(handle.value().service(), query);
  if (!plan.ok()) {
    metrics_.errors.Increment();
    responder.Send(ErrorResponse(plan.status(), /*binary=*/false));
    return;
  }
  obs::ExplainTrace trace;
  const core::EstimateStats stats = plan.value()->ExecuteWithTrace(&trace);

  std::string body = "{\"estimate\":";
  net::AppendJsonNumber(&body, stats.estimate);
  body += ",\"doc\":";
  net::AppendJsonString(&body, doc);
  body += ",\"generation\":" + std::to_string(handle.value().generation());
  body += ",\"terms\":{";
  body += "\"covered\":" + std::to_string(stats.covered_terms);
  body += ",\"uniformity\":" + std::to_string(stats.uniformity_terms);
  body += ",\"conditioned\":" + std::to_string(stats.conditioned_nodes);
  body += ",\"value_fractions\":" + std::to_string(stats.value_fractions);
  body += ",\"existential\":" + std::to_string(stats.existential_terms);
  body += ",\"descendant_chains\":" +
          std::to_string(stats.descendant_chains);
  body += "},\"plan\":{";
  body += "\"plans\":" + std::to_string(plan.value()->plan_count());
  body += ",\"chains\":" + std::to_string(plan.value()->chain_count());
  body += ",\"steps\":" + std::to_string(plan.value()->step_count());
  body += ",\"roots\":" + std::to_string(plan.value()->root_count());
  body += ",\"path_length_cap\":" +
          std::to_string(plan.value()->path_length_cap());
  body += ",\"size_bytes\":" + std::to_string(plan.value()->SizeBytes());
  body += "},\"trace\":" + trace.ToJson();
  body += "}\n";
  net::ServerResponse resp;
  resp.body = std::move(body);
  responder.Send(std::move(resp));
}

}  // namespace xsketch::daemon
