#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace xsketch::obs {

namespace {

// Shortest round-trippable decimal form, matching what dashboards expect
// from a Prometheus exposition (no trailing zeros, no locale).
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  for (int prec = 1; prec <= 16; ++prec) {
    char trial[32];
    std::snprintf(trial, sizeof(trial), "%.*g", prec, v);
    std::sscanf(trial, "%lf", &parsed);
    if (parsed == v) return trial;
  }
  return buf;
}

void AppendJsonString(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  XS_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
               "histogram bucket bounds must be ascending");
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::Observe(double x, uint64_t trace_id) {
  const size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  if (trace_id != 0) {
    // Traced observations are sampled and rare; the lock is effectively
    // uncontended and never taken for trace_id == 0.
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    if (exemplar_.trace_id == 0 || x > exemplar_.value) {
      exemplar_.value = x;
      exemplar_.trace_id = trace_id;
    }
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    s.count += s.counts[i];
  }
  s.sum = sum_.load(std::memory_order_relaxed);
  s.exemplar = exemplar();
  return s;
}

Histogram::Exemplar Histogram::exemplar() const {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  return exemplar_;
}

Histogram::Exemplar Histogram::TakeExemplar() {
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  Exemplar out = exemplar_;
  exemplar_ = Exemplar{};
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
  TakeExemplar();
}

double Histogram::Snapshot::Mean() const {
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= target) return bounds[i];
  }
  return bounds.back();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(std::string_view name,
                                                  Kind kind,
                                                  std::string_view help,
                                                  bool owned) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = kind;
    entry.help = std::string(help);
    entry.owned = owned;
    it = metrics_.emplace(std::string(name), std::move(entry)).first;
  }
  XS_CHECK_MSG(it->second.kind == kind && it->second.owned == owned,
               "metric re-registered with a different kind");
  return it->second;
}

Counter& MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, Kind::kCounter, help);
  if (!e.counter) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

OwnedCounter::OwnedCounter(std::string_view name, std::string_view help) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  std::lock_guard<std::mutex> lock(reg.mu_);
  entry_ = &reg.GetEntry(name, MetricsRegistry::Kind::kCounter, help,
                         /*owned=*/true);
  if (!entry_->counter) entry_->counter = std::make_unique<Counter>();
  entry_->owners.push_back(this);
}

OwnedCounter::~OwnedCounter() {
  // Under the registry lock, so a snapshot sees this owner either live or
  // folded in, never both or neither.
  std::lock_guard<std::mutex> lock(MetricsRegistry::Default().mu_);
  entry_->counter->Increment(value());
  auto it = std::find(entry_->owners.begin(), entry_->owners.end(), this);
  *it = entry_->owners.back();
  entry_->owners.pop_back();
}

Gauge& MetricsRegistry::GetGauge(std::string_view name,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, Kind::kGauge, help);
  if (!e.gauge) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<double> bounds,
                                         std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = GetEntry(name, Kind::kHistogram, help);
  if (!e.histogram) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

std::vector<MetricsRegistry::MetricSnapshot> MetricsRegistry::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, entry] : metrics_) {
    MetricSnapshot s;
    s.name = name;
    s.help = entry.help;
    s.kind = entry.kind;
    switch (entry.kind) {
      case Kind::kCounter:
        s.counter_value = entry.counter->value();
        for (auto* o : entry.owners) s.counter_value += o->value();
        break;
      case Kind::kGauge: s.gauge_value = entry.gauge->value(); break;
      case Kind::kHistogram: s.histogram = entry.histogram->snapshot(); break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSnapshot& m : Snapshot()) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":";
    AppendJsonString(out, m.name);
    out += ",\"kind\":";
    switch (m.kind) {
      case Kind::kCounter: out += "\"counter\""; break;
      case Kind::kGauge: out += "\"gauge\""; break;
      case Kind::kHistogram: out += "\"histogram\""; break;
    }
    if (!m.help.empty()) {
      out += ",\"help\":";
      AppendJsonString(out, m.help);
    }
    switch (m.kind) {
      case Kind::kCounter:
        out += ",\"value\":" + std::to_string(m.counter_value);
        break;
      case Kind::kGauge:
        out += ",\"value\":" + FormatDouble(m.gauge_value);
        break;
      case Kind::kHistogram: {
        out += ",\"count\":" + std::to_string(m.histogram.count);
        out += ",\"sum\":" + FormatDouble(m.histogram.sum);
        out += ",\"buckets\":[";
        for (size_t i = 0; i < m.histogram.counts.size(); ++i) {
          if (i > 0) out.push_back(',');
          out += "{\"le\":";
          if (i < m.histogram.bounds.size()) {
            out += FormatDouble(m.histogram.bounds[i]);
          } else {
            out += "\"+Inf\"";
          }
          out += ",\"count\":" + std::to_string(m.histogram.counts[i]) + "}";
        }
        out += "]";
        if (m.histogram.exemplar.trace_id != 0) {
          out += ",\"exemplar\":{\"value\":" +
                 FormatDouble(m.histogram.exemplar.value) +
                 ",\"trace_id\":" +
                 std::to_string(m.histogram.exemplar.trace_id) + "}";
        }
        break;
      }
    }
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsRegistry::ToPrometheusText() const {
  std::string out;
  for (const MetricSnapshot& m : Snapshot()) {
    if (!m.help.empty()) {
      out += "# HELP " + m.name + " " + m.help + "\n";
    }
    out += "# TYPE " + m.name + " ";
    switch (m.kind) {
      case Kind::kCounter:
        out += "counter\n";
        out += m.name + " " + std::to_string(m.counter_value) + "\n";
        break;
      case Kind::kGauge:
        out += "gauge\n";
        out += m.name + " " + FormatDouble(m.gauge_value) + "\n";
        break;
      case Kind::kHistogram: {
        out += "histogram\n";
        uint64_t cumulative = 0;
        for (size_t i = 0; i < m.histogram.counts.size(); ++i) {
          cumulative += m.histogram.counts[i];
          const std::string le =
              i < m.histogram.bounds.size()
                  ? FormatDouble(m.histogram.bounds[i])
                  : "+Inf";
          out += m.name + "_bucket{le=\"" + le + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += m.name + "_sum " + FormatDouble(m.histogram.sum) + "\n";
        out += m.name + "_count " + std::to_string(m.histogram.count) + "\n";
        break;
      }
    }
  }
  return out;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : metrics_) {
    (void)name;
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        for (OwnedCounter* o : entry.owners) o->value_.store(0);
        break;
      case Kind::kGauge: entry.gauge->Set(0.0); break;
      case Kind::kHistogram: entry.histogram->Reset(); break;
    }
  }
}

std::vector<double> LatencyBucketsUs() {
  return {1,    4,    16,    64,    256,    1024,
          4096, 16384, 65536, 262144, 1048576};
}

std::vector<double> DurationBucketsMs() {
  return {0.1, 0.4, 1.6, 6.4, 25.6, 102.4, 409.6, 1638.4, 6553.6, 26214.4,
          104857.6};
}

}  // namespace xsketch::obs
