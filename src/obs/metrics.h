// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms with relaxed-atomic hot paths.
//
// Every subsystem registers its metrics by name through
// MetricsRegistry::Default() (estimator query/term counters, service batch
// and latency metrics, XBUILD iteration counters, parser/serialize byte
// counters) and keeps the returned handle; recording is then a single
// relaxed atomic add with no lock and no lookup. Registration itself takes
// a mutex and is expected at construction boundaries only.
//
// An object that reports its own count of an event (a cache's lookups, a
// daemon's sheds) holds an OwnedCounter instead: the event is counted
// once, in its owner, and the registry reports the label-free series as
// the sum over live and destroyed owners.
//
// Snapshots (JSON and Prometheus-style text exposition) read every value
// with relaxed loads: each individual metric is internally consistent — a
// histogram's count is defined as the sum of its bucket counts, so it
// always equals the observations the snapshot saw — but relations
// *between* metrics (e.g. cache hits <= lookups) are only exact at
// quiescence; an owner that needs a mid-flight ordering gets it from
// its OwnedCounters (see DescendantPathCache::counters()).
//
// Exposition-format stability promise: metric names, label-free Prometheus
// text layout (# HELP / # TYPE / cumulative _bucket{le=...} / _sum /
// _count lines) and the JSON field names (name, kind, help, value, count,
// sum, buckets[].le, buckets[].count) are stable; dashboards may parse
// them. New metrics may appear; existing ones keep their meaning. The
// optional JSON "exemplar" field (histogram→trace linkage) is additive
// and absent when no traced observation happened; the Prometheus text
// layout does not include exemplars.

#ifndef XSKETCH_OBS_METRICS_H_
#define XSKETCH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace xsketch::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-written value (sizes, configuration, most-recent error) with
// lossless concurrent deltas for resource accounting (in-flight queries,
// catalog resident bytes).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  // Atomic delta via a CAS loop (std::atomic<double> has no fetch_add
  // before C++20): concurrent Add/Sub from different threads never lose
  // updates, unlike read-modify-Set.
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  void Sub(double delta) { Add(-delta); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket latency/error histogram. Bucket bounds are inclusive upper
// bounds in ascending order; observations above the last bound land in an
// implicit overflow bucket. Observe() is two relaxed atomic adds.
//
// Exemplars (histogram→trace linkage): an observation recorded with a
// nonzero trace id competes for the histogram's exemplar slot, which
// retains the *worst* (largest) such observation of the current window.
// TakeExemplar() reads and resets the slot, starting the next window —
// dashboards get "the trace id of the slowest query since the last
// scrape". Observations with trace id 0 (the default) never touch the
// exemplar path, so untraced recording cost is unchanged. Exemplars
// appear in the JSON exposition only; the Prometheus text layout is
// unchanged (its stability promise above predates them).
class Histogram {
 public:
  // The worst traced observation of a window. trace_id 0 = no traced
  // observation seen.
  struct Exemplar {
    double value = 0.0;
    uint64_t trace_id = 0;
  };

  explicit Histogram(std::vector<double> bounds);

  void Observe(double x, uint64_t trace_id = 0);

  struct Snapshot {
    std::vector<double> bounds;
    std::vector<uint64_t> counts;  // bounds.size() + 1, overflow last
    uint64_t count = 0;            // sum of counts — always consistent
    double sum = 0.0;
    Exemplar exemplar;             // current window's worst traced obs

    double Mean() const;
    // Conservative quantile: the smallest bucket upper bound whose
    // cumulative count reaches q * count (the overflow bucket reports the
    // last finite bound).
    double Quantile(double q) const;
  };
  Snapshot snapshot() const;
  // Current window's exemplar without resetting it.
  Exemplar exemplar() const;
  // Reads and clears the exemplar slot, starting a new window.
  Exemplar TakeExemplar();
  void Reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
  // Guards the (value, trace_id) pair; taken only when a traced
  // observation beats the current maximum, so effectively never on the
  // hot path.
  mutable std::mutex exemplar_mu_;
  Exemplar exemplar_;
};

class OwnedCounter;

class MetricsRegistry {
 public:
  // The process-wide registry every subsystem registers through.
  static MetricsRegistry& Default();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Return the metric registered under `name`, creating it on first use.
  // References stay valid for the registry's lifetime. Requesting an
  // existing name with a different metric kind aborts (names are
  // process-wide and must mean one thing), and so does GetCounter() on
  // a name OwnedCounters report. For histograms, the first registration
  // fixes the bucket bounds; later bounds are ignored.
  Counter& GetCounter(std::string_view name, std::string_view help = "");
  Gauge& GetGauge(std::string_view name, std::string_view help = "");
  Histogram& GetHistogram(std::string_view name, std::vector<double> bounds,
                          std::string_view help = "");

  enum class Kind { kCounter, kGauge, kHistogram };

  struct MetricSnapshot {
    std::string name;
    std::string help;
    Kind kind = Kind::kCounter;
    uint64_t counter_value = 0;
    double gauge_value = 0.0;
    Histogram::Snapshot histogram;  // engaged for kHistogram only
  };

  // Point-in-time view of every registered metric, name-ordered. Safe
  // with concurrent writers (see file comment for consistency semantics).
  std::vector<MetricSnapshot> Snapshot() const;

  std::string ToJson() const;
  std::string ToPrometheusText() const;

  // Zeroes every registered value, live OwnedCounters included (bench/
  // test isolation; not a hot path, and not atomic with respect to
  // concurrent writers).
  void Reset();

 private:
  friend class OwnedCounter;

  struct Entry {
    Kind kind = Kind::kCounter;
    std::string help;
    // An OwnedCounter series: `counter` holds the final counts of
    // destroyed owners, `owners` the live ones.
    bool owned = false;
    std::vector<OwnedCounter*> owners;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& GetEntry(std::string_view name, Kind kind, std::string_view help,
                  bool owned = false);

  mutable std::mutex mu_;
  std::map<std::string, Entry, std::less<>> metrics_;
};

// An event count owned by one object: value() is that object's count,
// and series `name` in MetricsRegistry::Default() sums it over every
// owner, live or destroyed, so the series never decreases when an owner
// is replaced. Increments publish with release order and value() reads
// with acquire: an owner that increments A before B and reads B before A
// never sees B exceed A.
class OwnedCounter {
 public:
  explicit OwnedCounter(std::string_view name, std::string_view help = "");
  ~OwnedCounter();  // folds the final count into the series

  OwnedCounter(const OwnedCounter&) = delete;
  OwnedCounter& operator=(const OwnedCounter&) = delete;

  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_release);
  }
  uint64_t value() const { return value_.load(std::memory_order_acquire); }

 private:
  friend class MetricsRegistry;

  std::atomic<uint64_t> value_{0};
  MetricsRegistry::Entry* entry_ = nullptr;  // the series (registry-owned)
};

// Shared bucket layouts, so related metrics stay comparable.
std::vector<double> LatencyBucketsUs();     // 1us .. ~1s, roughly x4 steps
std::vector<double> DurationBucketsMs();    // 0.1ms .. ~100s
std::vector<double> RelativeErrorBuckets(); // 0.01 .. 100 (paper's metric)

}  // namespace xsketch::obs

#endif  // XSKETCH_OBS_METRICS_H_
