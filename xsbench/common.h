// Shared pieces of the xsbench workloads: run configuration, the result
// record, timing and statistics helpers, the fixed data sets, query-text
// rendering, and the document-to-verified-XSK3 pipeline every workload's
// set-up runs (and the build workload times).

#ifndef XSBENCH_COMMON_H_
#define XSBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.h"
#include "xsketch_api.h"

namespace xsbench {

using namespace xsketch;
using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny inputs and short phases: the self-test mode, and the layer probe
  // a traced run uses for layers its own workload does not reach.
  bool tiny = false;
  // Flip one precomputed oracle entry; the run must then report failure.
  bool corrupt_oracle = false;
  int nproc = 1;
  // Directory for temporary sketch files (removed when the run ends).
  std::string work_dir;
  // Directory the traced run writes its span files to.
  std::string trace_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. Every operation is checked against an
// oracle; a mismatch or an operation error counts in `failed`.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the log
  std::map<std::string, Metric> metrics;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Adds another outcome's counts; its metrics fill names not yet set.
  void Merge(const Outcome& other);
};

// Deterministic 64-bit generator (splitmix64) for everything the seed
// drives: query pools, operation orders, request mixes.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

// Derives independent seeds for the parts of one run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Zipf(s) over ranks [0, n): rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

// Nearest-rank quantile (p in [0, 1]); sorts `v`. 0 for an empty sample.
double Quantile(std::vector<double>& v, double p);
double Median(std::vector<double> v);

bool SameBits(double a, double b);

// Peak resident set size of this process, MiB.
double PeakRssMb();

// --- Data sets -------------------------------------------------------------
//
// The documents are the repository's two paper data sets at fixed
// generator seeds (the seeds the other benches use), so every --seed runs
// against the same data; --seed draws the queries and operation orders.
// Each document goes through its XML text form so the write path starts
// from bytes.
struct Corpus {
  std::string name;  // "xmark" or "imdb"
  std::string xml;   // serialized document
  xml::Document doc;  // parsed back from `xml` (tag ids match later parses)
};

Corpus MakeCorpus(const std::string& name, double scale);

// Scale and sketch budget shared by every workload's set-up.
struct DataConfig {
  double scale = 0.05;
  size_t budget_bytes = 12 * 1024;
  int held_aside_queries = 200;
};
DataConfig DataConfigFor(const Config& config);

// P+V workload held aside from sketch construction: verifies a reloaded
// sketch and scores it with the paper's error metric. Drawn from a fixed
// seed, like the documents and XBUILD's own sample, so rel_error is a
// property of the code alone: on IMDB a few queries carry most of the
// error, and a per-seed draw moves the mean by a factor of two.
query::Workload HeldAsideWorkload(const Corpus& corpus, const DataConfig& dc);

// Positive workloads, half P and half P+V, `n` queries in total.
std::vector<query::WorkloadQuery> MixedTwigs(const Corpus& corpus, int n,
                                             uint64_t seed);

// Renders a twig as path text for Session::Prepare. Path syntax has one
// output chain, so the chain follows the first binding child at every
// step and every other branch becomes an existential predicate; a range
// value predicate keeps its lower bound only. The text therefore names
// a related twig, not the same one: callers parse it and use the parsed
// twig as the oracle's input.
std::string RenderPath(const query::TwigQuery& twig,
                       const util::StringInterner& tags);

// `n` distinct path texts (half P, half P+V shapes) that parse against
// `tags`. Returns fewer when the generator runs out of distinct shapes.
std::vector<std::string> PathPool(const Corpus& corpus, size_t n,
                                  uint64_t seed);

// --- Document -> verified XSK3 -------------------------------------------
struct BuiltSketch {
  std::string name;
  std::unique_ptr<xml::Document> doc;  // the parse `sketch` refers to
  std::optional<core::TwigXSketch> sketch;
  std::shared_ptr<const core::FrozenSynopsis> loaded;
  std::string path;  // the XSK3 file `loaded` maps
  uint64_t xsk3_bytes = 0;
  double rel_error = 0.0;  // paper metric on the held-aside workload
  core::BuildStats stats;
};

// xml::ParseDocument -> XBuild (nproc scoring threads) -> SaveFrozenToFile
// -> LoadFrozenFile -> estimates of the held-aside workload on the
// reloaded sketch, each required bit-identical to the reference
// core::Estimator on the in-memory sketch (mismatches fail `out`). Spans
// go to `log` when it is non-null.
std::optional<BuiltSketch> BuildVerified(const Corpus& corpus,
                                         const DataConfig& dc, int threads,
                                         const query::Workload& held_aside,
                                         const std::string& path,
                                         bool corrupt_oracle, SpanLog* log,
                                         uint64_t req, Outcome* out);

// --- Phase timing ----------------------------------------------------------

// One counter per client thread, on its own cache line; written by its
// thread only, read by the sampler.
struct alignas(64) OpCounter {
  std::atomic<uint64_t> ops{0};
  void Add() { ops.store(ops.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed); }
};

// Runs `fn(thread_index, stop)` on `threads` threads for `seconds` and
// returns the completed-operations-per-second of each `slice_s` slice,
// read from the counters the threads bump. `slice` (optional) holds the
// index of the slice in progress, for tagging samples.
std::vector<double> RunSliced(
    int threads, double seconds, double slice_s,
    std::vector<OpCounter>& counters,
    const std::function<void(int, const std::atomic<bool>&)>& fn,
    std::atomic<uint32_t>* slice = nullptr);

// A latency sample tagged with the slice of the phase it fell in.
struct SlicedSample {
  uint32_t slice = 0;
  float us = 0.0f;
};

// The p-quantile of each slice's samples, then the median over slices:
// a burst of host noise moves one slice, not the run's figure.
double SliceMedianQuantile(const std::vector<SlicedSample>& samples,
                           double p);

std::string JoinPath(const std::string& dir, const std::string& name);

}  // namespace xsbench

#endif  // XSBENCH_COMMON_H_
