#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>
#include <thread>

#include "util/percentiles.h"

namespace xsbench {

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Outcome::Merge(const Outcome& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& f : other.failures) {
    if (failures.size() < 8) failures.push_back(f);
  }
  for (const auto& [name, metric] : other.metrics) {
    metrics.emplace(name, metric);  // keeps an existing entry
  }
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed * 0x100000001B3ull + stream);
  return rng.Next();
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  const size_t i = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return std::min(i, cdf_.size() - 1);
}

double Quantile(std::vector<double>& v, double p) {
  return util::Percentile(v, p);
}

double Median(std::vector<double> v) { return Quantile(v, 0.5); }

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is KiB on Linux
}

Corpus MakeCorpus(const std::string& name, double scale) {
  Corpus c;
  c.name = name;
  const xml::Document generated =
      name == "xmark" ? data::GenerateXMark({.seed = 42, .scale = scale})
                      : data::GenerateImdb({.seed = 7, .scale = scale});
  c.xml = xml::WriteDocument(generated, {.indent = false});
  auto parsed = xml::ParseDocument(c.xml);
  if (!parsed.ok()) {
    std::fprintf(stderr, "xsbench: generated %s does not parse: %s\n",
                 name.c_str(), parsed.status().ToString().c_str());
    std::exit(2);
  }
  c.doc = std::move(parsed).value();
  return c;
}

DataConfig DataConfigFor(const Config& config) {
  DataConfig dc;
  if (config.tiny) {
    dc.scale = 0.01;
    dc.budget_bytes = 5 * 1024;
    dc.held_aside_queries = 24;
  }
  return dc;
}

query::Workload HeldAsideWorkload(const Corpus& corpus,
                                  const DataConfig& dc) {
  query::WorkloadOptions wo;
  wo.seed = corpus.name == "xmark" ? 1001 : 1002;
  wo.num_queries = dc.held_aside_queries;
  wo.value_pred_fraction = 0.5;
  return query::GeneratePositiveWorkload(corpus.doc, wo);
}

std::vector<query::WorkloadQuery> MixedTwigs(const Corpus& corpus, int n,
                                             uint64_t seed) {
  std::vector<query::WorkloadQuery> out;
  for (int half = 0; half < 2; ++half) {
    query::WorkloadOptions wo;
    wo.seed = SubSeed(seed, half);
    wo.num_queries = half == 0 ? n / 2 : n - n / 2;
    wo.value_pred_fraction = half == 0 ? 0.0 : 0.5;
    query::Workload w = query::GeneratePositiveWorkload(corpus.doc, wo);
    for (auto& q : w.queries) out.push_back(std::move(q));
  }
  return out;
}

namespace {

void AppendStep(const query::TwigQuery& twig, int node,
                const util::StringInterner& tags, std::string* out);

// Appends the predicates of `node`: its value predicate, then every child
// except `chain_child` as an existential branch.
void AppendPredicates(const query::TwigQuery& twig, int node, int chain_child,
                      const util::StringInterner& tags, std::string* out) {
  const auto& n = twig.node(node);
  if (n.pred.has_value()) {
    const query::ValuePredicate& p = *n.pred;
    if (p.lo == p.hi) {
      *out += "[. = " + std::to_string(p.lo) + "]";
    } else if (p.lo == INT64_MIN) {
      *out += "[. <= " + std::to_string(p.hi) + "]";
    } else {
      *out += "[. >= " + std::to_string(p.lo) + "]";
    }
  }
  for (int c : n.children) {
    if (c == chain_child) continue;
    *out += "[";
    AppendStep(twig, c, tags, out);
    *out += "]";
  }
}

// Appends `node` and the chain below it: the chain follows the first
// child (the first binding child when there is one).
void AppendStep(const query::TwigQuery& twig, int node,
                const util::StringInterner& tags, std::string* out) {
  const auto& n = twig.node(node);
  if (n.axis == query::Axis::kDescendant) *out += "//";
  *out += n.tag < tags.size() ? tags.Get(n.tag) : "unknown";
  int chain_child = -1;
  for (int c : n.children) {
    if (!twig.node(c).existential) {
      chain_child = c;
      break;
    }
  }
  if (chain_child < 0 && n.existential && !n.children.empty()) {
    chain_child = n.children.front();
  }
  AppendPredicates(twig, node, chain_child, tags, out);
  if (chain_child >= 0) {
    if (twig.node(chain_child).axis == query::Axis::kChild) *out += "/";
    AppendStep(twig, chain_child, tags, out);
  }
}

}  // namespace

std::string RenderPath(const query::TwigQuery& twig,
                       const util::StringInterner& tags) {
  std::string out;
  if (twig.node(0).axis == query::Axis::kChild) out += "/";
  AppendStep(twig, 0, tags, &out);
  return out;
}

std::vector<std::string> PathPool(const Corpus& corpus, size_t n,
                                  uint64_t seed) {
  std::vector<std::string> pool;
  std::set<std::string> seen;
  for (int round = 0; round < 8 && pool.size() < n; ++round) {
    for (const auto& q :
         MixedTwigs(corpus, static_cast<int>(n), SubSeed(seed, round))) {
      std::string text = RenderPath(q.twig, corpus.doc.tags());
      if (!query::ParsePath(text, corpus.doc.tags()).ok()) continue;
      if (seen.insert(text).second) pool.push_back(std::move(text));
      if (pool.size() == n) break;
    }
  }
  return pool;
}

std::optional<BuiltSketch> BuildVerified(const Corpus& corpus,
                                         const DataConfig& dc, int threads,
                                         const query::Workload& held_aside,
                                         const std::string& path,
                                         bool corrupt_oracle, SpanLog* log,
                                         uint64_t req, Outcome* out) {
  BuiltSketch b;
  b.name = corpus.name;
  b.path = path;
  ScopedSpan root(log, "build.sketch", req);

  {
    ScopedSpan s(log, "xml.parse", req, root.index());
    auto parsed = xml::ParseDocument(corpus.xml);
    if (!parsed.ok()) {
      out->Fail(corpus.name + ": xml::ParseDocument: " +
                parsed.status().ToString());
      return std::nullopt;
    }
    b.doc = std::make_unique<xml::Document>(std::move(parsed).value());
  }

  core::BuildOptions bo;
  bo.budget_bytes = dc.budget_bytes;
  bo.num_threads = threads;
  bo.sample_value_pred_fraction = 0.5;
  {
    ScopedSpan s(log, "core.xbuild", req, root.index());
    b.sketch.emplace(core::XBuild(*b.doc, bo).Build({}, &b.stats));
  }

  {
    ScopedSpan s(log, "core.save_frozen", req, root.index());
    const core::FrozenSynopsis frozen(*b.sketch);
    if (util::Status st = core::SaveFrozenToFile(frozen, path); !st.ok()) {
      out->Fail(corpus.name + ": SaveFrozenToFile: " + st.ToString());
      return std::nullopt;
    }
  }

  {
    ScopedSpan s(log, "core.load_frozen", req, root.index());
    auto loaded = core::LoadFrozenFile(path);
    if (!loaded.ok()) {
      out->Fail(corpus.name + ": LoadFrozenFile: " +
                loaded.status().ToString());
      return std::nullopt;
    }
    b.loaded = std::move(loaded).value();
  }
  b.xsk3_bytes = b.loaded->SizeBytes();

  // Verification: the reloaded sketch, served through a session, against
  // the reference interpreter on the in-memory sketch.
  ScopedSpan verify(log, "build.verify", req, root.index());
  const core::Estimator reference(*b.sketch);
  service::ServiceOptions so;
  so.num_threads = 1;
  auto session = api::Session::Open(b.loaded, so);
  if (!session.ok()) {
    out->Fail(corpus.name + ": Session::Open: " +
              session.status().ToString());
    return std::nullopt;
  }
  std::vector<double> estimates;
  estimates.reserve(held_aside.queries.size());
  for (size_t i = 0; i < held_aside.queries.size(); ++i) {
    const query::TwigQuery& twig = held_aside.queries[i].twig;
    double expected = reference.Estimate(twig);
    if (corrupt_oracle && i == 0) expected += 1.0;
    auto prepared = session.value().Prepare(twig);
    if (!prepared.ok()) {
      out->Fail(corpus.name + ": Prepare: " + prepared.status().ToString());
      return std::nullopt;
    }
    const double got = prepared.value().Execute();
    if (!SameBits(got, expected)) {
      out->Fail(corpus.name + ": reloaded sketch estimates " +
                std::to_string(got) + ", in-memory sketch " +
                std::to_string(expected) + " for held-aside query " +
                std::to_string(i));
    }
    estimates.push_back(got);
  }
  b.rel_error = query::AvgRelativeError(held_aside, estimates,
                                        held_aside.SanityBound());
  return b;
}

std::vector<double> RunSliced(
    int threads, double seconds, double slice_s,
    std::vector<OpCounter>& counters,
    const std::function<void(int, const std::atomic<bool>&)>& fn,
    std::atomic<uint32_t>* slice) {
  std::atomic<bool> stop{false};
  if (slice) slice->store(0);
  for (int i = 0; i < threads; ++i) counters[i].ops.store(0);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&, i] { fn(i, stop); });
  }
  const auto total = [&] {
    uint64_t n = 0;
    for (int i = 0; i < threads; ++i) {
      n += counters[i].ops.load(std::memory_order_relaxed);
    }
    return n;
  };
  std::vector<double> rates;
  const int slices = std::max(1, static_cast<int>(seconds / slice_s + 0.5));
  Clock::time_point prev_t = Clock::now();
  uint64_t prev_n = total();
  for (int s = 1; s <= slices; ++s) {
    std::this_thread::sleep_until(
        prev_t + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(slice_s)));
    const Clock::time_point now = Clock::now();
    const uint64_t n = total();
    rates.push_back((n - prev_n) /
                    std::chrono::duration<double>(now - prev_t).count());
    if (slice) slice->store(s);
    prev_t = now;
    prev_n = n;
  }
  stop.store(true);
  for (auto& t : pool) t.join();
  return rates;
}

double SliceMedianQuantile(const std::vector<SlicedSample>& samples,
                           double p) {
  std::map<uint32_t, std::vector<double>> by_slice;
  for (const SlicedSample& s : samples) by_slice[s.slice].push_back(s.us);
  std::vector<double> q;
  for (auto& [slice, v] : by_slice) q.push_back(Quantile(v, p));
  return Median(q);
}

std::string JoinPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

}  // namespace xsbench
