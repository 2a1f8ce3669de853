#include "service/sketch_catalog.h"

#include <utility>

#include "obs/trace.h"
#include "query/xpath_parser.h"
#include "util/check.h"

namespace xsketch::service {

util::Result<std::shared_ptr<const core::CompiledTwig>>
SketchHandle::Prepare(const query::TwigQuery& twig) const {
  if (!valid()) {
    return util::Status::InvalidArgument("empty sketch handle");
  }
  return service_->Prepare(twig);
}

util::Result<std::shared_ptr<const core::CompiledTwig>>
SketchHandle::Prepare(const std::string& path) const {
  if (!valid()) {
    return util::Status::InvalidArgument("empty sketch handle");
  }
  auto twig = query::ParsePath(path, service_->tags());
  if (!twig.ok()) return twig.status();
  return Prepare(twig.value());
}

util::Result<std::unique_ptr<SketchCatalog>> SketchCatalog::Create(
    const CatalogOptions& options) {
  if (util::Status st = options.Validate(); !st.ok()) return st;
  return std::unique_ptr<SketchCatalog>(new SketchCatalog(options));
}

SketchCatalog::SketchCatalog(const CatalogOptions& options)
    : options_(options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  metrics_.sketches = &reg.GetGauge("xsketch_catalog_sketches",
                                    "sketches currently resident");
  metrics_.resident_bytes =
      &reg.GetGauge("xsketch_catalog_resident_bytes",
                    "measured bytes of resident frozen synopses");
}

util::Result<SketchHandle> SketchCatalog::Put(const std::string& doc_id,
                                              const std::string& path) {
  if (doc_id.empty()) {
    return util::Status::InvalidArgument("doc_id must not be empty");
  }
  // Traced only under the caller's sampled trace (the trace CLI, a traced
  // request); the load attaches beneath the caller's span.
  obs::SpanScope load_span(obs::Stage::kCatalogLoad);
  // Load outside the lock: a slow mmap + validation of one document must
  // not stall lookups of the others. On failure the catalog is untouched.
  util::Result<std::shared_ptr<const core::FrozenSynopsis>> frozen =
      [&] {
        obs::SpanScope mmap_span(obs::Stage::kCatalogMmap);
        auto loaded = core::LoadFrozenFile(path);
        if (loaded.ok()) {
          mmap_span.set_arg(loaded.value()->SizeBytes());
        }
        return loaded;
      }();
  if (!frozen.ok()) {
    metrics_.load_failures.Increment();
    return frozen.status();
  }

  SketchHandle handle;
  handle.doc_id_ = doc_id;
  handle.size_bytes_ = frozen.value()->SizeBytes();

  obs::SpanScope swap_span(obs::Stage::kCatalogSwap);
  std::lock_guard<std::mutex> lock(mu_);
  handle.generation_ = next_generation_++;
  swap_span.set_arg(handle.generation_);
  // The service is built under the lock because it carries the generation
  // (stamped into flight records) and generations must install in order.
  // Construction is cheap: no worker thread, no compilation yet.
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.estimator = options_.estimator;
  service_options.sketch_generation = handle.generation_;
  auto service =
      EstimationService::Create(std::move(frozen).value(), service_options);
  XS_CHECK(service.ok());  // options validated by SketchCatalog::Create
  handle.service_ = std::move(service).value();
  metrics_.loads.Increment();
  auto it = index_.find(doc_id);
  if (it != index_.end()) {
    // Atomic hot swap: the old generation leaves the catalog here, but
    // any outstanding handle still pins its mapping. Gauge deltas (not
    // Set) so concurrent catalogs sharing the process gauges never lose
    // each other's updates.
    resident_bytes_ -= it->second->size_bytes_;
    metrics_.resident_bytes->Sub(
        static_cast<double>(it->second->size_bytes_));
    *it->second = handle;
    resident_bytes_ += handle.size_bytes_;
    metrics_.resident_bytes->Add(static_cast<double>(handle.size_bytes_));
    lru_.splice(lru_.begin(), lru_, it->second);
    metrics_.swaps.Increment();
  } else {
    lru_.push_front(handle);
    index_.emplace(doc_id, lru_.begin());
    resident_bytes_ += handle.size_bytes_;
    metrics_.resident_bytes->Add(static_cast<double>(handle.size_bytes_));
    metrics_.sketches->Add(1.0);
  }
  EnforceBudgetLocked(doc_id);
  return handle;
}

util::Result<SketchHandle> SketchCatalog::Get(const std::string& doc_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(doc_id);
  if (it == index_.end()) {
    metrics_.misses.Increment();
    return util::Status::NotFound("no sketch for document '" + doc_id +
                                  "'");
  }
  metrics_.hits.Increment();
  lru_.splice(lru_.begin(), lru_, it->second);
  return *it->second;
}

bool SketchCatalog::Remove(const std::string& doc_id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(doc_id);
  if (it == index_.end()) return false;
  resident_bytes_ -= it->second->size_bytes_;
  metrics_.resident_bytes->Sub(static_cast<double>(it->second->size_bytes_));
  metrics_.sketches->Sub(1.0);
  lru_.erase(it->second);
  index_.erase(it);
  return true;
}

void SketchCatalog::EnforceBudgetLocked(const std::string& keep) {
  if (options_.byte_budget == 0) return;
  while (resident_bytes_ > options_.byte_budget && lru_.size() > 1) {
    // Evict from the cold end, but never the entry being installed — a
    // single over-budget sketch still serves.
    auto victim = std::prev(lru_.end());
    if (victim->doc_id_ == keep) {
      if (lru_.size() == 1) break;
      victim = std::prev(victim);
    }
    resident_bytes_ -= victim->size_bytes_;
    metrics_.resident_bytes->Sub(static_cast<double>(victim->size_bytes_));
    metrics_.sketches->Sub(1.0);
    index_.erase(victim->doc_id_);
    lru_.erase(victim);
    metrics_.evictions.Increment();
  }
}

SketchCatalog::Stats SketchCatalog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.loads = metrics_.loads.value();
  s.load_failures = metrics_.load_failures.value();
  s.hits = metrics_.hits.value();
  s.misses = metrics_.misses.value();
  s.evictions = metrics_.evictions.value();
  s.swaps = metrics_.swaps.value();
  s.sketches = lru_.size();
  s.resident_bytes = resident_bytes_;
  s.generation = next_generation_ - 1;
  return s;
}

}  // namespace xsketch::service
