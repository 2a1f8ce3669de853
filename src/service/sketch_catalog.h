// SketchCatalog: a document-id-keyed catalog of mmap-backed XSK3
// sketches — the many-sketch serving layer.
//
// An optimizer process holds one sketch per document; at catalog scale
// (thousands of documents) deserializing each sketch node-by-node into
// heap structures is both too slow and too big. The catalog instead
// memory-maps XSK3 files (core/frozen_io.h): opening a sketch is O(1)
// pointer fix-up plus validation, resident cost is only the pages actually
// touched, and eviction is an munmap away.
//
// Concurrency and hot swap: every lookup returns a SketchHandle — an
// immutable snapshot {generation, EstimationService}. Each generation owns
// the one service that serves it, and with it the compiler and the plan
// cache. Re-Putting a document id atomically installs a new generation
// with an empty plan cache, so stale plans leave with the old handle;
// existing handles (and any CompiledTwig programs prepared through them)
// keep pinning the old mapping via shared_ptr until they are dropped, so
// in-flight queries never see a torn swap. The file-replacement protocol
// is SaveFrozenToFile (write-to-temp + fsync + rename(2)) + Put(): the old
// mapping stays valid because mapped pages survive the rename of their
// path.
//
// Budget: the catalog evicts least-recently-used sketches whenever the
// measured resident total (FrozenSynopsis::SizeBytes of catalog entries)
// exceeds byte_budget. Handles outstanding at eviction time keep their
// mapping alive — the budget bounds what the catalog retains, not what
// callers still pin.
//
// Metrics (process-wide registry, obs/metrics.h): xsketch_catalog_
// {loads,load_failures,hits,misses,evictions,swaps}_total counters, the
// sums of every catalog's stats(), and {sketches,resident_bytes} gauges.

#ifndef XSKETCH_SERVICE_SKETCH_CATALOG_H_
#define XSKETCH_SERVICE_SKETCH_CATALOG_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/compile.h"
#include "core/frozen.h"
#include "core/frozen_io.h"
#include "obs/metrics.h"
#include "query/twig.h"
#include "service/estimation_service.h"
#include "util/status.h"

namespace xsketch::service {

struct CatalogOptions {
  // Resident-byte budget for catalog-held sketches; 0 means unlimited.
  // The most recently installed sketch is never evicted by its own
  // arrival, even when it alone exceeds the budget.
  uint64_t byte_budget = 0;
  // Forwarded to each generation's EstimationService.
  core::EstimatorOptions estimator;

  util::Status Validate() const { return estimator.Validate(); }
};

// An immutable snapshot of one catalog generation. Copyable and cheap;
// holding it (or any program prepared through it) pins the underlying
// mapping even across hot swaps and evictions.
class SketchHandle {
 public:
  SketchHandle() = default;

  bool valid() const { return service_ != nullptr; }
  const std::string& doc_id() const { return doc_id_; }
  // Monotonically increasing per catalog; a re-Put of the same doc id
  // yields a larger generation.
  uint64_t generation() const { return generation_; }
  uint64_t size_bytes() const { return size_bytes_; }
  const core::FrozenSynopsis& frozen() const { return service_->frozen(); }
  // The generation's service: one thread (batches run on the caller),
  // sketch_generation stamped into its flight records, the catalog's
  // estimator options.
  const EstimationService& service() const { return *service_; }

  // Lowers a twig through the service's plan cache. The returned program
  // references the snapshot's frozen synopsis and keeps it (and the
  // mapping) alive.
  util::Result<std::shared_ptr<const core::CompiledTwig>> Prepare(
      const query::TwigQuery& twig) const;
  // Parses a '/tag//tag[lo..hi]' path against the snapshot's tag table,
  // then Prepare.
  util::Result<std::shared_ptr<const core::CompiledTwig>> Prepare(
      const std::string& path) const;

 private:
  friend class SketchCatalog;
  std::string doc_id_;
  uint64_t generation_ = 0;
  uint64_t size_bytes_ = 0;
  std::shared_ptr<const EstimationService> service_;
};

class SketchCatalog {
 public:
  static util::Result<std::unique_ptr<SketchCatalog>> Create(
      const CatalogOptions& options = {});

  SketchCatalog(const SketchCatalog&) = delete;
  SketchCatalog& operator=(const SketchCatalog&) = delete;

  // Loads `path` as an XSK3 mapping and installs it under `doc_id`,
  // atomically replacing any existing generation (which outstanding
  // handles keep pinned). Returns a handle to the new generation. On load
  // failure the catalog is unchanged — a bad replacement file never
  // clobbers a serving sketch.
  util::Result<SketchHandle> Put(const std::string& doc_id,
                                 const std::string& path);

  // Returns the current generation for `doc_id` (touching it in the LRU
  // order), or NotFound.
  util::Result<SketchHandle> Get(const std::string& doc_id);

  // Drops `doc_id` from the catalog; outstanding handles stay valid.
  // Returns false if absent.
  bool Remove(const std::string& doc_id);

  struct Stats {
    size_t sketches = 0;          // currently resident
    uint64_t resident_bytes = 0;  // sum of resident SizeBytes
    uint64_t generation = 0;      // last generation issued
    uint64_t loads = 0;           // successful Puts
    uint64_t load_failures = 0;
    uint64_t hits = 0;            // Get found the id
    uint64_t misses = 0;
    uint64_t evictions = 0;       // budget evictions (not Removes)
    uint64_t swaps = 0;           // Puts that replaced an existing id
  };
  Stats stats() const;

 private:
  explicit SketchCatalog(const CatalogOptions& options);

  // Evicts LRU entries (never `keep`) until the budget holds. Caller
  // holds mu_.
  void EnforceBudgetLocked(const std::string& keep);

  // This catalog's event counts (the Stats fields of the same names) and
  // the process-wide gauges.
  struct Metrics {
    obs::OwnedCounter loads{"xsketch_catalog_loads_total",
                            "XSK3 sketches loaded into the catalog"};
    obs::OwnedCounter load_failures{
        "xsketch_catalog_load_failures_total",
        "XSK3 loads rejected (validation or I/O failure)"};
    obs::OwnedCounter hits{"xsketch_catalog_hits_total",
                           "catalog lookups that found the doc id"};
    obs::OwnedCounter misses{"xsketch_catalog_misses_total",
                             "catalog lookups that missed"};
    obs::OwnedCounter evictions{
        "xsketch_catalog_evictions_total",
        "sketches evicted to satisfy the byte budget"};
    obs::OwnedCounter swaps{"xsketch_catalog_swaps_total",
                            "hot swaps (Put replacing an existing doc id)"};
    obs::Gauge* sketches = nullptr;
    obs::Gauge* resident_bytes = nullptr;
  };

  // LRU list: most recently used at the front; the map indexes by doc id.
  using LruList = std::list<SketchHandle>;

  const CatalogOptions options_;
  mutable std::mutex mu_;
  LruList lru_;
  std::unordered_map<std::string, LruList::iterator> index_;
  uint64_t resident_bytes_ = 0;
  uint64_t next_generation_ = 1;
  Metrics metrics_;
};

}  // namespace xsketch::service

#endif  // XSKETCH_SERVICE_SKETCH_CATALOG_H_
