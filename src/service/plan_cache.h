// PlanCache: the estimation service's compiled-program cache, bounded in
// bytes.
//
// A program is found by two kinds of key. Its program entry is keyed by
// the twig's canonical byte encoding (CanonicalTwigKey) and charged the
// program's exact CompiledTwig::SizeBytes() plus its key and bookkeeping
// bytes. A text entry keys the same program by a path text that parsed to
// that twig, so a repeated text skips parse, validation and key encoding;
// it holds the program entry weakly and is charged only its key and
// bookkeeping bytes. A program's bytes are thus charged once however many
// texts name it, and evicting its program entry frees it (text entries
// left behind read as misses and are dropped).
//
// Entries live in kShards shards chosen by key hash, each with its own
// mutex and an equal share of kBudgetBytes, so resident bytes never exceed
// kBudgetBytes; an entry larger than a share is not cached at all.
// Eviction is CLOCK per shard: a hit sets a reference bit (a program's bit
// is shared by both of its keys, so a program stays resident whichever key
// finds it) instead of relinking a list; an insert that would overflow its
// shard sweeps the shard's hand, clearing set bits and evicting entries
// found unreferenced. New entries start unreferenced
// behind the hand, so a burst of shapes seen once evicts itself before it
// evicts programs hit since the hand last passed.
//
// Lookups hash the caller's bytes and copy a shared_ptr: a hit allocates
// nothing. Thread-safe; no call holds more than one shard's lock.

#ifndef XSKETCH_SERVICE_PLAN_CACHE_H_
#define XSKETCH_SERVICE_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/compile.h"
#include "obs/metrics.h"

namespace xsketch::service {

class PlanCache {
 public:
  using Program = std::shared_ptr<const core::CompiledTwig>;

  // Every service has its own cache, so a process pays the budget once
  // per session: 768 KiB keeps a planner process with eight sessions full
  // of one-off sub-twigs below the resident memory the 256-entry cache
  // cost it, while a hot set of a few hundred shapes stays resident.
  static constexpr size_t kBudgetBytes = size_t{768} << 10;
  // One mutex serialises four serving threads; eight split them.
  static constexpr size_t kShards = 8;
  static constexpr size_t kShardBytes = kBudgetBytes / kShards;

  PlanCache() = default;
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // The hash every key is stored and probed under.
  static uint64_t Hash(std::string_view bytes) {
    return std::hash<std::string_view>()(bytes);
  }

  // The program a text entry names, or null.
  Program FindText(std::string_view text, uint64_t text_hash);

  // The program cached under canonical twig key `key`, or null. When
  // `text` is non-empty and the program is found, `text` becomes one of
  // its text entries.
  Program FindTwig(std::string_view key, uint64_t hash,
                   std::string_view text = {}, uint64_t text_hash = 0);

  // Caches `plan` under `key` (and `text`, when non-empty), or, when a
  // racing insert cached the same key first, returns that program. A
  // program larger than one shard's budget is returned uncached.
  Program Insert(std::string_view key, uint64_t hash, Program plan,
                 std::string_view text = {}, uint64_t text_hash = 0);

  struct Stats {
    size_t programs = 0;  // program entries
    size_t bytes = 0;     // charged bytes, <= kBudgetBytes
    uint64_t evictions = 0;  // program entries evicted, lifetime
  };
  Stats stats() const;

 private:
  // A cached program and its CLOCK bit, shared by the program entry
  // (strongly) and its text entries (weakly).
  struct Resident {
    explicit Resident(Program p) : plan(std::move(p)) {}
    const Program plan;
    std::atomic<bool> referenced{false};
  };

  enum class Kind : uint8_t { kFree, kProgram, kText };

  struct Slot {
    uint64_t hash = 0;
    std::string key;
    Kind kind = Kind::kFree;
    bool referenced = false;  // kText: the text entry's own bit
    uint32_t charge = 0;
    std::shared_ptr<Resident> program;  // kProgram
    std::weak_ptr<Resident> text;       // kText
  };

  // Keys hash once, before the shard is chosen; the index reuses it.
  struct PassHash {
    size_t operator()(uint64_t h) const { return static_cast<size_t>(h); }
  };

  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<Slot> slots;
    std::vector<uint32_t> free;  // indices of kFree slots
    std::unordered_multimap<uint64_t, uint32_t, PassHash> index;
    size_t hand = 0;
    size_t bytes = 0;
    size_t programs = 0;
  };

  // Bytes an entry costs beyond its key and program, allocator headers
  // included: its slot (twice over, for the slot vector's growth slack),
  // index node and bucket; a program entry adds the Resident block and
  // the program's shared_ptr control block.
  static constexpr size_t kEntryBytes = 2 * sizeof(Slot) + 64;
  static constexpr size_t kProgramEntryBytes = kEntryBytes + 96;

  Shard& ShardFor(uint64_t hash) { return shards_[hash >> 61]; }
  static_assert(kShards == 8, "ShardFor takes the hash's top three bits");

  // Index of the `kind` slot keyed by `key`, or -1. Caller holds mu.
  static int64_t Locate(const Shard& shard, Kind kind, std::string_view key,
                        uint64_t hash);
  // Sweeps the hand until `charge` more bytes fit or the shard is empty.
  // Caller holds mu.
  void MakeRoom(Shard& shard, size_t charge);
  // Stores a new entry (unreferenced) and returns its slot.
  static Slot& Place(Shard& shard, Kind kind, std::string_view key,
                     uint64_t hash, size_t charge);
  static void Release(Shard& shard, size_t slot);
  // Makes `text` name `resident`, in the text's shard, unless the entry
  // would outweigh the whole shard.
  void AddText(std::string_view text, uint64_t text_hash,
               const std::shared_ptr<Resident>& resident);

  std::array<Shard, kShards> shards_;
  obs::OwnedCounter evictions_{"xsketch_service_plan_cache_evictions_total",
                               "compiled plans evicted from the plan cache"};
};

}  // namespace xsketch::service

#endif  // XSKETCH_SERVICE_PLAN_CACHE_H_
