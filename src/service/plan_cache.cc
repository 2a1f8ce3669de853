#include "service/plan_cache.h"

#include <utility>

namespace xsketch::service {

int64_t PlanCache::Locate(const Shard& shard, Kind kind, std::string_view key,
                          uint64_t hash) {
  auto [it, end] = shard.index.equal_range(hash);
  for (; it != end; ++it) {
    const Slot& slot = shard.slots[it->second];
    if (slot.kind == kind && slot.key == key) return it->second;
  }
  return -1;
}

PlanCache::Program PlanCache::FindText(std::string_view text,
                                       uint64_t text_hash) {
  Shard& shard = ShardFor(text_hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const int64_t at = Locate(shard, Kind::kText, text, text_hash);
  if (at < 0) return nullptr;
  Slot& slot = shard.slots[at];
  const std::shared_ptr<Resident> resident = slot.text.lock();
  if (resident == nullptr) {  // its program entry was evicted
    Release(shard, at);
    return nullptr;
  }
  slot.referenced = true;
  if (!resident->referenced.load(std::memory_order_relaxed)) {
    resident->referenced.store(true, std::memory_order_relaxed);
  }
  return resident->plan;
}

PlanCache::Program PlanCache::FindTwig(std::string_view key, uint64_t hash,
                                       std::string_view text,
                                       uint64_t text_hash) {
  std::shared_ptr<Resident> resident;
  {
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    const int64_t at = Locate(shard, Kind::kProgram, key, hash);
    if (at < 0) return nullptr;
    const std::shared_ptr<Resident>& found = shard.slots[at].program;
    if (!found->referenced.load(std::memory_order_relaxed)) {
      found->referenced.store(true, std::memory_order_relaxed);
    }
    if (text.empty()) return found->plan;
    resident = found;
  }
  AddText(text, text_hash, resident);
  return resident->plan;
}

PlanCache::Program PlanCache::Insert(std::string_view key, uint64_t hash,
                                     Program plan, std::string_view text,
                                     uint64_t text_hash) {
  const size_t charge = plan->SizeBytes() + key.size() + kProgramEntryBytes;
  if (charge > kShardBytes) return plan;
  std::shared_ptr<Resident> resident;
  {
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (const int64_t at = Locate(shard, Kind::kProgram, key, hash); at >= 0) {
      resident = shard.slots[at].program;  // a racing insert won
    } else {
      MakeRoom(shard, charge);
      resident = std::make_shared<Resident>(std::move(plan));
      Place(shard, Kind::kProgram, key, hash, charge).program = resident;
      ++shard.programs;
    }
  }
  if (!text.empty()) AddText(text, text_hash, resident);
  return resident->plan;
}

void PlanCache::AddText(std::string_view text, uint64_t text_hash,
                        const std::shared_ptr<Resident>& resident) {
  const size_t charge = text.size() + kEntryBytes;
  if (charge > kShardBytes) return;  // the program stays findable by twig
  Shard& shard = ShardFor(text_hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (const int64_t at = Locate(shard, Kind::kText, text, text_hash);
      at >= 0) {
    shard.slots[at].text = resident;  // a racing insert, or a stale entry
    return;
  }
  MakeRoom(shard, charge);
  Place(shard, Kind::kText, text, text_hash, charge).text = resident;
}

void PlanCache::MakeRoom(Shard& shard, size_t charge) {
  // Every live slot is evicted within two revolutions unless hits keep
  // re-setting its bit; past that, the hand evicts regardless. An empty
  // shard stops the sweep whatever `charge` is.
  size_t patience = 2 * shard.slots.size();
  while (shard.bytes > 0 && shard.bytes + charge > kShardBytes) {
    if (shard.hand >= shard.slots.size()) shard.hand = 0;
    Slot& slot = shard.slots[shard.hand];
    bool keep = false;
    if (slot.kind == Kind::kProgram) {
      keep = slot.program->referenced.exchange(false,
                                               std::memory_order_relaxed);
    } else if (slot.kind == Kind::kText) {
      keep = slot.referenced && !slot.text.expired();
      slot.referenced = false;
    }
    if (slot.kind != Kind::kFree && (!keep || patience == 0)) {
      if (slot.kind == Kind::kProgram) evictions_.Increment();
      Release(shard, shard.hand);
    }
    if (patience > 0) --patience;
    ++shard.hand;
  }
}

PlanCache::Slot& PlanCache::Place(Shard& shard, Kind kind,
                                  std::string_view key, uint64_t hash,
                                  size_t charge) {
  uint32_t at;
  if (!shard.free.empty()) {
    at = shard.free.back();
    shard.free.pop_back();
  } else {
    at = static_cast<uint32_t>(shard.slots.size());
    shard.slots.emplace_back();
  }
  Slot& slot = shard.slots[at];
  slot.hash = hash;
  slot.key.assign(key);
  slot.kind = kind;
  slot.referenced = false;
  slot.charge = static_cast<uint32_t>(charge);
  shard.index.emplace(hash, at);
  shard.bytes += charge;
  return slot;
}

void PlanCache::Release(Shard& shard, size_t at) {
  Slot& slot = shard.slots[at];
  auto it = shard.index.equal_range(slot.hash).first;
  while (it->second != at) ++it;
  shard.index.erase(it);
  if (slot.kind == Kind::kProgram) --shard.programs;
  shard.bytes -= slot.charge;
  slot.kind = Kind::kFree;
  std::string().swap(slot.key);
  slot.program.reset();
  slot.text.reset();
  shard.free.push_back(static_cast<uint32_t>(at));
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  s.evictions = evictions_.value();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.programs += shard.programs;
    s.bytes += shard.bytes;
  }
  return s;
}

}  // namespace xsketch::service
