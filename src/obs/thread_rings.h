// Per-thread bounded rings: the storage the span tracer (obs/trace.h) and
// the flight recorder (obs/flight.h) share.
//
// Each recording thread appends to its own ring of kCapacity entries
// under a per-ring mutex that only snapshot readers ever contend; a full
// ring overwrites its oldest entry. Every append increments the
// `appended` registry Counter and every overwrite the `dropped` one —
// those counters are the only copies of the counts. A thread's ring is
// registered on its first append and lives as long as the ThreadRings,
// so entries a thread recorded survive its exit.
//
// The calling thread's ring is cached in a thread_local per
// instantiation, so each <T, kCapacity> has exactly one ThreadRings: the
// process-wide Tracer or FlightRecorder.

#ifndef XSKETCH_OBS_THREAD_RINGS_H_
#define XSKETCH_OBS_THREAD_RINGS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace xsketch::obs {

template <typename T, size_t kCapacity>
class ThreadRings {
 public:
  ThreadRings(Counter& appended, Counter& dropped)
      : appended_(appended), dropped_(dropped) {}
  ThreadRings(const ThreadRings&) = delete;
  ThreadRings& operator=(const ThreadRings&) = delete;

  // Appends to the calling thread's ring, overwriting its oldest entry
  // when full.
  void Append(T entry) {
    Ring& ring = ThisThreadRing();
    std::lock_guard<std::mutex> lock(ring.mu);
    if (ring.next >= kCapacity) dropped_.Increment();
    ring.slots[ring.next % kCapacity] = std::move(entry);
    ++ring.next;
    appended_.Increment();
  }

  // Calls fn(tid, entry) for every retained entry, ring by ring. tid is
  // the ring's 1-based registration order, a small per-thread number.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const Ring& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring.mu);
      const uint64_t live = std::min<uint64_t>(ring.next, kCapacity);
      for (uint64_t i = 0; i < live; ++i) fn(ring.tid, ring.slots[i]);
    }
  }

  // Drops every retained entry; the counters are the owner's to reset.
  void Clear() {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (Ring& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring.mu);
      std::fill(ring.slots.begin(), ring.slots.end(), T{});
      ring.next = 0;
    }
  }

 private:
  struct Ring {
    explicit Ring(uint32_t tid) : slots(kCapacity), tid(tid) {}
    mutable std::mutex mu;
    std::vector<T> slots;
    uint64_t next = 0;  // append cursor; slots [0, min(next, kCapacity))
    const uint32_t tid;
  };

  Ring& ThisThreadRing() {
    if (tls_ring_ != nullptr) return *tls_ring_;
    std::lock_guard<std::mutex> lock(registry_mu_);
    // deque: emplace_back never moves existing rings, so the cached
    // pointers of other threads stay valid.
    tls_ring_ = &rings_.emplace_back(static_cast<uint32_t>(rings_.size() + 1));
    return *tls_ring_;
  }

  static constinit thread_local Ring* tls_ring_;

  Counter& appended_;
  Counter& dropped_;
  mutable std::mutex registry_mu_;  // guards rings_ (the container)
  std::deque<Ring> rings_;
};

template <typename T, size_t kCapacity>
constinit thread_local typename ThreadRings<T, kCapacity>::Ring*
    ThreadRings<T, kCapacity>::tls_ring_ = nullptr;

}  // namespace xsketch::obs

#endif  // XSKETCH_OBS_THREAD_RINGS_H_
