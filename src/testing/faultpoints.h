// Seeded fault-injection points for torture-testing error paths.
//
// Production code marks failure-capable sites with XS_FAULT("name"):
// mmap failures, short reads/writes, catalog loads, artificially slow
// request handlers. Tests (or a spawned daemon, via the
// XSKETCH_FAULTPOINTS environment variable) arm points by name with a
// deterministic per-hit decision — probability drawn from a SplitMix64
// stream over (seed, hit ordinal), an optional skip count so the Nth hit
// fires, an optional fire budget, and an optional injected delay for
// slow-path simulation. The same arming always fires on the same hits,
// so a fault repro is a seed, not a race.
//
// Cost model: the macros compile to `false` / nothing when the build
// disables XSKETCH_FAULTPOINTS (release serving builds). When compiled
// in but nothing is armed, a hit is one relaxed atomic load of a global
// counter — cheap enough to leave in RelWithDebInfo test builds, which
// is why the tier-1 suites run with the points compiled in.
//
// The registry lives in the core library (not xsketch_testing) because
// the instrumented sites do: util/mmap_file, util/posix_io, the catalog
// load path, and the daemon's request handlers.

#ifndef XSKETCH_TESTING_FAULTPOINTS_H_
#define XSKETCH_TESTING_FAULTPOINTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace xsketch::testing {

class FaultPoints {
 public:
  struct Config {
    // Chance each hit fires, decided deterministically from
    // (seed, per-point hit ordinal). 1.0 = every hit.
    double probability = 1.0;
    uint64_t seed = 0;
    // Hits to let pass before the point becomes eligible (0 = first hit
    // can fire) — "fail the load mid-hot-swap, not the initial one".
    uint64_t skip = 0;
    // Fires allowed before the point exhausts itself; 0 = unlimited.
    uint64_t max_fires = 0;
    // Injected latency when the point fires (slow-handler simulation).
    // Fire()/FireDelayMs() never sleep themselves; the site decides.
    int delay_ms = 0;
  };

  struct Counters {
    uint64_t hits = 0;   // times the site was reached while armed code ran
    uint64_t fires = 0;  // times the site was told to fail
  };

  // The process-wide registry every instrumented site consults.
  static FaultPoints& Default();

  FaultPoints() = default;
  FaultPoints(const FaultPoints&) = delete;
  FaultPoints& operator=(const FaultPoints&) = delete;

  // Arms (or re-arms, resetting counters) the named point.
  void Arm(std::string_view name, const Config& config);
  // Arms with the default Config (fire every hit, no delay).
  void Arm(std::string_view name);
  void Disarm(std::string_view name);
  void DisarmAll();

  // One hit of the named point: true when the site must inject its
  // failure. Unarmed points never fire (and are not counted).
  bool Fire(std::string_view name);
  // Like Fire but reports the armed delay_ms when it fires (0 when the
  // point does not fire or has no delay). For slow-path injection the
  // site sleeps this long and typically does NOT otherwise fail.
  int FireDelayMs(std::string_view name);

  Counters counters(std::string_view name) const;

  // True when at least one point is armed anywhere in the process —
  // the macros' fast path (one relaxed load).
  static bool AnyArmed() {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  // Arms points from the XSKETCH_FAULTPOINTS environment variable:
  //   name[:probability[:delay_ms[:skip[:max_fires[:seed]]]]],...
  // e.g. XSKETCH_FAULTPOINTS="daemon.slow_handler:1:50,mmap_file.mmap:0.5"
  // Unparseable entries are skipped (arming is test tooling; a typo must
  // not take down the process). Returns the number of points armed.
  int ArmFromEnv();

 private:
  struct Point {
    Config config;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  // Decides one hit for `point` (caller holds mu_).
  bool FireLocked(Point& point);

  static std::atomic<int> armed_count_;

  mutable std::mutex mu_;
  std::map<std::string, Point, std::less<>> points_;
};

}  // namespace xsketch::testing

// XS_FAULT(name): true when the named point is armed and fires this hit.
// XS_FAULT_DELAY_MS(name): armed injected delay for this hit (0 = none).
// Both collapse when the build compiles the layer out.
#if defined(XSKETCH_FAULTPOINTS)
#define XS_FAULT(name)                             \
  (::xsketch::testing::FaultPoints::AnyArmed() &&  \
   ::xsketch::testing::FaultPoints::Default().Fire(name))
#define XS_FAULT_DELAY_MS(name)                   \
  (::xsketch::testing::FaultPoints::AnyArmed()    \
       ? ::xsketch::testing::FaultPoints::Default().FireDelayMs(name) \
       : 0)
#else
#define XS_FAULT(name) false
#define XS_FAULT_DELAY_MS(name) 0
#endif

#endif  // XSKETCH_TESTING_FAULTPOINTS_H_
