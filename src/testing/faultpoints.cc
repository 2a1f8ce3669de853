#include "testing/faultpoints.h"

#include <cerrno>
#include <cstdlib>
#include <vector>

namespace xsketch::testing {

namespace {

// SplitMix64, the repo's standard deterministic mixer (as in
// testing/seed.cc): the fire decision for hit k of a point armed with
// seed s is a pure function of (s, k).
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::atomic<int> FaultPoints::armed_count_{0};

FaultPoints& FaultPoints::Default() {
  static FaultPoints* instance = new FaultPoints();
  return *instance;
}

void FaultPoints::Arm(std::string_view name, const Config& config) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    points_.emplace(std::string(name), Point{config, 0, 0});
    armed_count_.fetch_add(1, std::memory_order_relaxed);
  } else {
    it->second = Point{config, 0, 0};
  }
}

void FaultPoints::Arm(std::string_view name) { Arm(name, Config()); }

void FaultPoints::Disarm(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return;
  points_.erase(it);
  armed_count_.fetch_sub(1, std::memory_order_relaxed);
}

void FaultPoints::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_count_.fetch_sub(static_cast<int>(points_.size()),
                         std::memory_order_relaxed);
  points_.clear();
}

bool FaultPoints::FireLocked(Point& point) {
  const uint64_t ordinal = point.hits++;
  const Config& cfg = point.config;
  if (ordinal < cfg.skip) return false;
  if (cfg.max_fires != 0 && point.fires >= cfg.max_fires) return false;
  if (cfg.probability < 1.0) {
    const double u =
        static_cast<double>(Mix64(cfg.seed ^ ordinal) >> 11) * 0x1.0p-53;
    if (u >= cfg.probability) return false;
  }
  ++point.fires;
  return true;
}

bool FaultPoints::Fire(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return false;
  return FireLocked(it->second);
}

int FaultPoints::FireDelayMs(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return 0;
  if (!FireLocked(it->second)) return 0;
  return it->second.config.delay_ms;
}

FaultPoints::Counters FaultPoints::counters(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) return {};
  return Counters{it->second.hits, it->second.fires};
}

int FaultPoints::ArmFromEnv() {
  const char* env = std::getenv("XSKETCH_FAULTPOINTS");
  if (env == nullptr || *env == '\0') return 0;
  int armed = 0;
  const std::string spec(env);
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string entry =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (entry.empty()) continue;
    // Split on ':' into name, probability, delay_ms, skip, max_fires, seed.
    std::vector<std::string> fields;
    size_t fpos = 0;
    while (fpos <= entry.size()) {
      const size_t colon = entry.find(':', fpos);
      fields.push_back(entry.substr(
          fpos, colon == std::string::npos ? colon : colon - fpos));
      fpos = colon == std::string::npos ? entry.size() + 1 : colon + 1;
    }
    if (fields.empty() || fields[0].empty()) continue;
    Config cfg;
    bool ok = true;
    auto parse_double = [&ok](const std::string& s, double* out) {
      if (s.empty()) return;  // keep default
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0' || errno == ERANGE) ok = false;
      else *out = v;
    };
    auto parse_u64 = [&ok](const std::string& s, uint64_t* out) {
      if (s.empty()) return;
      errno = 0;
      char* end = nullptr;
      const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
      if (end == s.c_str() || *end != '\0' || errno == ERANGE) ok = false;
      else *out = v;
    };
    if (fields.size() > 1) parse_double(fields[1], &cfg.probability);
    if (fields.size() > 2) {
      double delay = 0.0;
      parse_double(fields[2], &delay);
      cfg.delay_ms = static_cast<int>(delay);
    }
    if (fields.size() > 3) parse_u64(fields[3], &cfg.skip);
    if (fields.size() > 4) parse_u64(fields[4], &cfg.max_fires);
    if (fields.size() > 5) parse_u64(fields[5], &cfg.seed);
    if (!ok || !(cfg.probability >= 0.0 && cfg.probability <= 1.0)) {
      continue;  // tooling input: skip typos, never abort the process
    }
    Arm(fields[0], cfg);
    ++armed;
  }
  return armed;
}

}  // namespace xsketch::testing
