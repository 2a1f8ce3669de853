// The four workloads. Each sets itself up (several times when measuring
// set-up time), measures for the configured seconds, checks every
// operation against its oracle and fills an Outcome: the end-to-end
// metrics on an untraced run, the per-layer metrics on a traced one.

#ifndef XSBENCH_WORKLOADS_H_
#define XSBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <vector>

#include "common.h"

namespace xsbench {

Outcome RunEstimate(const Config& config);
Outcome RunServe(const Config& config);
Outcome RunOptimize(const Config& config);
Outcome RunBuild(const Config& config);

// Set-up repetitions: an untraced run reports the median of at least 3
// complete set-ups in one process, and repeats a short set-up until the
// set-ups add up to a second (at most 15), so that timer and scheduler
// noise does not dominate a set-up of a few milliseconds. A traced or
// tiny run sets up once.
struct SetupReps {
  int min = 3;
  int max = 15;
  double min_total_s = 1.0;
};
SetupReps SetupRepsFor(const Config& config);

// Runs `make` as SetupReps says, destroying each result before the next,
// and returns the last; `seconds` receives each set-up's wall time.
template <typename T>
std::unique_ptr<T> RepeatSetup(const Config& config,
                               const std::function<std::unique_ptr<T>(int)>& make,
                               std::vector<double>* seconds) {
  const SetupReps reps = SetupRepsFor(config);
  std::unique_ptr<T> result;
  double total = 0.0;
  for (int rep = 0; rep < reps.max; ++rep) {
    if (rep >= reps.min && total >= reps.min_total_s) break;
    result.reset();
    const Clock::time_point t = Clock::now();
    result = make(rep);
    seconds->push_back(SecondsSince(t));
    total += seconds->back();
    if (!result) break;
  }
  return result;
}

// The end-to-end metrics every workload reports from its set-up: set-up
// time (the median set-up), its sketches' size and accuracy, and peak
// memory. Workloads that keep latency samples read peak_rss_mb before
// the timed phases, so the benchmark's own sample buffers, which grow
// with throughput, stay out.
void SetSetupMetrics(const std::vector<double>& setup_s,
                     const std::vector<const BuiltSketch*>& sketches,
                     double peak_rss_mb, Outcome* out);

// Placeholder for an end-to-end metric that only another workload
// measures, so that every run prints every metric (see README.md).
inline constexpr double kNotApplicable = 1.0;

}  // namespace xsbench

#endif  // XSBENCH_WORKLOADS_H_
