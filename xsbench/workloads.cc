#include "workloads.h"

namespace xsbench {

SetupReps SetupRepsFor(const Config& config) {
  if (config.trace || config.tiny) return {1, 1, 0.0};
  return {};
}

void SetSetupMetrics(const std::vector<double>& setup_s,
                     const std::vector<const BuiltSketch*>& sketches,
                     double peak_rss_mb, Outcome* out) {
  double error = 0.0, kb = 0.0;
  for (const BuiltSketch* b : sketches) {
    error += b->rel_error / sketches.size();
    kb += b->xsk3_bytes / 1024.0 / sketches.size();
  }
  out->Set("setup_s", Median(setup_s), "s");
  out->Set("rel_error", error, "ratio");
  out->Set("sketch_kb", kb, "KiB");
  out->Set("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace xsbench
