// Per-process test environment helpers: scratch file paths, the process
// thread count, counter series values in the default registry, and the
// frozen form services serve.
//
// ctest runs every gtest case in its own process, several at a time. A
// fixed name under TempDir() lets one process rewrite a file that another
// has mapped (SIGBUS) or is halfway through reading. Names built here
// carry the running test's suite, test name and pid, so neither two
// concurrent processes nor two tests in one process share a path.

#ifndef XSKETCH_TESTS_TEST_ENV_H_
#define XSKETCH_TESTS_TEST_ENV_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/frozen.h"
#include "obs/metrics.h"

namespace xsketch {

inline std::string UniqueTempPath(const std::string& name) {
  const ::testing::UnitTest* unit = ::testing::UnitTest::GetInstance();
  std::string tag;
  if (const ::testing::TestInfo* info = unit->current_test_info()) {
    tag = std::string(info->test_suite_name()) + "." + info->name();
  } else if (const ::testing::TestSuite* suite = unit->current_test_suite()) {
    tag = suite->name();  // SetUpTestSuite: no test is running yet
  }
  std::replace(tag.begin(), tag.end(), '/', '_');  // parameterized names
  return ::testing::TempDir() + "/" + tag + "." +
         std::to_string(::getpid()) + "." + name;
}

// Threads in this process right now (Linux: one /proc/self/task entry
// per thread).
inline size_t ProcessThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<size_t>(std::distance(
      std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

// ProcessThreadCount() once two reads 10 ms apart agree: a thread that
// was joined can stay listed for a moment while it exits. Gives up after
// 2 s and returns the last read.
inline size_t SettledThreadCount() {
  size_t last = ProcessThreadCount();
  for (int i = 0; i < 200; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const size_t now = ProcessThreadCount();
    if (now == last) break;
    last = now;
  }
  return last;
}

// The value the default registry exposes for counter series `name` (0
// before anything registers it): for an owned series, the sum over its
// live and destroyed owners.
inline uint64_t CounterSeries(std::string_view name) {
  for (const auto& m : obs::MetricsRegistry::Default().Snapshot()) {
    if (m.name == name) return m.counter_value;
  }
  return 0;
}

// `sketch` frozen on the heap: what an EstimationService serves.
inline std::shared_ptr<const core::FrozenSynopsis> Freeze(
    const core::TwigXSketch& sketch) {
  return std::make_shared<const core::FrozenSynopsis>(sketch);
}

}  // namespace xsketch

#endif  // XSKETCH_TESTS_TEST_ENV_H_
