#include "obs/perf/profiler.h"

#include <unistd.h>

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace ossm {
namespace obs {
namespace perf {
namespace {

// Spins process CPU time so ITIMER_PROF (which counts CPU, not wall time)
// actually fires. Returns the sink to keep the loop un-optimizable.
uint64_t BurnCpu(double seconds) {
  volatile uint64_t sink = 0;
  double budget = seconds * 1e6;
  // ~1µs per inner chunk on anything modern; recheck the profiler's own
  // sample counter is cheaper than clock_gettime in a signal-heavy loop.
  for (double spent = 0; spent < budget; spent += 1.0) {
    for (int i = 0; i < 400; ++i) sink = sink + sink * 31 + i;
  }
  return sink;
}

TEST(SamplingProfilerTest, CapturesAndFoldsStacks) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  ASSERT_FALSE(profiler.running());
  ASSERT_TRUE(profiler.Start(/*hz=*/500));
  EXPECT_TRUE(profiler.running());
  BurnCpu(0.3);
  std::string folded = profiler.Stop();
  EXPECT_FALSE(profiler.running());
  // 0.3s CPU at 500 Hz should land well over one sample even under load.
  EXPECT_GT(profiler.samples(), 0u);
  ASSERT_FALSE(folded.empty());

  // Every line must be flamegraph.pl input: "frame(;frame)* count".
  std::istringstream lines(folded);
  std::string line;
  uint64_t total = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    uint64_t count = std::stoull(line.substr(space + 1));
    EXPECT_GT(count, 0u) << line;
    total += count;
    // Frames never contain spaces or a stray separator at the edges.
    std::string stack = line.substr(0, space);
    EXPECT_EQ(stack.find(' '), std::string::npos) << line;
    EXPECT_NE(stack.front(), ';') << line;
    EXPECT_NE(stack.back(), ';') << line;
  }
  // Folding can discard malformed captures (depth <= 0) but never invents
  // samples.
  EXPECT_GT(total, 0u);
  EXPECT_LE(total, profiler.samples() - profiler.dropped());
}

TEST(SamplingProfilerTest, SecondStartIsRejectedWhileRunning) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  ASSERT_TRUE(profiler.Start(97));
  EXPECT_FALSE(profiler.Start(97));  // process-global: one at a time
  profiler.Stop();
  // After Stop() the profiler is reusable.
  ASSERT_TRUE(profiler.Start(97));
  profiler.Stop();
}

TEST(SamplingProfilerTest, StopWithoutSamplesIsEmptyNotAnError) {
  SamplingProfiler& profiler = SamplingProfiler::Global();
  // 1 Hz and an immediate stop: no SIGPROF can have fired yet.
  ASSERT_TRUE(profiler.Start(1));
  std::string folded = profiler.Stop();
  EXPECT_TRUE(folded.empty());
  EXPECT_EQ(profiler.samples(), profiler.dropped());
}

}  // namespace
}  // namespace perf
}  // namespace obs
}  // namespace ossm
