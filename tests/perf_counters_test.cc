#include "obs/perf/perf_counters.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace ossm {
namespace obs {
namespace perf {
namespace {

// These tests must pass both on bare metal (PMU present) and in CI
// containers (perf_event_open denied or no PMU): nothing below asserts
// that a hardware counter actually counted, only that the degradation
// contract holds.

TEST(PerfReadingTest, EmptyReadingHasNothing) {
  PerfReading reading;
  EXPECT_FALSE(reading.AnyAvailable());
  EXPECT_FALSE(reading.HasIpc());
  EXPECT_EQ(reading.Ipc(), 0.0);
  for (size_t i = 0; i < kNumPerfCounters; ++i) {
    EXPECT_FALSE(reading.Has(static_cast<PerfCounter>(i)));
    EXPECT_EQ(reading.Value(static_cast<PerfCounter>(i)), 0u);
  }
}

TEST(PerfReadingTest, IpcNeedsBothCounters) {
  PerfReading reading;
  reading.available[static_cast<size_t>(PerfCounter::kCycles)] = true;
  reading.value[static_cast<size_t>(PerfCounter::kCycles)] = 1000;
  EXPECT_FALSE(reading.HasIpc());  // instructions missing

  reading.available[static_cast<size_t>(PerfCounter::kInstructions)] = true;
  reading.value[static_cast<size_t>(PerfCounter::kInstructions)] = 2500;
  EXPECT_TRUE(reading.HasIpc());
  EXPECT_DOUBLE_EQ(reading.Ipc(), 2.5);
  EXPECT_TRUE(reading.AnyAvailable());
}

TEST(PerfReadingTest, IpcWithZeroCyclesIsZeroNotNan) {
  PerfReading reading;
  reading.available[static_cast<size_t>(PerfCounter::kCycles)] = true;
  reading.available[static_cast<size_t>(PerfCounter::kInstructions)] = true;
  reading.value[static_cast<size_t>(PerfCounter::kInstructions)] = 10;
  EXPECT_EQ(reading.Ipc(), 0.0);
}

TEST(PerfReadingTest, MultiplexScaleIsOneWhenNeverDescheduled) {
  PerfReading reading;
  reading.time_enabled_ns = 1000;
  reading.time_running_ns = 1000;
  EXPECT_DOUBLE_EQ(reading.MultiplexScale(), 1.0);
  reading.time_running_ns = 250;
  EXPECT_DOUBLE_EQ(reading.MultiplexScale(), 4.0);
}

TEST(PerfCounterNameTest, NamesAreStableRegistrySuffixes) {
  EXPECT_EQ(PerfCounterName(PerfCounter::kCycles), "cycles");
  EXPECT_EQ(PerfCounterName(PerfCounter::kInstructions), "instructions");
  EXPECT_EQ(PerfCounterName(PerfCounter::kLlcMisses), "llc_misses");
  EXPECT_EQ(PerfCounterName(PerfCounter::kDtlbMisses), "dtlb_misses");
  EXPECT_EQ(PerfCounterName(PerfCounter::kTaskClockNs), "task_clock_ns");
}

TEST(PerfDeltaTest, SubtractsPerCounterAndSaturates) {
  PerfReading start, end;
  auto slot = [](PerfCounter c) { return static_cast<size_t>(c); };
  start.available[slot(PerfCounter::kCycles)] = true;
  start.value[slot(PerfCounter::kCycles)] = 100;
  end.available[slot(PerfCounter::kCycles)] = true;
  end.value[slot(PerfCounter::kCycles)] = 175;
  // A counter live only at the end (opened between readings) must not
  // produce a bogus giant delta.
  end.available[slot(PerfCounter::kContextSwitches)] = true;
  end.value[slot(PerfCounter::kContextSwitches)] = 7;
  start.time_enabled_ns = 10;
  end.time_enabled_ns = 50;

  PerfReading delta = Delta(start, end);
  EXPECT_TRUE(delta.Has(PerfCounter::kCycles));
  EXPECT_EQ(delta.Value(PerfCounter::kCycles), 75u);
  EXPECT_EQ(delta.time_enabled_ns, 40u);

  // Saturating: a reset/wrapped counter reads 0, not a huge unsigned.
  PerfReading wrapped = Delta(end, start);
  EXPECT_EQ(wrapped.Value(PerfCounter::kCycles), 0u);
}

TEST(PerfGroupTest, ForcedUnavailableBehavesLikeEpermContainer) {
  ForcePerfUnavailableForTest(true);
  {
    PerfCounterGroup group;
    EXPECT_FALSE(group.available());
    group.Start();  // all of these must be harmless no-ops
    PerfReading reading = group.Stop();
    EXPECT_FALSE(reading.AnyAvailable());
    EXPECT_FALSE(group.ReadNow().AnyAvailable());
  }
  EXPECT_FALSE(PerfCountersAvailable());
  EXPECT_FALSE(PerfUnavailableReason().empty());
  {
    InheritedPerfCounters inherited;
    EXPECT_FALSE(inherited.available());
    EXPECT_FALSE(inherited.ReadNow().AnyAvailable());
  }
  ForcePerfUnavailableForTest(false);
}

TEST(PerfGroupTest, GroupLifecycleMatchesProbe) {
  // Whatever the environment grants, the scoped group must agree with the
  // process-wide probe and never crash through a full lifecycle.
  PerfCounterGroup group;
  group.Start();
  // Burn a little CPU so live counters have something to count.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 100000; ++i) sink = sink + i * i;
  PerfReading reading = group.Stop();
  if (group.available()) {
    EXPECT_TRUE(PerfCountersAvailable());
    EXPECT_TRUE(reading.AnyAvailable());
    // task-clock is a software event: when anything opened at all, the
    // software group essentially always does.
    if (reading.Has(PerfCounter::kTaskClockNs)) {
      EXPECT_GT(reading.Value(PerfCounter::kTaskClockNs), 0u);
    }
  } else {
    EXPECT_FALSE(reading.AnyAvailable());
  }
}

TEST(PerfPhaseTest, FinishIsEmptyWhenForcedUnavailable) {
  ForcePerfUnavailableForTest(true);
  PerfPhase phase;
  EXPECT_FALSE(phase.Finish().AnyAvailable());
  ForcePerfUnavailableForTest(false);
}

TEST(RecordPhasePerfTest, WritesOnlyAvailableSlotsUnderPhasePrefix) {
  EnableMetricsCollection();
  PerfReading delta;
  delta.available[static_cast<size_t>(PerfCounter::kCycles)] = true;
  delta.value[static_cast<size_t>(PerfCounter::kCycles)] = 123;
  delta.available[static_cast<size_t>(PerfCounter::kLlcMisses)] = true;
  delta.value[static_cast<size_t>(PerfCounter::kLlcMisses)] = 0;  // zero: skip
  RecordPhasePerf("unit_phase", delta);

  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  bool saw_cycles = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "perf.unit_phase.cycles") {
      saw_cycles = true;
      EXPECT_EQ(value, 123u);
    }
    EXPECT_NE(name, "perf.unit_phase.llc_misses");      // zero skipped
    EXPECT_NE(name, "perf.unit_phase.instructions");    // unavailable
  }
  EXPECT_TRUE(saw_cycles);
}

TEST(PerfSpansTest, DisabledWithoutEnv) {
  // The test binary does not set OSSM_PERF=spans; the span hook must be
  // off so TraceSpan stays zero-overhead by default.
  if (const char* env = std::getenv("OSSM_PERF");
      env != nullptr && std::string(env) == "spans") {
    GTEST_SKIP() << "OSSM_PERF=spans set in the environment";
  }
  EXPECT_FALSE(PerfSpansEnabled());
}

}  // namespace
}  // namespace perf
}  // namespace obs
}  // namespace ossm
