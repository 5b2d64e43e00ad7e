// Kernel-layer throughput: every dispatched kernel measured at every ISA
// level this machine supports, over 64-byte-aligned rows sized to the
// structures the library actually runs them on (segment rows for the
// min/sum family, bitmap rows for the popcount family).
//
// Reported values, all measurements (bench_compare prints their deltas
// and never gates on them):
//   <kernel>_<isa>_gib_per_s    bytes touched per second
//   <kernel>_<isa>_elems_per_s  elements (words) per second
//   <kernel>_speedup            best vectorized level over scalar
// The speedups are the acceptance numbers: min_sum and and_popcount are
// expected >= 2x on AVX2 hardware. The harness publishes no results:
// what a kernel computes is pinned by KernelsDifferentialTest, which holds
// every ISA level to the scalar reference.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/aligned.h"
#include "common/random.h"
#include "common/table_printer.h"
#include "kernels/kernels.h"

namespace ossm {
namespace {

using kernels::Isa;
using kernels::KernelOps;

struct Workload {
  AlignedVector<uint64_t> a;
  AlignedVector<uint64_t> b;
  AlignedVector<uint64_t> out;
};

Workload MakeWorkload(size_t n, uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.a.resize(n);
  w.b.resize(n);
  w.out.resize(n, 0);
  for (size_t i = 0; i < n; ++i) {
    w.a[i] = rng.Next();
    w.b[i] = rng.Next();
  }
  return w;
}

// One kernel drive: repeats until ~`budget_seconds` of work, returns
// elements per second. `bytes_per_elem` is how many input/output bytes one
// element touches (for the GiB/s figure).
struct Measurement {
  double elems_per_s = 0.0;
  double gib_per_s = 0.0;
  uint64_t checksum = 0;  // defeats dead-code elimination; printed nowhere
  uint64_t elems_processed = 0;  // repeats * n, for per-element miss rates
  obs::perf::PerfReading perf;   // hardware counters over the timed loop
};

template <typename Fn>
Measurement Drive(size_t n, double bytes_per_elem, Fn&& fn) {
  // Calibrate: one untimed pass, then scale repeats to ~30ms of work.
  WallTimer calibrate;
  uint64_t checksum = fn();
  double once = std::max(calibrate.ElapsedSeconds(), 1e-9);
  uint64_t repeats = std::max<uint64_t>(1, static_cast<uint64_t>(0.03 / once));

  obs::perf::PerfPhase perf;
  WallTimer timer;
  for (uint64_t r = 0; r < repeats; ++r) {
    checksum += fn();
  }
  double elapsed = std::max(timer.ElapsedSeconds(), 1e-9);
  Measurement m;
  m.perf = perf.Finish();
  m.elems_per_s =
      static_cast<double>(repeats) * static_cast<double>(n) / elapsed;
  m.gib_per_s = m.elems_per_s * bytes_per_elem / (1024.0 * 1024.0 * 1024.0);
  m.checksum = checksum;
  m.elems_processed = repeats * n;
  return m;
}

struct KernelCase {
  std::string name;
  double bytes_per_elem;
  // Runs the kernel once over the workload, returning a value derived from
  // its output.
  uint64_t (*run)(const KernelOps&, Workload&);
};

const KernelCase kCases[] = {
    {"min_sum", 16.0,
     [](const KernelOps& ops, Workload& w) {
       return ops.min_sum(w.a.data(), w.b.data(), w.a.size());
     }},
    {"min_accumulate", 24.0,
     [](const KernelOps& ops, Workload& w) {
       ops.min_accumulate(w.out.data(), w.b.data(), w.out.size());
       return w.out[0];
     }},
    {"sum", 8.0,
     [](const KernelOps& ops, Workload& w) {
       return ops.sum(w.a.data(), w.a.size());
     }},
    {"and_popcount", 16.0,
     [](const KernelOps& ops, Workload& w) {
       return ops.and_popcount(w.a.data(), w.b.data(), w.a.size());
     }},
    {"and_count", 24.0,
     [](const KernelOps& ops, Workload& w) {
       return ops.and_count(w.a.data(), w.b.data(), w.out.data(),
                            w.a.size());
     }},
    {"popcount", 8.0,
     [](const KernelOps& ops, Workload& w) {
       return ops.popcount(w.a.data(), w.a.size());
     }},
};

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv, {"scale", "seed", "elems", "report"});
  bench::BenchReporter reporter("kernels", flags);
  bool paper = flags.PaperScale();
  // Row length in words. The default (2048 = 16 KiB per operand) keeps the
  // working set L1-resident so the figure measures the kernel, not the
  // cache hierarchy — matching real use, where segment-map rows are
  // hundreds of words. --scale=paper sizes bitmap rows instead (65536
  // words = 4M transactions), where the AND/popcount family dominates.
  size_t n = flags.GetInt<size_t>("elems", paper ? 65536 : 2048);
  uint64_t seed = flags.GetInt<uint64_t>("seed", 1);

  std::vector<Isa> isas = kernels::SupportedIsas();
  std::printf("Kernel throughput — %zu-word rows, levels:",
              n);
  for (Isa isa : isas) {
    std::printf(" %s", std::string(kernels::IsaName(isa)).c_str());
  }
  std::printf("\n\n");
  reporter.SetWorkload("elems", static_cast<uint64_t>(n));
  reporter.SetWorkload("seed", seed);
  reporter.SetWorkload("isas", static_cast<uint64_t>(isas.size()));

  TablePrinter table({"kernel", "isa", "GiB/s", "Melem/s", "vs scalar"});
  uint64_t sink = 0;
  for (const KernelCase& kernel : kCases) {
    double scalar_rate = 0.0;
    double best_speedup = 1.0;
    for (Isa isa : isas) {
      const KernelOps& ops = kernels::OpsFor(isa);
      Workload w = MakeWorkload(n, seed);
      Measurement m = Drive(n, kernel.bytes_per_elem,
                            [&] { return kernel.run(ops, w); });
      sink += m.checksum;
      std::string isa_name(kernels::IsaName(isa));
      if (isa == Isa::kScalar) scalar_rate = m.elems_per_s;
      double speedup = scalar_rate > 0 ? m.elems_per_s / scalar_rate : 1.0;
      best_speedup = std::max(best_speedup, speedup);
      char gib[32], melem[32], rel[32];
      std::snprintf(gib, sizeof(gib), "%.2f", m.gib_per_s);
      std::snprintf(melem, sizeof(melem), "%.1f", m.elems_per_s / 1e6);
      std::snprintf(rel, sizeof(rel), "%.2fx", speedup);
      table.AddRow({kernel.name, isa_name, gib, melem, rel});
      reporter.AddValue(kernel.name + "_" + isa_name + "_gib_per_s",
                        m.gib_per_s);
      reporter.AddValue(kernel.name + "_" + isa_name + "_elems_per_s",
                        m.elems_per_s);
      // Microarchitectural evidence when the PMU is available: IPC per
      // kernel/ISA and LLC misses amortized per element. The keys are
      // absent when there is no PMU or that counter is denied.
      if (m.perf.HasIpc()) {
        reporter.AddValue(kernel.name + "_" + isa_name + "_ipc",
                          m.perf.Ipc());
      }
      if (m.perf.Has(obs::perf::PerfCounter::kLlcMisses) &&
          m.elems_processed > 0) {
        reporter.AddValue(
            kernel.name + "_" + isa_name + "_llc_miss_per_elem",
            static_cast<double>(
                m.perf.Value(obs::perf::PerfCounter::kLlcMisses)) /
                static_cast<double>(m.elems_processed));
      }
      obs::perf::RecordPhasePerf("kernels." + kernel.name + "_" + isa_name,
                                 m.perf);
    }
    if (isas.size() > 1) {
      reporter.AddValue(kernel.name + "_speedup", best_speedup);
    }
  }
  table.Print(std::cout);
  if (sink == 0x6f73736d) std::printf("\n");  // keep `sink` observable
  if (!obs::perf::PerfCountersAvailable()) {
    std::printf("(perf counters unavailable: %s)\n",
                obs::perf::PerfUnavailableReason().c_str());
  }

  bench::ReportMetrics();
  return reporter.Finish();
}

}  // namespace
}  // namespace ossm

int main(int argc, char** argv) { return ossm::Run(argc, argv); }
