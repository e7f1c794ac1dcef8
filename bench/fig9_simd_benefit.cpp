// Paper Fig. 9: speedup of the 3-level simd implementation over the
// original two levels of parallelism, for all SIMD group sizes.
//
// Kernels and expected shapes (paper section 6.3):
//   sparse_matvec — max ~3.5x, best at group size 8 (skewed row lengths
//                   around a small mean; 2-level baseline uses 32-thread
//                   teams in generic mode);
//   SU3_bench     — max ~1.3x, best at group size 4 with 2 and 8 close
//                   (36-iteration inner loop, saturated 2-level
//                   baseline; gains come from reducing idle threads);
//   ideal kernel  — ~2.15x at group size 32 with 16 very close (inner
//                   loop fits one warp; outer loop too small to fill
//                   the device two-level).
#include <benchmark/benchmark.h>

#include "apps/csr.h"
#include "apps/ideal_kernel.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"
#include "bench_common.h"
#include "gpusim/device.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::checkVerified;
using bench::Row;

constexpr uint32_t kGroupSizes[] = {2, 4, 8, 16, 32};

// ---------------- sparse_matvec ----------------

apps::CsrMatrix spmvMatrix() {
  apps::CsrGenConfig config;
  config.numRows = 4096;
  config.numCols = 4096;
  config.meanRowLength = 8;
  config.maxRowLength = 64;
  config.seed = 42;
  return generateCsr(config);
}

uint64_t runSpmvCycles(const apps::SpmvOptions& options,
                       double* host_ms = nullptr) {
  gpusim::Device dev;  // fresh A100-like device per run
  static const apps::CsrMatrix A = spmvMatrix();
  const bench::WallTimer timer;
  const auto result = checkOk(runSpmv(dev, A, options), "sparse_matvec");
  if (host_ms != nullptr) *host_ms = timer.elapsedMs();
  checkVerified(result.verified, "sparse_matvec");
  return result.stats.cycles;
}

apps::SpmvOptions spmvBaselineOptions() {
  apps::SpmvOptions options;
  options.variant = apps::SpmvVariant::kTwoLevel;
  // Best 2-level configuration found by sweeping teams/threads (the
  // paper compares against a tuned baseline); 32-thread teams are
  // strictly worse here, so using them would inflate the speedup.
  options.numTeams = 108;
  options.threadsPerTeam = 128;
  return options;
}

apps::SpmvOptions spmvSimdOptions(uint32_t group) {
  apps::SpmvOptions options;
  options.variant = apps::SpmvVariant::kThreeLevelAtomic;
  options.numTeams = 64;  // "a much larger thread count per OpenMP team"
  options.threadsPerTeam = 256;
  options.simdlen = group;
  return options;
}

void BM_SpmvTwoLevel(benchmark::State& state) {
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runSpmvCycles(spmvBaselineOptions());
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_SpmvTwoLevel)->Iterations(1)->Unit(benchmark::kMillisecond);

uint64_t spmvBaselineCycles() {
  static const uint64_t cycles = runSpmvCycles(spmvBaselineOptions());
  return cycles;
}

void BM_SpmvSimd(benchmark::State& state) {
  const auto group = static_cast<uint32_t>(state.range(0));
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runSpmvCycles(spmvSimdOptions(group));
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  state.counters["speedup"] = static_cast<double>(spmvBaselineCycles()) /
                              static_cast<double>(cycles);
}
BENCHMARK(BM_SpmvSimd)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------- SU3_bench ----------------

const apps::Su3Workload& su3Workload() {
  static const apps::Su3Workload w = apps::generateSu3(5120, 3);
  return w;
}

uint64_t runSu3Cycles(uint32_t group) {
  gpusim::Device dev;
  apps::Su3Options options;
  options.numTeams = 32;
  options.threadsPerTeam = 128;
  options.simdlen = group;
  const auto result = checkOk(runSu3(dev, su3Workload(), options), "su3");
  checkVerified(result.verified, "su3");
  return result.stats.cycles;
}

uint64_t su3BaselineCycles() {
  static const uint64_t cycles = runSu3Cycles(1);
  return cycles;
}

void BM_Su3(benchmark::State& state) {
  const auto group = static_cast<uint32_t>(state.range(0));
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runSu3Cycles(group);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  if (group > 1) {
    state.counters["speedup"] = static_cast<double>(su3BaselineCycles()) /
                                static_cast<double>(cycles);
  }
}
BENCHMARK(BM_Su3)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------- ideal benchmarking kernel ----------------

const apps::IdealWorkload& idealWorkload() {
  static const apps::IdealWorkload w = apps::generateIdeal(432, 32, 5);
  return w;
}

uint64_t runIdealCycles(uint32_t group) {
  gpusim::Device dev;
  apps::IdealOptions options;
  options.numTeams = 108;
  options.threadsPerTeam = 128;
  options.simdlen = group;
  options.flopsPerElement = 2;
  const auto result =
      checkOk(runIdeal(dev, idealWorkload(), options), "ideal");
  checkVerified(result.verified, "ideal");
  return result.stats.cycles;
}

uint64_t idealBaselineCycles() {
  static const uint64_t cycles = runIdealCycles(1);
  return cycles;
}

void BM_Ideal(benchmark::State& state) {
  const auto group = static_cast<uint32_t>(state.range(0));
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runIdealCycles(group);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  if (group > 1) {
    state.counters["speedup"] = static_cast<double>(idealBaselineCycles()) /
                                static_cast<double>(cycles);
  }
}
BENCHMARK(BM_Ideal)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Iterations(1)->Unit(benchmark::kMillisecond);

// ---------------- Paper-style summary ----------------

void printFig9Summary() {
  {
    const uint64_t base = spmvBaselineCycles();
    std::vector<Row> rows;
    for (uint32_t g : kGroupSizes) {
      const uint64_t c = runSpmvCycles(spmvSimdOptions(g));
      rows.push_back({"simd group " + std::to_string(g), c,
                      static_cast<double>(base) / static_cast<double>(c)});
    }
    bench::printTable("Fig. 9a sparse_matvec (paper: max ~3.5x @ group 8)",
                      "2-level (teams+parallel)", base, rows);
  }
  {
    const uint64_t base = su3BaselineCycles();
    std::vector<Row> rows;
    for (uint32_t g : kGroupSizes) {
      const uint64_t c = runSu3Cycles(g);
      rows.push_back({"simd group " + std::to_string(g), c,
                      static_cast<double>(base) / static_cast<double>(c)});
    }
    bench::printTable("Fig. 9b SU3_bench (paper: max ~1.3x @ group 4)",
                      "2-level (serial inner loop)", base, rows);
  }
  {
    const uint64_t base = idealBaselineCycles();
    std::vector<Row> rows;
    for (uint32_t g : kGroupSizes) {
      const uint64_t c = runIdealCycles(g);
      rows.push_back({"simd group " + std::to_string(g), c,
                      static_cast<double>(base) / static_cast<double>(c)});
    }
    bench::printTable("Fig. 9c ideal kernel (paper: ~2.15x @ group 32)",
                      "2-level (serial inner loop)", base, rows);
  }
}

// Host-parallel block execution: same spmv kernel, same simulated
// cycles, wall-clock scaled by spreading independent teams over host
// workers. Speedup here is host-time speedup over the 1-worker serial
// run; the table asserts (via the cycle column) that the modeled
// results don't move.
void printHostParallelSummary() {
  constexpr uint32_t kWorkerCounts[] = {2, 4, 8};
  apps::SpmvOptions options = spmvSimdOptions(8);
  options.hostWorkers = 1;
  double serial_ms = 0.0;
  const uint64_t serial_cycles = runSpmvCycles(options, &serial_ms);

  std::vector<Row> rows;
  rows.push_back({"host workers 1 (serial)", serial_cycles, 1.0, serial_ms});
  for (uint32_t workers : kWorkerCounts) {
    options.hostWorkers = workers;
    double ms = 0.0;
    const uint64_t cycles = runSpmvCycles(options, &ms);
    if (cycles != serial_cycles) {
      std::fprintf(stderr,
                   "FATAL: host workers %u changed simulated cycles "
                   "(%llu vs %llu)\n",
                   workers, static_cast<unsigned long long>(cycles),
                   static_cast<unsigned long long>(serial_cycles));
      std::abort();
    }
    rows.push_back({"host workers " + std::to_string(workers), cycles,
                    serial_ms / ms, ms});
  }
  bench::printTable(
      "Host-parallel blocks: spmv simd group 8 (cycles must not move)",
      "host workers 1 (serial)", serial_cycles, rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printFig9Summary();
  printHostParallelSummary();
  return bench::exitCode(bench::writeBenchJson("fig9_simd_benefit"));
}
