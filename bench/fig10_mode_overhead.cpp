// Paper Fig. 10: relative speedup of the SIMD execution modes versus
// the "No SIMD" two-level baseline (teams SPMD, group size 32,
// consistent teams/threads across all modes).
//
// Expected shape (paper section 6.4): SPMD-SIMD performs like "No
// SIMD" (laplace3d and muram_interpol marginally better), generic-SIMD
// loses roughly 15% to the state machine and its synchronization.
#include <benchmark/benchmark.h>

#include <functional>

#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "bench_common.h"
#include "gpusim/device.h"

namespace {

using namespace simtomp;
using apps::SimdMode;
using bench::checkOk;
using bench::checkVerified;
using bench::Row;

constexpr SimdMode kModes[] = {SimdMode::kNoSimd, SimdMode::kSpmdSimd,
                               SimdMode::kGenericSimd};

// Grids long in the fastest (simd) dimension, as the MURaM and
// heat-diffusion codes are: 1,024 (i,j) planes over 8 teams of 128
// threads — exactly one plane per thread in the No-SIMD baseline, so
// the comparison starts from a saturated 2-level configuration ("the
// number of teams and threads-per-team is kept consistent"), and a
// ~256-point inner line so the per-loop simd overhead is amortized as
// it would be at production problem sizes.
constexpr uint32_t kTeams = 8;
constexpr uint32_t kThreads = 128;
constexpr uint32_t kGroup = 32;

const apps::Laplace3dWorkload& laplaceWorkload() {
  static const apps::Laplace3dWorkload w =
      apps::generateLaplace3d(34, 34, 258, 9);
  return w;
}

// Separate shapes so each kernel's simd trip count (nz for transpose,
// nz-1 for interpol) divides the 32-lane group evenly — otherwise the
// ceil-division remainder idles lanes and muddies the mode comparison.
const apps::MuramWorkload& transposeWorkload() {
  static const apps::MuramWorkload w = apps::generateMuram(32, 32, 256, 11);
  return w;
}

const apps::MuramWorkload& interpolWorkload() {
  static const apps::MuramWorkload w = apps::generateMuram(32, 32, 257, 11);
  return w;
}

uint64_t runLaplaceCyclesUncached(SimdMode mode);

uint64_t runLaplaceCycles(SimdMode mode) {
  // Each mode simulates a full kernel; memoize so the benchmark and
  // the printed summary do not re-run identical configurations.
  static uint64_t cache[3] = {0, 0, 0};
  uint64_t& slot = cache[static_cast<int>(mode)];
  if (slot == 0) slot = runLaplaceCyclesUncached(mode);
  return slot;
}

uint64_t runLaplaceCyclesUncached(SimdMode mode) {
  gpusim::Device dev;
  apps::Laplace3dOptions options;
  options.mode = mode;
  options.numTeams = kTeams;
  options.threadsPerTeam = kThreads;
  options.simdlen = kGroup;
  const auto result =
      checkOk(runLaplace3d(dev, laplaceWorkload(), options), "laplace3d");
  checkVerified(result.verified, "laplace3d");
  return result.stats.cycles;
}

uint64_t runTransposeCyclesUncached(SimdMode mode);

uint64_t runTransposeCycles(SimdMode mode) {
  // Each mode simulates a full kernel; memoize so the benchmark and
  // the printed summary do not re-run identical configurations.
  static uint64_t cache[3] = {0, 0, 0};
  uint64_t& slot = cache[static_cast<int>(mode)];
  if (slot == 0) slot = runTransposeCyclesUncached(mode);
  return slot;
}

uint64_t runTransposeCyclesUncached(SimdMode mode) {
  gpusim::Device dev;
  apps::MuramOptions options;
  options.mode = mode;
  options.numTeams = kTeams;
  options.threadsPerTeam = kThreads;
  options.simdlen = kGroup;
  const auto result = checkOk(runMuramTranspose(dev, transposeWorkload(), options),
                              "muram_transpose");
  checkVerified(result.verified, "muram_transpose");
  return result.stats.cycles;
}

uint64_t runInterpolCyclesUncached(SimdMode mode);

uint64_t runInterpolCycles(SimdMode mode) {
  // Each mode simulates a full kernel; memoize so the benchmark and
  // the printed summary do not re-run identical configurations.
  static uint64_t cache[3] = {0, 0, 0};
  uint64_t& slot = cache[static_cast<int>(mode)];
  if (slot == 0) slot = runInterpolCyclesUncached(mode);
  return slot;
}

uint64_t runInterpolCyclesUncached(SimdMode mode) {
  gpusim::Device dev;
  apps::MuramOptions options;
  options.mode = mode;
  options.numTeams = kTeams;
  options.threadsPerTeam = kThreads;
  options.simdlen = kGroup;
  const auto result = checkOk(runMuramInterpol(dev, interpolWorkload(), options),
                              "muram_interpol");
  checkVerified(result.verified, "muram_interpol");
  return result.stats.cycles;
}

void modeBenchmark(benchmark::State& state,
                   uint64_t (*run)(SimdMode mode)) {
  const auto mode = static_cast<SimdMode>(state.range(0));
  uint64_t cycles = 0;
  for (auto _ : state) cycles = run(mode);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  if (mode != SimdMode::kNoSimd) {
    state.counters["speedup_vs_nosimd"] =
        static_cast<double>(run(SimdMode::kNoSimd)) /
        static_cast<double>(cycles);
  }
}

void BM_Laplace3d(benchmark::State& state) {
  modeBenchmark(state, &runLaplaceCycles);
}
void BM_MuramTranspose(benchmark::State& state) {
  modeBenchmark(state, &runTransposeCycles);
}
void BM_MuramInterpol(benchmark::State& state) {
  modeBenchmark(state, &runInterpolCycles);
}

BENCHMARK(BM_Laplace3d)->Arg(0)->Arg(1)->Arg(2)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MuramTranspose)->Arg(0)->Arg(1)->Arg(2)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MuramInterpol)->Arg(0)->Arg(1)->Arg(2)->Iterations(1)->Unit(benchmark::kMillisecond);

void printSeries(const char* title, uint64_t (*run)(SimdMode mode)) {
  const uint64_t base = run(SimdMode::kNoSimd);
  std::vector<Row> rows;
  for (SimdMode mode : {SimdMode::kSpmdSimd, SimdMode::kGenericSimd}) {
    const uint64_t c = run(mode);
    rows.push_back({apps::simdModeName(mode), c,
                    static_cast<double>(base) / static_cast<double>(c)});
  }
  bench::printTable(title, "no-simd (2-level SPMD)", base, rows);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  printSeries("Fig. 10a laplace3d (paper: spmd ~1.0x, generic ~0.85x)",
              &runLaplaceCycles);
  printSeries("Fig. 10b muram_transpose (paper: spmd ~1.0x, generic ~0.85x)",
              &runTransposeCycles);
  printSeries("Fig. 10c muram_interpol (paper: spmd ~1.0x, generic ~0.85x)",
              &runInterpolCycles);
  return bench::exitCode(bench::writeBenchJson("fig10_mode_overhead"));
}
