// Ablation (paper section 5.4.1): AMD wavefront-64 architecture with
// no warp-level barriers. Generic-SIMD is unsupported there — requested
// groups degrade to size 1 and simd loops run sequentially — while
// SPMD-SIMD keeps working (implicit wavefront lockstep).
#include <benchmark/benchmark.h>

#include "apps/ideal_kernel.h"
#include "bench_common.h"
#include "gpusim/device.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::checkVerified;
using bench::Row;

const apps::IdealWorkload& workload() {
  static const apps::IdealWorkload w = apps::generateIdeal(1728, 32, 5);
  return w;
}

uint64_t runOn(gpusim::ArchSpec arch, uint32_t simdlen) {
  gpusim::Device dev(std::move(arch));
  apps::IdealOptions options;
  options.numTeams = 54;
  options.threadsPerTeam = 128;
  options.simdlen = simdlen;
  options.flopsPerElement = 4;
  const auto result = checkOk(runIdeal(dev, workload(), options), "ideal");
  checkVerified(result.verified, "ideal");
  return result.stats.cycles;
}

void BM_ArchSimd(benchmark::State& state) {
  const bool amd = state.range(0) != 0;
  const auto simdlen = static_cast<uint32_t>(state.range(1));
  uint64_t cycles = 0;
  for (auto _ : state) {
    cycles = runOn(amd ? gpusim::ArchSpec::amdMI100()
                       : gpusim::ArchSpec::nvidiaA100(),
                   simdlen);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_ArchSimd)
    ->Args({0, 1})
    ->Args({0, 32})
    ->Args({1, 1})
    ->Args({1, 32})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // The ideal kernel runs its parallel region in generic mode when
  // simdlen > 1, which is exactly the path AMD cannot take.
  const uint64_t nv_base = runOn(gpusim::ArchSpec::nvidiaA100(), 1);
  const uint64_t nv_simd = runOn(gpusim::ArchSpec::nvidiaA100(), 32);
  bench::printTable(
      "Ablation: NVIDIA generic-SIMD (warp barriers available)",
      "nvidia no-simd", nv_base,
      {{"nvidia simd group 32", nv_simd,
        static_cast<double>(nv_base) / static_cast<double>(nv_simd)}});

  const uint64_t amd_base = runOn(gpusim::ArchSpec::amdMI100(), 1);
  const uint64_t amd_simd = runOn(gpusim::ArchSpec::amdMI100(), 32);
  bench::printTable(
      "Ablation: AMD generic-SIMD falls back to sequential simd",
      "amd no-simd", amd_base,
      {{"amd simd group 32 (degraded)", amd_simd,
        static_cast<double>(amd_base) / static_cast<double>(amd_simd)}});
  return bench::exitCode(bench::writeBenchJson("abl_amd_fallback"));
}
