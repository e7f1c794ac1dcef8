// Ablation (paper sections 6.3 and 7): the paper's sparse_matvec had to
// use "a less efficient atomic update" because the new loop API lacked
// reductions. We implement the future-work simd reduction (warp
// shuffle butterfly) and measure what the paper's result was paying.
#include <benchmark/benchmark.h>

#include "apps/csr.h"
#include "apps/sparse_matvec.h"
#include "bench_common.h"
#include "gpusim/device.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::checkVerified;
using bench::Row;

const apps::CsrMatrix& matrix() {
  static const apps::CsrMatrix A = [] {
    apps::CsrGenConfig config;
    config.numRows = 4096;
    config.numCols = 4096;
    config.meanRowLength = 8;
    config.maxRowLength = 64;
    return generateCsr(config);
  }();
  return A;
}

uint64_t runVariant(apps::SpmvVariant variant, uint32_t group) {
  gpusim::Device dev;
  apps::SpmvOptions options;
  options.variant = variant;
  options.numTeams = 64;
  options.threadsPerTeam = 256;
  options.simdlen = group;
  const auto result = checkOk(runSpmv(dev, matrix(), options), "spmv");
  checkVerified(result.verified, "spmv");
  return result.stats.cycles;
}

void BM_SpmvReduction(benchmark::State& state) {
  const bool reduction = state.range(0) != 0;
  const auto group = static_cast<uint32_t>(state.range(1));
  uint64_t cycles = 0;
  for (auto _ : state) {
    cycles = runVariant(reduction ? apps::SpmvVariant::kThreeLevelReduction
                                  : apps::SpmvVariant::kThreeLevelAtomic,
                        group);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_SpmvReduction)
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 16})
    ->Args({1, 16})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  for (uint32_t group : {4u, 8u, 16u}) {
    const uint64_t atomic =
        runVariant(apps::SpmvVariant::kThreeLevelAtomic, group);
    const uint64_t reduction =
        runVariant(apps::SpmvVariant::kThreeLevelReduction, group);
    bench::printTable(
        ("Ablation: spmv atomic vs simd reduction, group " +
         std::to_string(group))
            .c_str(),
        "atomic update (paper)", atomic,
        {{"simd reduction (future work)", reduction,
          static_cast<double>(atomic) / static_cast<double>(reduction)}});
  }
  return bench::exitCode(bench::writeBenchJson("abl_reduction"));
}
