// Proxy application benchmark: conjugate gradient on a 2-D Poisson
// problem (paper section 6.3 evaluates "proxy applications that mirror
// real-world science codes"). The solver's hot loop combines the
// paper's 3-level SpMV shape with hierarchical reductions and
// element-wise kernels.
//
// This experiment reproduces the paper's *negative* guidance (section
// 6.5): the Poisson matrix has only 3-5 nonzeros per row, so the
// generic-SIMD machinery costs more than the lane parallelism returns,
// and the SpMV share of a whole solve is small (Amdahl) — "it is still
// likely best practice to use only two-leveled parallelism when all
// three levels are unneeded." Compare bench/fig9_simd_benefit, where
// the skewed mean-8 matrix rewards simdlen(8) with ~4.5x.
#include <benchmark/benchmark.h>

#include <map>

#include "apps/cg_solver.h"
#include "bench_common.h"
#include "gpusim/device.h"

namespace {

using namespace simtomp;
using bench::Row;

const apps::CgWorkload& workload() {
  static const apps::CgWorkload w = apps::generateCgPoisson(32, 13);
  return w;
}

apps::CgResult runWithSimdlenUncached(uint32_t simdlen);

apps::CgResult runWithSimdlen(uint32_t simdlen) {
  // A full solve is hundreds of simulated kernels; memoize so the
  // benchmark phase and the printed summary share one solve per config.
  static std::map<uint32_t, apps::CgResult> cache;
  auto it = cache.find(simdlen);
  if (it == cache.end()) {
    it = cache.emplace(simdlen, runWithSimdlenUncached(simdlen)).first;
  }
  return it->second;
}

apps::CgResult runWithSimdlenUncached(uint32_t simdlen) {
  gpusim::Device dev;
  apps::CgOptions options;
  options.numTeams = 16;
  options.threadsPerTeam = 128;
  options.simdlen = simdlen;
  options.maxIterations = 150;
  options.relativeTolerance = 1e-6;
  auto result = runCg(dev, workload(), options);
  if (!result.isOk() || !result.value().verified) {
    std::fprintf(stderr, "CG failed (simdlen %u)\n", simdlen);
    std::abort();
  }
  return result.value();
}

void BM_CgSolve(benchmark::State& state) {
  const auto simdlen = static_cast<uint32_t>(state.range(0));
  apps::CgResult result;
  for (auto _ : state) result = runWithSimdlen(simdlen);
  state.counters["sim_cycles"] = static_cast<double>(result.totalCycles);
  state.counters["iterations"] = static_cast<double>(result.iterations);
  state.counters["spmv_cycles"] = static_cast<double>(result.spmvCycles);
}
BENCHMARK(BM_CgSolve)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const apps::CgResult base = runWithSimdlen(1);
  std::vector<Row> rows;
  for (uint32_t simdlen : {2u, 4u, 8u}) {
    const apps::CgResult r = runWithSimdlen(simdlen);
    rows.push_back(
        {"simdlen " + std::to_string(simdlen) + " (spmv " +
             std::to_string(r.spmvCycles) + ")",
         r.totalCycles,
         static_cast<double>(base.totalCycles) /
             static_cast<double>(r.totalCycles)});
  }
  bench::printTable(
      ("Proxy app: CG on 32x32 Poisson, " + std::to_string(base.iterations) +
       " iterations (spmv/dot/axpy pipeline)")
          .c_str(),
      "simdlen 1 (no third level)", base.totalCycles, rows);
  return bench::exitCode(bench::writeBenchJson("proxy_cg"));
}
