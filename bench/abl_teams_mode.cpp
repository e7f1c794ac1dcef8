// Ablation (paper section 5.1 / Jacob et al. [17]): the cost of the
// teams-generic execution model — an extra warp hosting the team main
// thread plus block-level state-machine barriers per parallel region —
// versus SPMD teams, on the same 2-level kernel.
#include <benchmark/benchmark.h>

#include "apps/laplace3d.h"
#include "bench_common.h"
#include "dsl/dsl.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

/// laplace-style work through an explicit teams-mode launch: the
/// distribute loop runs per team and each plane opens a parallel
/// region, which is where teams-generic pays its block barriers.
uint64_t runTeamsMode(omprt::ExecMode teams_mode) {
  gpusim::Device dev;
  dsl::LaunchSpec spec;
  spec.numTeams = 64;
  spec.threadsPerTeam = 128;
  spec.teamsMode = teams_mode;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 1;
  auto stats = dsl::targetTeamsDistribute(
      dev, spec, 1024, [&](dsl::OmpContext& ctx, uint64_t) {
        dsl::parallelFor(
            ctx, 128,
            [](dsl::OmpContext& c, uint64_t) {
              c.gpu().chargeGlobalLoad(2);
              c.gpu().fma(2);
              c.gpu().chargeGlobalStore();
            },
            spec.parallelConfig());
      });
  return checkOk(stats, "teams-mode kernel").cycles;
}

void BM_TeamsMode(benchmark::State& state) {
  const auto mode = static_cast<omprt::ExecMode>(state.range(0));
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runTeamsMode(mode);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_TeamsMode)
    ->Arg(static_cast<int>(omprt::ExecMode::kSPMD))
    ->Arg(static_cast<int>(omprt::ExecMode::kGeneric))
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const uint64_t spmd = runTeamsMode(omprt::ExecMode::kSPMD);
  const uint64_t generic = runTeamsMode(omprt::ExecMode::kGeneric);
  bench::printTable(
      "Ablation: teams execution mode (extra main warp + state machine)",
      "teams SPMD", spmd,
      {{"teams generic", generic,
        static_cast<double>(spmd) / static_cast<double>(generic)}});
  return bench::exitCode(bench::writeBenchJson("abl_teams_mode"));
}
