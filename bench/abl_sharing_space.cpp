// Ablation (paper section 5.3.1): the size of the variable sharing
// space. LLVM reserved 1,024 bytes; the paper grows it to 2,048 to
// accommodate SIMD groups. A space too small for the active group
// count forces global-memory overflow allocations per simd loop.
//
// The workload uses small SIMD groups (many groups -> thin slices) and
// an argument-heavy simd body, so each halving of the space pushes
// more groups onto the overflow path.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dsl/dsl.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

struct SharingRun {
  uint64_t cycles = 0;
  uint64_t overflows = 0;
};

SharingRun runWithSpace(uint32_t bytes) {
  gpusim::Device dev;
  dsl::LaunchSpec spec;
  spec.numTeams = 64;
  spec.threadsPerTeam = 256;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kGeneric;
  // 32 groups per team: at 2,048 bytes each group's slice holds 7
  // pointer slots (>= the 6-slot payload below); at 1,024 bytes only 3,
  // so smaller spaces overflow to global memory.
  spec.simdlen = 8;
  spec.sharingSpaceBytes = bytes;
  auto stats = dsl::targetTeamsDistributeParallelFor(
      dev, spec, 64 * 64, [&](dsl::OmpContext& ctx, uint64_t) {
        double a = 1;
        double b = 2;
        double c = 3;
        double d = 4;
        double e = 5;
        auto body = [&a, &b, &c, &d, &e](dsl::OmpContext& inner, uint64_t) {
          inner.gpu().work(8);
          benchmark::DoNotOptimize(a + b + c + d + e);
        };
        auto outlined = loopir::outlineLoop(ctx, body, true, a, b, c, d, e);
        omprt::rt::simd(ctx, outlined.fn, 8, outlined.payload.data(),
                        outlined.payload.size());
      });
  const auto& s = checkOk(stats, "sharing-space kernel");
  return {s.cycles, s.counters.get(gpusim::Counter::kSharingSpaceOverflow)};
}

void BM_SharingSpace(benchmark::State& state) {
  const auto bytes = static_cast<uint32_t>(state.range(0));
  SharingRun run;
  for (auto _ : state) run = runWithSpace(bytes);
  state.counters["sim_cycles"] = static_cast<double>(run.cycles);
  state.counters["overflow_allocs"] = static_cast<double>(run.overflows);
}
BENCHMARK(BM_SharingSpace)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const SharingRun base = runWithSpace(2048);
  std::vector<Row> rows;
  for (uint32_t bytes : {512u, 1024u, 4096u}) {
    const SharingRun r = runWithSpace(bytes);
    rows.push_back({std::to_string(bytes) + " bytes (" +
                        std::to_string(r.overflows) + " overflows)",
                    r.cycles,
                    static_cast<double>(base.cycles) /
                        static_cast<double>(r.cycles)});
  }
  bench::printTable(
      ("Ablation: sharing space size (paper default 2048; baseline had " +
       std::to_string(base.overflows) + " overflows)")
          .c_str(),
      "2048 bytes (paper)", base.cycles, rows);
  return bench::exitCode(bench::writeBenchJson("abl_sharing_space"));
}
