// Ablation (loop-API extension): worksharing schedules under load
// imbalance. The paper's loop API workshares `for` loops statically
// across SIMD groups; with skewed per-iteration work (exactly the
// sparse_matvec situation — row lengths vary) a dynamic schedule pulls
// chunks from a team-shared counter and evens the load at the price of
// one shared atomic per grab.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dsl/dsl.h"
#include <vector>

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;

/// Deterministic strided heavy pattern: every 16th iteration is 50x
/// heavier (boundary rows, halo cells, diagonal blocks...). A static
/// cyclic schedule with 16 groups aliases with the stride and hands
/// every heavy iteration to the same group — the pathology dynamic
/// scheduling exists to fix.
const std::vector<uint32_t>& weights() {
  static const std::vector<uint32_t> w = [] {
    std::vector<uint32_t> out(8192);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = (i % 16 == 3) ? 3000 : 60;
    }
    return out;
  }();
  return w;
}

uint64_t runSchedule(omprt::ForSchedule kind, uint64_t chunk) {
  gpusim::Device dev;
  dsl::LaunchSpec spec;
  spec.numTeams = 64;
  spec.threadsPerTeam = 128;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = 8;
  const auto& w = weights();
  const uint64_t per_team = w.size() / spec.numTeams;
  auto stats = dsl::target(dev, spec, [&](dsl::OmpContext& ctx) {
    const uint64_t base = ctx.teamNum() * per_team;
    dsl::parallelForSchedule(
        ctx, per_team,
        [&w, base](dsl::OmpContext& c, uint64_t iv) {
          c.gpu().work(w[base + iv]);
        },
        omprt::ScheduleClause{kind, chunk}, spec.parallelConfig());
  });
  return checkOk(stats, "schedule kernel").cycles;
}

void BM_Schedule(benchmark::State& state) {
  const auto kind = static_cast<omprt::ForSchedule>(state.range(0));
  const auto chunk = static_cast<uint64_t>(state.range(1));
  uint64_t cycles = 0;
  for (auto _ : state) cycles = runSchedule(kind, chunk);
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_Schedule)
    ->Args({0, 0})   // static cyclic
    ->Args({1, 0})   // static chunked
    ->Args({2, 1})   // dynamic, chunk 1
    ->Args({2, 4})   // dynamic, chunk 4
    ->Args({2, 16})  // dynamic, chunk 16
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const uint64_t cyclic = runSchedule(omprt::ForSchedule::kStaticCyclic, 0);
  std::vector<Row> rows;
  const uint64_t chunked =
      runSchedule(omprt::ForSchedule::kStaticChunked, 0);
  rows.push_back({"static chunked", chunked,
                  static_cast<double>(cyclic) / static_cast<double>(chunked)});
  for (uint64_t chunk : {1u, 4u, 16u}) {
    const uint64_t c = runSchedule(omprt::ForSchedule::kDynamic, chunk);
    rows.push_back({"dynamic, chunk " + std::to_string(chunk), c,
                    static_cast<double>(cyclic) / static_cast<double>(c)});
  }
  bench::printTable("Ablation: worksharing schedule under skewed work",
                    "static cyclic (runtime default)", cyclic, rows);
  return bench::exitCode(bench::writeBenchJson("abl_schedule"));
}
