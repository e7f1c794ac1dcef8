// Host throughput: the convergence fast path's wall-clock gate.
//
// Two full-SPMD kernels whose inner simd construct is declared
// convergent (dsl::convergent): a map and a butterfly reduce, both with
// a one-iteration-per-lane inner loop so the simd construct's
// synchronization — not the body — dominates host time. Each kernel
// runs with the fast path forced off, then forced on. Modeled results
// must be byte-identical (KernelStats::toJson compared, abort on
// mismatch); the win shows up exclusively as host wall time, reported
// as modeled-cycles-per-host-second in BENCH_host_throughput.json.
// tools/ci.sh stage 8 diffs the stats dumps and gates the reduce series
// at >= 3x throughput.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/common.h"
#include "bench_common.h"
#include "dsl/dsl.h"
#include "gpusim/device.h"

namespace {

using namespace simtomp;
using bench::checkOk;
using bench::Row;
using gpusim::GlobalSpan;
using omprt::OmpContext;

constexpr uint32_t kTeams = 32;
constexpr uint32_t kThreadsPerTeam = 256;
constexpr uint32_t kSimdLen = 32;
// One row per simd construct; one inner iteration per lane. 8192 rows
// means 8192 constructs whose barriers the slow path pays lane-by-lane
// on separate fibers and the fast path replays on one.
constexpr uint64_t kRows = 8192;
constexpr uint64_t kInner = kSimdLen;

dsl::LaunchSpec specFor(omprt::FastPathMode mode) {
  dsl::LaunchSpec spec;
  spec.numTeams = kTeams;
  spec.threadsPerTeam = kThreadsPerTeam;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;
  spec.simdlen = kSimdLen;
  spec.hostWorkers = 1;  // serial blocks: the ratio isolates the fast path
  spec.fastPath = mode;
  return spec;
}

struct RunResult {
  gpusim::KernelStats stats;
  double hostMs = 0.0;
};

RunResult runMap(omprt::FastPathMode mode) {
  gpusim::Device device;
  const std::vector<double> host_in(kRows * kInner, 1.25);
  const GlobalSpan<double> in =
      checkOk(apps::toDevice<double>(device, host_in), "map input upload");
  const GlobalSpan<double> out = checkOk(
      apps::zeroDevice<double>(device, kRows * kInner), "map output alloc");

  const bench::WallTimer timer;
  RunResult result;
  result.stats = checkOk(
      dsl::targetTeamsDistributeParallelFor(
          device, specFor(mode), kRows,
          [&](OmpContext& ctx, uint64_t row) {
            dsl::simd(ctx, kInner,
                      dsl::convergent([in, out, row](OmpContext& inner,
                                                     uint64_t k) {
                        gpusim::ThreadCtx& it = inner.gpu();
                        const double v = in.get(it, row * kInner + k);
                        it.fma();
                        out.set(it, row * kInner + k, v * 2.0 + 1.0);
                      }));
          }),
      "host_throughput map");
  result.hostMs = timer.elapsedMs();
  return result;
}

RunResult runReduce(omprt::FastPathMode mode) {
  gpusim::Device device;
  const std::vector<double> host_in(kRows * kInner, 0.5);
  const GlobalSpan<double> in =
      checkOk(apps::toDevice<double>(device, host_in), "reduce input upload");
  const GlobalSpan<double> out =
      checkOk(apps::zeroDevice<double>(device, kRows), "reduce output alloc");

  const bench::WallTimer timer;
  RunResult result;
  result.stats = checkOk(
      dsl::targetTeamsDistributeParallelFor(
          device, specFor(mode), kRows,
          [&](OmpContext& ctx, uint64_t row) {
            const double sum = dsl::simdReduceAdd(
                ctx, kInner,
                dsl::convergent(
                    [in, row](OmpContext& inner, uint64_t k) -> double {
                      gpusim::ThreadCtx& it = inner.gpu();
                      const double v = in.get(it, row * kInner + k);
                      it.fma();
                      return v * 1.0001 + 1.0;
                    }));
            if (ctx.simdGroupId() == 0) out.set(ctx.gpu(), row, sum);
          }),
      "host_throughput reduce");
  result.hostMs = timer.elapsedMs();
  return result;
}

/// Best-of-two wall time (first run warms allocator pools and the
/// convergence cache); modeled stats must not move between repetitions.
template <typename Runner>
RunResult bestOfTwo(Runner runner, omprt::FastPathMode mode,
                    const char* what) {
  RunResult first = runner(mode);
  RunResult second = runner(mode);
  if (first.stats.toJson() != second.stats.toJson()) {
    std::fprintf(stderr, "FATAL: %s: modeled stats moved between reps\n",
                 what);
    std::abort();
  }
  if (second.hostMs < first.hostMs) first.hostMs = second.hostMs;
  return first;
}

void requireIdentical(const gpusim::KernelStats& off,
                      const gpusim::KernelStats& on, const char* what) {
  if (off.toJson() != on.toJson()) {
    std::fprintf(stderr,
                 "FATAL: %s: modeled stats differ with the fast path on\n"
                 "--- off ---\n%s\n--- on ---\n%s\n",
                 what, off.toJson().c_str(), on.toJson().c_str());
    std::abort();
  }
}

Status writeStatsDump(const char* path, const gpusim::KernelStats& map,
                      const gpusim::KernelStats& reduce) {
  return json::writeFile(path, map.toJson() + "\n" + reduce.toJson() + "\n");
}

}  // namespace

int main() {
  const RunResult map_off =
      bestOfTwo(runMap, omprt::FastPathMode::kOff, "map off");
  const RunResult map_on = bestOfTwo(runMap, omprt::FastPathMode::kOn,
                                     "map on");
  requireIdentical(map_off.stats, map_on.stats, "simd map");

  const RunResult reduce_off =
      bestOfTwo(runReduce, omprt::FastPathMode::kOff, "reduce off");
  const RunResult reduce_on =
      bestOfTwo(runReduce, omprt::FastPathMode::kOn, "reduce on");
  requireIdentical(reduce_off.stats, reduce_on.stats, "simd reduce");

  {
    std::vector<Row> rows;
    rows.push_back({"fast path off", map_off.stats.cycles, 1.0,
                    map_off.hostMs});
    rows.push_back({"fast path on", map_on.stats.cycles,
                    map_off.hostMs / map_on.hostMs, map_on.hostMs});
    bench::printTable("Host throughput: convergent simd map",
                      "fast path off", map_off.stats.cycles, rows);
  }
  {
    std::vector<Row> rows;
    rows.push_back({"fast path off", reduce_off.stats.cycles, 1.0,
                    reduce_off.hostMs});
    rows.push_back({"fast path on", reduce_on.stats.cycles,
                    reduce_off.hostMs / reduce_on.hostMs, reduce_on.hostMs});
    bench::printTable(
        "Host throughput: convergent simd reduce (barrier-bound)",
        "fast path off", reduce_off.stats.cycles, rows);
  }

  const Status off_dump = writeStatsDump("HOST_THROUGHPUT_STATS_off.json",
                                         map_off.stats, reduce_off.stats);
  const Status on_dump = writeStatsDump("HOST_THROUGHPUT_STATS_on.json",
                                        map_on.stats, reduce_on.stats);
  if (!off_dump.isOk() || !on_dump.isOk()) {
    std::fprintf(stderr, "FATAL: cannot write stats dumps\n");
    return 1;
  }
  std::printf("reduce throughput ratio (on/off): %.2fx\n",
              reduce_off.hostMs / reduce_on.hostMs);
  return bench::exitCode(bench::writeBenchJson("host_throughput"));
}
