// Fuzz throughput: the differential fuzzer's scale-and-determinism
// gate.
//
// One fixed-seed campaign (16 programs, the full 6-cell differential
// matrix) runs twice; the findings logs must be byte-identical
// (aborts otherwise — the campaign determinism contract of
// src/simfuzz/harness.h) and both runs must be clean, since every
// generated program is specified-behavior-only. Throughput is
// reported as simulator runs per host-second in BENCH_fuzz.json,
// which is how the cost of one fuzz seed is tracked across PRs:
// a generated program costs runs/seed simulator executions, so a
// regression here makes every CI fuzz smoke proportionally slower.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "simfuzz/harness.h"

namespace {

using namespace simtomp;
using bench::Row;

constexpr uint64_t kSeedBegin = 0;
constexpr uint64_t kSeedEnd = 16;

struct RunOut {
  simfuzz::CampaignResult result;
  double hostMs = 0.0;
};

RunOut runOnce() {
  simfuzz::CampaignOptions opt;
  opt.seedBegin = kSeedBegin;
  opt.seedEnd = kSeedEnd;
  const bench::WallTimer timer;
  RunOut out;
  out.result = simfuzz::runCampaign(opt);
  out.hostMs = timer.elapsedMs();
  return out;
}

}  // namespace

int main() {
  const RunOut first = runOnce();
  const RunOut second = runOnce();

  if (first.result.log != second.result.log) {
    std::fprintf(stderr,
                 "FATAL: campaign findings log not byte-identical across "
                 "reruns\n--- first ---\n%s--- second ---\n%s",
                 first.result.log.c_str(), second.result.log.c_str());
    std::abort();
  }
  if (!first.result.findings.empty()) {
    std::fprintf(stderr,
                 "FATAL: fixed-seed campaign diverged (%zu findings):\n%s",
                 first.result.findings.size(), first.result.log.c_str());
    std::abort();
  }

  const auto runsPerS = [](const RunOut& run) {
    return run.hostMs > 0.0
               ? static_cast<double>(run.result.runs) / (run.hostMs / 1000.0)
               : 0.0;
  };

  // No modeled-cycle series here: the campaign spans many kernels; the
  // interesting numbers are matrix size and host-side throughput.
  std::printf("\n=== Fuzz throughput: %llu programs, full matrix ===\n",
              static_cast<unsigned long long>(first.result.programs));
  std::printf("%-24s %10s %12s %14s\n", "run", "sim runs", "host ms",
              "runs/host-s");
  std::printf("%-24s %10llu %12.2f %14.1f\n", "first",
              static_cast<unsigned long long>(first.result.runs),
              first.hostMs, runsPerS(first));
  std::printf("%-24s %10llu %12.2f %14.1f\n", "second",
              static_cast<unsigned long long>(second.result.runs),
              second.hostMs, runsPerS(second));
  std::printf("findings: %zu (log byte-identical across reruns)\n",
              first.result.findings.size());

  std::string out;
  json::Writer w(out);
  w.object(json::Layout::kLines);
  w.key("bench").string("fuzz");
  w.key("programs").uint(first.result.programs);
  w.key("sim_runs").uint(first.result.runs);
  w.key("runs_per_seed")
      .fixed(static_cast<double>(first.result.runs) /
                 static_cast<double>(first.result.programs),
             1);
  w.key("findings").uint(first.result.findings.size());
  w.key("log_bytes").uint(first.result.log.size());
  w.key("runs").array(json::Layout::kLines);
  for (const RunOut* run : {&first, &second}) {
    w.object().key("host_ms").fixed(run->hostMs, 3);
    w.key("runs_per_host_s").fixed(runsPerS(*run), 1).end();
  }
  w.end().end();
  return bench::exitCode(bench::writeBenchFile("fuzz", out));
}
