// simtomp_fault: exercise the (fault x policy) resilience matrix.
//
//   simtomp_fault matrix [--workers N]
//
// Runs every simfault kind against every recovery policy rung on a
// fresh tiny device manager and prints the resulting ResilienceReports.
// The output is deterministic by contract — byte-identical for any
// --workers value — so CI diffs two runs (and a 1-vs-8-worker pair)
// with cmp(1). See docs/FAULTS.md.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "dsl/dsl.h"
#include "hostrt/device_manager.h"
#include "omprt/runtime.h"
#include "simfault/fault.h"
#include "simfault/resilience.h"
#include "support/status.h"

namespace simtomp {
namespace {

struct FaultCase {
  const char* label;  ///< row label (stable across spec tweaks)
  const char* spec;   ///< SIMTOMP_FAULT-grammar plan
};

// One case per FaultKind. The transient device-lost pairs consume
// themselves after one attempt (count=1); the SIMD-predicated pair
// heals when the mode fallback drops simdlen to 1; the last two fire
// on every attempt (count=0) and only the fault-stripped host-serial
// reference gets past them.
const FaultCase kFaultCases[] = {
    {"device_lost_pre", "device_lost_pre:count=1"},
    {"device_lost_post", "device_lost_post:count=1"},
    {"trap", "trap:block=0:step=50:count=0:when=simd"},
    {"sharing_exhausted", "sharing_exhausted:block=0:count=0:when=simd"},
    {"barrier_corrupt", "barrier_corrupt:block=0:count=0"},
    {"livelock", "livelock:block=0:count=0"},
};

struct PolicyCase {
  const char* label;
  simfault::ResiliencePolicy policy;
};

std::vector<PolicyCase> policyCases() {
  simfault::ResiliencePolicy retry_only;
  retry_only.modeFallback = false;
  retry_only.hostSerial = false;
  simfault::ResiliencePolicy retry_mode;
  retry_mode.hostSerial = false;
  simfault::ResiliencePolicy full;
  return {{"retry", retry_only}, {"retry+mode", retry_mode}, {"full", full}};
}

constexpr uint64_t kTile = 8;
constexpr uint64_t kTrip = 192;  // 24 tiles of 8, split over 2 teams

/// One cell of the matrix: a fresh manager/device, the classic
/// generic-teams + generic-parallel + simdlen-4 kernel (so every fault
/// site — scheduler steps, barrier arrivals, sharing-space begins — is
/// exercised), the case's fault plan, one resilient launch.
int runCell(const FaultCase& fault, const PolicyCase& policy,
            uint32_t workers) {
  hostrt::DeviceManager mgr({gpusim::ArchSpec::testTiny()});
  mgr.setDefaultResilience(policy.policy);

  std::vector<uint64_t> out(kTrip, 0);

  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kGeneric;
  config.numTeams = 2;
  config.threadsPerTeam = 64;
  config.parallelMode = omprt::ExecMode::kGeneric;
  config.simdlen = 4;
  config.hostWorkers = workers;
  config.check.mode = simcheck::CheckMode::kOff;
  config.resilience = simfault::ResilienceMode::kOn;
  config.fault.spec = fault.spec;
  // Small enough that a livelock dies quickly, far above what any
  // healthy attempt of this kernel needs.
  config.watchdogSteps = 200000;

  omprt::ParallelConfig pc;
  pc.modeAuto = true;           // follow the launch-wide parallel mode
  pc.simdGroupSize = 0;         // follow the launch-wide simdlen
  // Three-level structure (teams / parallel-for over tiles / simd over
  // lanes) so generic-mode launches route tile arguments through the
  // sharing space — the kSharingExhausted site.
  auto region = [&](omprt::OmpContext& ctx) {
    const omprt::rt::Range r =
        omprt::rt::distributeStatic(ctx, kTrip / kTile);
    auto tile_body = [&out, base = r.begin](omprt::OmpContext& c,
                                            uint64_t logical) {
      const uint64_t tile = base + logical;
      c.gpu().work(2);
      dsl::simd(c, kTile, [&out, tile](omprt::OmpContext& cc, uint64_t lane) {
        const uint64_t i = tile * kTile + lane;
        cc.gpu().work(2);
        out[i] = 3 * i + 7;
      });
    };
    dsl::parallelFor(ctx, r.size(), tile_body, pc);
  };

  const auto stats = mgr.launchOn(0, config, region);
  const simfault::ResilienceReport& report = mgr.lastResilienceReport(0);

  std::printf("=== fault=%s policy=%s ===\n", fault.label, policy.label);
  std::printf("health: %s\n",
              std::string(simfault::deviceHealthName(mgr.deviceHealth(0)))
                  .c_str());
  std::printf("%s", report.toString().c_str());
  if (stats.isOk()) {
    bool verified = true;
    for (uint64_t i = 0; i < kTrip; ++i) {
      if (out[i] != 3 * i + 7) verified = false;
    }
    std::printf("verify: %s\n", verified ? "ok" : "FAIL");
    if (!verified) return 1;
  } else {
    std::printf("verify: skipped (launch failed)\n");
  }
  std::printf("\n");
  return 0;
}

int runMatrix(uint32_t workers) {
  std::printf("simtomp_fault matrix: %zu fault kinds x %zu policies\n\n",
              std::size(kFaultCases), policyCases().size());
  int rc = 0;
  for (const FaultCase& fault : kFaultCases) {
    for (const PolicyCase& policy : policyCases()) {
      rc |= runCell(fault, policy, workers);
    }
  }
  return rc;
}

int usage() {
  std::fprintf(stderr, "usage: simtomp_fault matrix [--workers N]\n");
  return 2;
}

}  // namespace
}  // namespace simtomp

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "matrix") != 0) {
    return simtomp::usage();
  }
  uint32_t workers = 1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<uint32_t>(std::atoi(argv[++i]));
      if (workers == 0) return simtomp::usage();
    } else {
      return simtomp::usage();
    }
  }
  return simtomp::runMatrix(workers);
}
