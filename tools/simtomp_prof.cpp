// simtomp_prof: profile a built-in workload under a directive you type.
//
//   simtomp_prof <kernel> "<directive>" [--folded] [--json]
//                [--trace <path>] [--metrics <path|->]
//
//   kernels: spmv | su3 | ideal | laplace3d | transpose | interpol | gemm
//
// Runs the kernel exactly like simtomp_run, but with simprof enabled
// (unless the directive says profile(off)), then renders the construct
// tree:
//
//   default    nvprof-style per-construct table — inclusive/exclusive
//              thread-cycles, visits, SIMD lane efficiency
//   --folded   folded-stack lines (pipe into flamegraph.pl)
//   --json     nested JSON of the same tree
//   --trace P  deep Perfetto/Chrome trace (nested construct spans on
//              the SM tracks, counter tracks, instant events) to P
//   --metrics  Prometheus text exposition of the process-wide metrics
//              registry to the given path ("-" = stdout)
//
// Profiling observes the cost model without perturbing it, so the
// cycles printed here are bit-identical to an unprofiled simtomp_run
// of the same directive; the tool verifies that the profile root
// equals KernelStats.cycles and fails (exit 8) if not.
//
// Exit codes 0-7 match simtomp_run (see docs/FAULTS.md); 8 = profile
// invariant violated.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "apps/named.h"
#include "front/directive.h"
#include "gpusim/trace.h"
#include "simprof/metrics.h"
#include "simprof/profile.h"

using namespace simtomp;

namespace {

constexpr int kExitVerifyFailed = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBuildError = 3;
constexpr int kExitLaunchFailure = 4;
constexpr int kExitWatchdog = 5;
constexpr int kExitCheckFatal = 6;
constexpr int kExitFaultUnrecovered = 7;
constexpr int kExitProfileInvariant = 8;

int usage() {
  std::fprintf(stderr,
               "usage: simtomp_prof <spmv|su3|ideal|laplace3d|transpose|"
               "interpol|gemm> \"<directive>\" [--folded] [--json] "
               "[--trace <path>] [--metrics <path|->]\n");
  return kExitUsage;
}

/// Triage a failed launch into its documented exit code (simtomp_run's
/// scheme, so CI can treat the two tools interchangeably).
int exitCodeFor(const Status& status) {
  if (status.code() == StatusCode::kDeadlineExceeded) return kExitWatchdog;
  if (status.message().find("simcheck") != std::string::npos) {
    return kExitCheckFatal;
  }
  if (status.message().find("[simfault]") != std::string::npos) {
    return kExitFaultUnrecovered;
  }
  return kExitLaunchFailure;
}

/// Counter-name adapter for the renderer: simprof speaks raw ids, the
/// names live in gpusim's counter table.
std::string_view profCounterName(uint32_t id) {
  if (id >= gpusim::kNumCounters) return "?";
  return gpusim::counterName(static_cast<gpusim::Counter>(id));
}

simprof::RenderOptions renderOptions() {
  simprof::RenderOptions opts;
  opts.counterName = &profCounterName;
  opts.laneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdLaneRounds);
  opts.idleLaneRoundsCounter =
      static_cast<uint32_t>(gpusim::Counter::kSimdIdleLaneRounds);
  return opts;
}

bool writeMetrics(const std::string& path) {
  if (path == "-") {
    simprof::MetricsRegistry::global().writePrometheus(std::cout);
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open metrics path '%s'\n", path.c_str());
    return false;
  }
  simprof::MetricsRegistry::global().writePrometheus(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string kernel = argv[1];
  if (!apps::isNamedKernel(kernel)) return usage();
  const std::string directive = argv[2];

  bool folded = false;
  bool json = false;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--folded") == 0) {
      folded = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      return usage();
    }
  }

  auto parsed = front::parseDirective(directive);
  if (!parsed.isOk()) {
    std::fprintf(stderr, "directive error: %s\n",
                 parsed.status().toString().c_str());
    return kExitBuildError;
  }
  gpusim::Device device;
  dsl::LaunchSpec launch = parsed.value().toLaunchSpec(device.arch());
  if (launch.profile.mode != simprof::ProfileMode::kOff) {
    launch.profile.mode = simprof::ProfileMode::kOn;
  }

  gpusim::TraceRecorder recorder;
  if (!trace_path.empty()) device.setTraceRecorder(&recorder);

  auto result = apps::runNamedKernel(kernel, device, launch);
  if (!result.isOk()) {
    std::fprintf(stderr, "run error: %s\n",
                 result.status().toString().c_str());
    return exitCodeFor(result.status());
  }
  const apps::AppRunResult& r = result.value();
  if (!r.verified) {
    std::fprintf(stderr, "VERIFICATION FAILED (max error %g)\n", r.maxError);
    return kExitVerifyFailed;
  }

  const simprof::LaunchProfile& profile = device.lastProfile();
  if (launch.profile.mode != simprof::ProfileMode::kOff) {
    if (!profile.enabled) {
      std::fprintf(stderr, "profile missing: launch did not profile\n");
      return kExitProfileInvariant;
    }
    // The contract the whole subsystem hangs on: profiling observed the
    // launch without perturbing it, and the tree accounts for it all.
    if (profile.root.inclusiveCycles != r.stats.cycles) {
      std::fprintf(stderr,
                   "profile invariant violated: root %llu != cycles %llu\n",
                   static_cast<unsigned long long>(profile.root.inclusiveCycles),
                   static_cast<unsigned long long>(r.stats.cycles));
      return kExitProfileInvariant;
    }
  }

  if (!trace_path.empty()) {
    const Status wrote = recorder.writeChromeJson(trace_path);
    if (!wrote.isOk()) {
      std::fprintf(stderr, "trace error: %s\n", wrote.toString().c_str());
      return kExitLaunchFailure;
    }
  }
  if (!metrics_path.empty() && !writeMetrics(metrics_path)) {
    return kExitLaunchFailure;
  }

  if (folded) {
    std::fputs(profile.folded().c_str(), stdout);
    return 0;
  }
  if (json) {
    profile.writeJson(std::cout, renderOptions());
    std::printf("\n");
    return 0;
  }
  std::printf("%s: verified (max error %.2e), %llu cycles\n", kernel.c_str(),
              r.maxError, static_cast<unsigned long long>(r.stats.cycles));
  std::fputs(profile.table(renderOptions()).c_str(), stdout);
  return 0;
}
