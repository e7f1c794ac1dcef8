#include "harness/sweep.h"

#include <memory>
#include <optional>

#include "apps/sparse_matvec.h"
#include "gpusim/device.h"
#include "harness/layers.h"
#include "harness/workload.h"

namespace perfbench {

namespace {

using simtomp::Result;
using simtomp::apps::AppRunResult;
using simtomp::apps::SimdMode;
using simtomp::gpusim::Device;
using simtomp::gpusim::KernelStats;

// Shapes: the paper's Fig. 9/10 kernels, scaled so one pass of the 23
// launches takes about a quarter second with the fast path on (about a
// second checked), so a run holds many passes and the launch-time tail
// has samples behind it. The launch count is odd so the median falls
// inside one kernel's distribution, not in the gap between two.
constexpr uint32_t kIdealOuter = 54;
constexpr uint32_t kIdealInner = 32;  // one warp, as in the paper
constexpr uint32_t kIdealGroups[] = {1, 2, 4, 8, 16, 32};
constexpr uint32_t kSpmvRows = 256;
constexpr uint32_t kSu3Sites = 64;
constexpr uint32_t kSu3Groups[] = {1, 2, 4, 8, 16};
// Fig. 10 grids (long in the simd dimension), scaled down: 16x16
// interior planes over 2 teams of 128 threads, 64-point simd lines.
constexpr uint32_t kPlane = 18;
constexpr uint32_t kLine = 66;
constexpr uint32_t kMuramPlane = 16;
constexpr uint32_t kMuramLine = 64;
constexpr uint32_t kFig10Teams = 2;
constexpr uint32_t kFig10Threads = 128;
constexpr uint32_t kFig10Group = 32;
constexpr SimdMode kModes[] = {SimdMode::kNoSimd, SimdMode::kSpmdSimd,
                               SimdMode::kGenericSimd};

struct Gates {
  bool check = false;
  bool profile = false;
};

Gates gatesFor(Workload w) {
  const bool checked = w == Workload::kCheckedSweep;
  return {checked, checked};
}

/// Everything one set-up builds; the last set-up's instance runs the
/// measured phase.
struct Rig {
  SweepInputs inputs;
  std::vector<KernelCase> kernels;
  std::unique_ptr<Device> device;
};

/// Host time of one launch. The metrics use the CPU clock (see
/// processCpuMs); the wall clock is reported beside them.
struct LaunchTime {
  double cpuMs = 0.0;
  double wallMs = 0.0;
};

/// One pass over the kernel set.
struct Pass {
  std::vector<KernelStats> stats;  ///< per kernel, in kernel order
  StatsTally tally;
  Digest digest;  ///< over every launch's KernelStats::toJson
  uint64_t findings = 0;
  double hostMs = 0.0;  ///< host CPU ms of the pass's launches
};

/// Launch one kernel case and apply every correctness gate; a failed
/// gate counts the launch as a failed operation. `expected` holds the
/// canonical per-kernel cycles once they are known.
std::optional<KernelStats> launchChecked(
    const KernelCase& k, size_t index, Device& device, const Gates& gates,
    const std::vector<KernelStats>* expected, OpLedger& ops,
    uint64_t& findings, LaunchTime& time, Tracer& tracer,
    const char* spanName) {
  ops.attempt();
  Result<AppRunResult> result = AppRunResult{};
  {
    const ScopedSpan span(tracer, spanName, k.name);
    const HostTimer timer;
    result = k.run(device);
    time = {timer.cpuMs(), timer.wallMs()};
  }
  if (!result.isOk()) {
    ops.fail(k.name + ": " + result.status().toString());
    return std::nullopt;
  }
  const AppRunResult& run = result.value();
  const uint64_t cycles = run.stats.cycles;
  std::string why;
  if (!run.verified) why = "output not verified";
  const simtomp::simcheck::CheckReport& check = device.lastCheckReport();
  findings += check.total();
  const auto want_check = gates.check ? simtomp::simcheck::CheckMode::kReport
                                      : simtomp::simcheck::CheckMode::kOff;
  if (device.lastCheckMode() != want_check) {
    why = "simcheck mode differs from the pinned policy";
  } else if (!check.clean()) {
    why = "simcheck findings: " + check.summary();
  }
  const simtomp::simprof::LaunchProfile& prof = device.lastProfile();
  const auto want_prof = gates.profile ? simtomp::simprof::ProfileMode::kOn
                                       : simtomp::simprof::ProfileMode::kOff;
  if (device.lastProfileMode() != want_prof) {
    why = "simprof mode differs from the pinned policy";
  } else if (gates.profile &&
             (!prof.enabled || prof.rootCycles != cycles ||
              prof.root.inclusiveCycles != cycles)) {
    why = "profile root " + std::to_string(prof.root.inclusiveCycles) +
          " != KernelStats.cycles " + std::to_string(cycles);
  }
  if (expected != nullptr && (*expected)[index].cycles != cycles) {
    why = "cycles " + std::to_string(cycles) + " != canonical " +
          std::to_string((*expected)[index].cycles);
  }
  if (!why.empty()) {
    ops.fail(k.name + ": " + why);
    return std::nullopt;
  }
  return run.stats;
}

Pass runPass(Rig& rig, const Gates& gates, const std::vector<KernelStats>* expected,
             OpLedger& ops, Tracer& tracer, const char* spanName) {
  Pass pass;
  for (size_t i = 0; i < rig.kernels.size(); ++i) {
    LaunchTime time;
    const std::optional<KernelStats> stats =
        launchChecked(rig.kernels[i], i, *rig.device, gates, expected, ops,
                      pass.findings, time, tracer, spanName);
    pass.hostMs += time.cpuMs;
    const KernelStats s = stats.value_or(KernelStats{});
    pass.stats.push_back(s);
    pass.tally.add(s);
    pass.digest.add(rig.kernels[i].name);
    pass.digest.add(s.toJson());
  }
  return pass;
}

/// The measured phase: whole passes until `seconds` have elapsed.
struct Timed {
  std::vector<double> launchMs;      ///< host CPU ms per launch
  std::vector<double> launchWallMs;  ///< wall ms per launch
  double launchMsTotal = 0.0;
  double cpuMs = 0.0;   ///< host CPU ms of the whole phase
  double wallMs = 0.0;
  uint64_t simOps = 0;
  uint64_t launches = 0;
  uint64_t verified = 0;
};

Timed runTimed(Rig& rig, const Gates& gates,
               const std::vector<KernelStats>& expected, double seconds,
               OpLedger& ops, Tracer& tracer) {
  Timed t;
  uint64_t findings = 0;
  const HostTimer phase;
  do {
    const ScopedSpan pass(tracer, "bench.pass");
    for (size_t i = 0; i < rig.kernels.size(); ++i) {
      LaunchTime time;
      const uint64_t failed_before = ops.failed();
      const std::optional<KernelStats> stats =
          launchChecked(rig.kernels[i], i, *rig.device, gates, &expected, ops,
                        findings, time, tracer, "omprt.launch");
      ++t.launches;
      t.launchMs.push_back(time.cpuMs);
      t.launchWallMs.push_back(time.wallMs);
      t.launchMsTotal += time.cpuMs;
      if (stats.has_value() && ops.failed() == failed_before) {
        ++t.verified;
        t.simOps += simOps(*stats);
      }
    }
  } while (phase.wallMs() < seconds * 1e3);
  t.cpuMs = phase.cpuMs();
  t.wallMs = phase.wallMs();
  return t;
}

/// Build a rig in place (the kernel cases reference its inputs).
std::unique_ptr<Rig> buildRig(uint64_t seed, Tracer& tracer) {
  auto rig = std::make_unique<Rig>();
  rig->inputs = makeSweepInputs(seed);
  rig->kernels = sweepKernels(rig->inputs);
  const ScopedSpan span(tracer, "gpusim.device_build");
  rig->device =
      std::make_unique<Device>(simtomp::gpusim::ArchSpec::nvidiaA100());
  return rig;
}

/// Upload every kernel input once (and free it): the bytes the apps
/// upload at the start of each launch.
double uploadMs(Device& device, const SweepInputs& in, Tracer& tracer) {
  using simtomp::apps::toDevice;
  const ScopedSpan span(tracer, "gpusim.upload");
  const Clock::time_point t0 = Clock::now();
  std::vector<const void*> held;
  const auto up = [&](const auto& vec) {
    using T = typename std::decay_t<decltype(vec)>::value_type;
    auto uploaded = toDevice<T>(device, std::span<const T>(vec));
    if (uploaded.isOk()) held.push_back(uploaded.value().data());
  };
  up(in.ideal.input);
  up(in.csr.rowPtr);
  up(in.csr.colIdx);
  up(in.csr.values);
  up(in.su3.a);
  up(in.su3.b);
  up(in.laplace.u);
  up(in.transpose.input);
  up(in.interpol.input);
  for (const void* p : held) (void)device.freeArray(p);
  return msBetween(t0, Clock::now());
}

/// Median host CPU ms of `reps` passes under each of two policies, run
/// alternately; returns (a, b).
std::pair<double, double> alternatePasses(
    Rig& rig, const std::vector<KernelStats>& expected, OpLedger& ops,
    Tracer& tracer, int reps, const Gates& gatesA,
    const std::vector<std::pair<const char*, const char*>>& envA,
    const Gates& gatesB,
    const std::vector<std::pair<const char*, const char*>>& envB) {
  std::vector<double> a;
  std::vector<double> b;
  const auto run = [&](const Gates& g,
                       const std::vector<std::pair<const char*, const char*>>&
                           env,
                       std::vector<double>& out) {
    std::vector<std::unique_ptr<ScopedEnv>> scoped;
    for (const auto& [var, value] : env) {
      scoped.push_back(std::make_unique<ScopedEnv>(var, value));
    }
    out.push_back(runPass(rig, g, &expected, ops, tracer, "bench.ratio_launch")
                      .hostMs);
  };
  for (int r = 0; r < reps; ++r) {
    run(gatesA, envA, a);
    run(gatesB, envB, b);
  }
  return {median(a), median(b)};
}

}  // namespace

const char* modeKey(SimdMode mode) {
  switch (mode) {
    case SimdMode::kNoSimd: return "no_simd";
    case SimdMode::kSpmdSimd: return "spmd_simd";
    case SimdMode::kGenericSimd: return "generic_simd";
  }
  return "?";
}

SweepInputs makeSweepInputs(uint64_t seed) {
  SweepInputs in;
  in.ideal = simtomp::apps::generateIdeal(kIdealOuter, kIdealInner,
                                          subSeed(seed, 1));
  simtomp::apps::CsrGenConfig csr;
  csr.numRows = kSpmvRows;
  csr.numCols = kSpmvRows;
  csr.meanRowLength = 8;
  csr.maxRowLength = 64;
  csr.seed = subSeed(seed, 2);
  in.csr = simtomp::apps::generateCsr(csr);
  in.su3 = simtomp::apps::generateSu3(kSu3Sites, subSeed(seed, 3));
  in.laplace = simtomp::apps::generateLaplace3d(kPlane, kPlane, kLine,
                                                subSeed(seed, 4));
  in.transpose = simtomp::apps::generateMuram(kMuramPlane, kMuramPlane,
                                              kMuramLine, subSeed(seed, 5));
  in.interpol = simtomp::apps::generateMuram(
      kMuramPlane, kMuramPlane, kMuramLine + 1, subSeed(seed, 6));
  return in;
}

std::string inputsDigest(const SweepInputs& in) {
  Digest d;
  const auto bytes = [&d](const auto& vec) {
    d.add(std::string_view(reinterpret_cast<const char*>(vec.data()),
                           vec.size() * sizeof(vec[0])));
  };
  bytes(in.ideal.input);
  bytes(in.csr.rowPtr);
  bytes(in.csr.colIdx);
  bytes(in.csr.values);
  bytes(in.su3.a);
  bytes(in.su3.b);
  bytes(in.laplace.u);
  bytes(in.transpose.input);
  bytes(in.interpol.input);
  return d.hex();
}

std::vector<KernelCase> sweepKernels(const SweepInputs& in) {
  using namespace simtomp::apps;
  std::vector<KernelCase> ks;
  for (const uint32_t g : kIdealGroups) {
    // The ideal kernel's simd level runs in generic parallel mode.
    ks.push_back({"ideal/g" + std::to_string(g),
                  g == 1 ? SimdMode::kNoSimd : SimdMode::kGenericSimd,
                  [&in, g](Device& d) {
                    IdealOptions o;
                    o.numTeams = 27;
                    o.threadsPerTeam = 128;
                    o.simdlen = g;
                    o.flopsPerElement = 2;
                    return runIdeal(d, in.ideal, o);
                  }});
  }
  const auto spmv = [&in](SpmvVariant v, simtomp::omprt::ExecMode mode) {
    return [&in, v, mode](Device& d) {
      SpmvOptions o;
      o.variant = v;
      o.parallelMode = mode;
      o.hostWorkers = 1;
      if (v == SpmvVariant::kTwoLevel) {
        o.numTeams = 27;
        o.threadsPerTeam = 128;
      } else {
        o.numTeams = 16;
        o.threadsPerTeam = 256;
        o.simdlen = 8;
      }
      return runSpmv(d, in.csr, o);
    };
  };
  ks.push_back({"spmv/2-level", SimdMode::kNoSimd,
                spmv(SpmvVariant::kTwoLevel, simtomp::omprt::ExecMode::kSPMD)});
  ks.push_back({"spmv/3-level-spmd", SimdMode::kSpmdSimd,
                spmv(SpmvVariant::kThreeLevelAtomic,
                     simtomp::omprt::ExecMode::kSPMD)});
  ks.push_back({"spmv/3-level-generic", SimdMode::kGenericSimd,
                spmv(SpmvVariant::kThreeLevelAtomic,
                     simtomp::omprt::ExecMode::kGeneric)});
  for (const uint32_t g : kSu3Groups) {
    // su3 runs both teams and parallel regions in SPMD mode.
    ks.push_back({"su3/g" + std::to_string(g),
                  g == 1 ? SimdMode::kNoSimd : SimdMode::kSpmdSimd,
                  [&in, g](Device& d) {
                    Su3Options o;
                    o.numTeams = 8;
                    o.threadsPerTeam = 128;
                    o.simdlen = g;
                    return runSu3(d, in.su3, o);
                  }});
  }
  for (const SimdMode mode : kModes) {
    ks.push_back({std::string("laplace3d/") + simdModeName(mode), mode,
                  [&in, mode](Device& d) {
                    Laplace3dOptions o;
                    o.mode = mode;
                    o.numTeams = kFig10Teams;
                    o.threadsPerTeam = kFig10Threads;
                    o.simdlen = kFig10Group;
                    return runLaplace3d(d, in.laplace, o);
                  }});
  }
  for (const SimdMode mode : kModes) {
    const auto options = [mode] {
      MuramOptions o;
      o.mode = mode;
      o.numTeams = kFig10Teams;
      o.threadsPerTeam = kFig10Threads;
      o.simdlen = kFig10Group;
      return o;
    };
    ks.push_back({std::string("muram_transpose/") + simdModeName(mode), mode,
                  [&in, options](Device& d) {
                    return runMuramTranspose(d, in.transpose, options());
                  }});
    ks.push_back({std::string("muram_interpol/") + simdModeName(mode), mode,
                  [&in, options](Device& d) {
                    return runMuramInterpol(d, in.interpol, options());
                  }});
  }
  return ks;
}

RunReport runSweep(const RunOptions& options) {
  RunReport report;
  const Gates gates = gatesFor(options.workload);
  const bool checked = options.workload == Workload::kCheckedSweep;
  Tracer tracer(options.trace);

  // Set-up, several times; the last rig runs the measured phase. Each
  // canonical pass must reproduce the first one exactly.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<Rig> rig;
  Pass canonical;
  for (int rep = 0; rep < options.setupReps; ++rep) {
    rig.reset();  // release the previous device before building the next
    const ScopedSpan setup(tracer, "bench.setup");
    const HostTimer timer;
    rig = buildRig(options.seed, tracer);
    Pass pass = runPass(*rig, gates, nullptr, report.ops, tracer,
                        "bench.canonical_launch");
    setup_s.push_back(timer.cpuMs() / 1e3);
    setup_wall_s.push_back(timer.wallMs() / 1e3);
    if (rep == 0) {
      canonical = std::move(pass);
    } else if (pass.digest.value() != canonical.digest.value()) {
      report.ops.fail("canonical pass " + std::to_string(rep) +
                      " drifted from the first set-up");
    }
  }
  report.note("inputs_digest", jsonString(inputsDigest(rig->inputs)));
  report.note("stats_digest", jsonString(canonical.digest.hex()));
  report.note("kernels", std::to_string(rig->kernels.size()));

  if (checked) {
    // Cross-workload gate: the same kernels under the paper-sweep
    // policy must produce byte-identical KernelStats.
    const ScopedEnv check("SIMTOMP_CHECK", "off");
    const ScopedEnv prof("SIMTOMP_PROF", "off");
    const ScopedEnv fast("SIMTOMP_FAST", nullptr);
    Tracer off(false);
    const Pass paper = runPass(*rig, Gates{}, &canonical.stats, report.ops,
                               off, "bench.reference_launch");
    report.note("paper_policy_stats_digest", jsonString(paper.digest.hex()));
    if (paper.digest.value() != canonical.digest.value()) {
      report.ops.fail("KernelStats differ between checked-sweep and the "
                      "paper-sweep policy");
    }
  }

  if (options.plantWrongOutput) {
    // The first measured launch of kernel 0 reports a wrong output.
    auto planted = std::make_shared<bool>(true);
    rig->kernels[0].run = [run = rig->kernels[0].run, planted](Device& d) {
      Result<AppRunResult> r = run(d);
      if (r.isOk() && *planted) {
        r.value().verified = false;
        *planted = false;
      }
      return r;
    };
  }

  MetricSet& m = report.metrics;
  if (!options.trace) {
    Tracer off(false);
    const Usage u0 = Usage::now();
    const Timed t = runTimed(*rig, gates, canonical.stats, options.seconds,
                             report.ops, off);
    report.note("measured_usage", usageJson(Usage::now().since(u0)));
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    reportLatency(report, "launch_ms", t.launchMs);
    reportLatency(report, "req_ms", t.launchMs);
    m.set("sim_ops_per_s",
          static_cast<double>(t.simOps) / (t.launchMsTotal / 1e3), "1/s");
    m.set("modeled_cycles", static_cast<double>(canonical.tally.cycles),
          "cycles");
    m.set("req_per_s", static_cast<double>(t.launches) / (t.cpuMs / 1e3),
          "1/s");
    report.note("wall", "{\"setup_s\": " + jsonNumber(median(setup_wall_s)) +
                            ", \"launch_ms_p50\": " +
                            jsonNumber(median(t.launchWallMs)) +
                            ", \"launch_ms_tail\": " +
                            jsonNumber(tailOf(t.launchWallMs).value) +
                            ", \"req_per_s\": " +
                            jsonNumber(static_cast<double>(t.launches) /
                                       (t.wallMs / 1e3)) +
                            "}");
    m.set("slo_hit_frac",
          static_cast<double>(t.verified) / static_cast<double>(t.launches),
          "fraction");
    report.note("passes", std::to_string(t.launches / rig->kernels.size()));
    return report;
  }

  // Traced run: untraced and traced quarters of the measured phase,
  // alternating (their per-launch ratio is the tracing overhead), then
  // the per-layer probes.
  Tracer off(false);
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  uint64_t plain_n = 0;
  uint64_t traced_n = 0;
  for (int q = 0; q < 2; ++q) {
    const Timed plain = runTimed(*rig, gates, canonical.stats,
                                 options.seconds / 4, report.ops, off);
    const Timed traced = runTimed(*rig, gates, canonical.stats,
                                  options.seconds / 4, report.ops, tracer);
    plain_ms += plain.launchMsTotal;
    plain_n += plain.launches;
    traced_ms += traced.launchMsTotal;
    traced_n += traced.launches;
  }
  m.set("bench.trace_overhead",
        (traced_ms / static_cast<double>(traced_n)) /
            (plain_ms / static_cast<double>(plain_n)),
        "ratio");
  for (const SimdMode mode : kModes) {
    std::vector<double> ms;
    for (const KernelCase& k : rig->kernels) {
      if (k.mode != mode) continue;
      const std::vector<double> d = tracer.durationsMs("omprt.launch", k.name);
      ms.insert(ms.end(), d.begin(), d.end());
    }
    m.set(std::string("omprt.launch_ms.") + modeKey(mode), median(ms), "ms");
  }
  std::string per_kernel = "{";
  for (const KernelCase& k : rig->kernels) {
    per_kernel += (per_kernel.size() > 1 ? ", " : "") + jsonString(k.name) +
                  ": " +
                  jsonNumber(median(tracer.durationsMs("omprt.launch", k.name)));
  }
  report.note("launch_ms_p50_by_kernel", per_kernel + "}");
  const Usage launch_usage = tracer.usageOf("omprt.launch");
  m.set("omprt.launch_sys_frac",
        launch_usage.sysMs / (launch_usage.userMs + launch_usage.sysMs),
        "fraction");
  reportDeviceBuild(tracer, m);
  std::vector<double> uploads;
  for (int r = 0; r < 5; ++r) {
    uploads.push_back(uploadMs(*rig->device, rig->inputs, tracer));
  }
  m.set("gpusim.upload_ms", median(uploads), "ms");
  canonical.tally.report(m);
  m.set("fiber.switch_ns", fiberSwitchNs(tracer, 200000, 5), "ns");

  // Fast path off / auto under this workload's check and profile pins.
  const auto [fast_off, fast_auto] = alternatePasses(
      *rig, canonical.stats, report.ops, off, 2, gates,
      {{"SIMTOMP_FAST", "off"}}, gates, {{"SIMTOMP_FAST", nullptr}});
  m.set("omprt.fastpath_ratio", fast_off / fast_auto, "ratio");
  double check_ratio = 0.0;
  double prof_ratio = 0.0;
  if (checked) {
    const auto [with_check, no_check] = alternatePasses(
        *rig, canonical.stats, report.ops, off, 2, gates, {},
        Gates{false, true}, {{"SIMTOMP_CHECK", "off"}});
    const auto [with_prof, no_prof] = alternatePasses(
        *rig, canonical.stats, report.ops, off, 2, gates, {},
        Gates{true, false}, {{"SIMTOMP_PROF", "off"}});
    check_ratio = with_check / no_check;
    prof_ratio = with_prof / no_prof;
  }
  m.set("simcheck.overhead_ratio", check_ratio, "ratio");
  m.set("simprof.overhead_ratio", prof_ratio, "ratio");
  m.set("simcheck.findings", static_cast<double>(canonical.findings), "count");
  // Layers this workload does not call.
  for (const char* name :
       {"simserve.migrations", "simserve.breaker_trips",
        "simserve.peak_inflight", "simserve.queue_depth_peak"}) {
    m.set(name, 0.0, "count");
  }
  m.set("hostrt.effective_config_us", 0.0, "us");
  m.set("simserve.submit_us", 0.0, "us");
  m.set("simserve.pump_ms", 0.0, "ms");
  m.set("simserve.drain_ms", 0.0, "ms");
  m.set("simserve.batch_follow_frac", 0.0, "fraction");
  m.set("simserve.shed_frac", 0.0, "fraction");
  reportLedger(tracer, m);
  report.note("spans", std::to_string(tracer.spans().size()));
  report.spans = tracer.toJsonLines();
  return report;
}

}  // namespace perfbench
