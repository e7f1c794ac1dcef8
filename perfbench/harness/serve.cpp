#include "harness/serve.h"

#include <map>
#include <memory>
#include <sstream>

#include "hostrt/device_manager.h"
#include "harness/layers.h"
#include "harness/workload.h"
#include "simserve/mix.h"

namespace perfbench {

namespace {

using simtomp::Status;
using simtomp::StatusCode;
using simtomp::gpusim::KernelStats;
using simtomp::simserve::LaunchService;
using simtomp::simserve::RequestOutcome;
using simtomp::simserve::RequestState;
using simtomp::simserve::TenantStats;

constexpr size_t kDevices = 4;
constexpr uint32_t kTenants = 4;
// A long mix, so that seeds differ little in how many requests carry a
// fault (and so in how often breakers cut serving capacity).
constexpr uint32_t kMixRequests = 16384;
constexpr uint32_t kFaultPermille = 10;  // ~1% device_lost_post requests
// Tight quotas: a wave submits more than the tenants may dispatch
// before the next drain, so the backlog reaches the brownout mark and
// admission sheds. A wave runs about 36 launches per serving device,
// enough that one host stall does not set the wave's time on its own.
constexpr uint32_t kWave = 96;
constexpr uint32_t kTenantInFlight = 18;
constexpr uint32_t kTenantQueued = 36;
constexpr uint64_t kServiceQueued = 120;
// Two shards over the four devices: two device threads run each wave
// and the other two take over migrated shards when a device is lost or
// quarantined. A wave waits for its slowest device, so four busy device
// threads on a four-CPU host made every wave hostage to whichever CPU
// the host stalled; two keep the run steady (and leave CPUs for the
// client and the system).
constexpr uint32_t kShards = 2;
// Modeled deadline budget per tenant (cycles); t<i> has priority 1+i.
constexpr uint64_t kDeadlines[kTenants] = {40000, 30000, 24000, 20000};
// The canonical pass: the first 4032 requests of the mix.
constexpr uint32_t kCanonicalWaves = 42;
constexpr int kMaxQuiesceRounds = 10000;

struct ServeRig {
  std::unique_ptr<simtomp::hostrt::DeviceManager> manager;
  /// Declared after the manager it fronts, so it is destroyed first.
  std::unique_ptr<LaunchService> service;
  std::vector<KernelStats> shapeStats;  ///< per ServeInputs::shapes entry
};

/// Launch every distinct request shape once, synchronously on device 0
/// (the warm-up that fills the process-wide caches and records each
/// shape's reference KernelStats). Output and stats are checked.
std::vector<KernelStats> launchShapes(ServeRig& rig, const ServeInputs& in,
                                      OpLedger& ops, Tracer& tracer,
                                      const char* spanName,
                                      double* totalMs = nullptr) {
  std::vector<KernelStats> stats;
  double total = 0.0;
  for (const size_t first : in.shapes) {
    const ServeRequest& r = in.requests[first];
    simtomp::omprt::TargetConfig config = requestConfig(r);
    config.fault.spec = "off";
    auto out = std::make_shared<std::vector<uint64_t>>(r.trip, 0);
    ops.attempt();
    simtomp::Result<KernelStats> result = KernelStats{};
    {
      const ScopedSpan span(tracer, spanName,
                            r.simdlen > 1 ? "spmd_simd" : "no_simd");
      const Clock::time_point t0 = Clock::now();
      result = rig.manager->launchOn(
          0, config, simtomp::simserve::makeMixRegion(r.kernel, r.trip, out));
      total += msBetween(t0, Clock::now());
    }
    if (!result.isOk()) {
      ops.fail(r.fingerprint + ": " + result.status().toString());
      stats.emplace_back();
      continue;
    }
    const std::string bad = verifyServeOutput(r, *out);
    if (!bad.empty()) ops.fail(r.fingerprint + ": " + bad);
    stats.push_back(result.value());
  }
  if (totalMs != nullptr) *totalMs = total;
  return stats;
}

std::unique_ptr<ServeRig> buildRig(const ServeInputs& in, OpLedger& ops,
                                   Tracer& tracer) {
  auto rig = std::make_unique<ServeRig>();
  {
    const ScopedSpan span(tracer, "gpusim.device_build");
    rig->manager = std::make_unique<simtomp::hostrt::DeviceManager>(
        std::vector<simtomp::gpusim::ArchSpec>(
            kDevices, simtomp::gpusim::ArchSpec::testTiny()));
  }
  simtomp::simserve::ServiceConfig config;
  config.maxQueued = kServiceQueued;
  config.shardCount = kShards;
  rig->service = std::make_unique<LaunchService>(*rig->manager, config);
  for (const simtomp::simserve::TenantSpec& t : in.tenants) {
    const Status st = rig->service->registerTenant(t);
    if (!st.isOk()) ops.fail("registerTenant: " + st.toString());
  }
  rig->shapeStats = launchShapes(*rig, in, ops, tracer, "omprt.launch");
  return rig;
}

TenantStats totals(const LaunchService& service, const ServeInputs& in) {
  TenantStats sum;
  for (const simtomp::simserve::TenantSpec& t : in.tenants) {
    const TenantStats s = service.tenantStats(t.name);
    sum.submitted += s.submitted;
    sum.accepted += s.accepted;
    sum.shed += s.shed;
    sum.evicted += s.evicted;
    sum.deadlineShed += s.deadlineShed;
    sum.completed += s.completed;
    sum.failed += s.failed;
    sum.migrated += s.migrated;
    sum.batchFollowers += s.batchFollowers;
    sum.deadlineHit += s.deadlineHit;
    sum.breakerTrips += s.breakerTrips;
  }
  return sum;
}

/// What one phase of the closed loop measured. Host times are process
/// CPU ms (every thread; see processCpuMs) unless named wall.
struct Phase {
  std::vector<double> reqMs;
  std::vector<double> reqWallMs;
  std::vector<double> waveMs;
  std::vector<double> waveWallMs;
  double servingMs = 0.0;
  double servingWallMs = 0.0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t simOps = 0;
  uint64_t cycles = 0;  ///< sum of completed requests' KernelStats.cycles
  StatsTally tally;     ///< shape stats of the completed requests
};

/// The closed-loop client: submits waves of the mix (cycling through
/// it), then pump() and drain(), and retires every request it sees
/// finish.
class ServeClient {
 public:
  ServeClient(ServeRig& rig, const ServeInputs& in, OpLedger& ops)
      : rig_(rig), in_(in), ops_(ops) {}

  void wave(Phase& phase, Tracer& tracer) {
    LaunchService& service = *rig_.service;
    const ScopedSpan span(tracer, "bench.wave");
    const HostTimer timer;
    for (uint32_t k = 0; k < kWave; ++k) {
      const size_t index = cursor_++ % in_.requests.size();
      const ServeRequest& r = in_.requests[index];
      auto out = std::make_shared<std::vector<uint64_t>>(r.trip, 0);
      ops_.attempt();
      ++phase.submitted;
      const Clock::time_point t0 = Clock::now();
      const double cpu0 = processCpuMs();
      simtomp::Result<uint64_t> id = uint64_t{0};
      {
        const ScopedSpan submit(tracer, "simserve.submit");
        id = service.submit(r.tenant, requestConfig(r),
                            simtomp::simserve::makeMixRegion(r.kernel, r.trip,
                                                             out),
                            r.fingerprint);
      }
      if (id.isOk()) {
        pending_.push_back({id.value(), index, std::move(out), t0, cpu0});
      } else if (id.status().code() == StatusCode::kResourceExhausted ||
                 id.status().code() == StatusCode::kDeadlineExceeded) {
        ops_.refuse();
      } else {
        ops_.fail("submit: " + id.status().toString());
      }
    }
    pumpDrain(phase, tracer);
    const double cpu_ms = timer.cpuMs();
    const double wall_ms = timer.wallMs();
    phase.waveMs.push_back(cpu_ms);
    phase.waveWallMs.push_back(wall_ms);
    phase.servingMs += cpu_ms;
    phase.servingWallMs += wall_ms;
  }

  /// pump()/drain() until nothing is queued or in flight.
  void quiesce(Phase& phase, Tracer& tracer) {
    LaunchService& service = *rig_.service;
    for (int round = 0; round < kMaxQuiesceRounds; ++round) {
      if (service.queuedRequests() == 0 &&
          service.dispatchedOutstanding() == 0) {
        return;
      }
      const HostTimer timer;
      pumpDrain(phase, tracer);
      phase.servingMs += timer.cpuMs();
      phase.servingWallMs += timer.wallMs();
    }
    ops_.fail("service did not quiesce");
  }

  /// Corrupt the output of the next request that completes.
  void plantWrongOutput() { plant_ = true; }

 private:
  struct Pending {
    uint64_t id;
    size_t request;
    std::shared_ptr<std::vector<uint64_t>> out;
    Clock::time_point submitted;
    double submittedCpuMs;
  };

  void pumpDrain(Phase& phase, Tracer& tracer) {
    LaunchService& service = *rig_.service;
    {
      const ScopedSpan span(tracer, "simserve.pump");
      service.pump();
    }
    Status drained;
    {
      const ScopedSpan span(tracer, "simserve.drain");
      drained = service.drain();
    }
    const Clock::time_point done = Clock::now();
    const double done_cpu = processCpuMs();
    if (!drained.isOk()) ops_.fail("drain: " + drained.toString());
    collect(done, done_cpu, phase);
  }

  /// Retire every pending request the last drain finished.
  void collect(Clock::time_point done, double doneCpuMs, Phase& phase) {
    size_t keep = 0;
    for (Pending& p : pending_) {
      const RequestOutcome o = rig_.service->outcome(p.id);
      const ServeRequest& r = in_.requests[p.request];
      if (o.state == RequestState::kDone) {
        const KernelStats& ref = rig_.shapeStats[r.shape];
        if (plant_ && !p.out->empty()) {
          (*p.out)[0] ^= 1;
          plant_ = false;
        }
        std::string bad = verifyServeOutput(r, *p.out);
        if (bad.empty() && o.cycles != ref.cycles) {
          bad = "cycles " + std::to_string(o.cycles) + " != shape reference " +
                std::to_string(ref.cycles);
        }
        // The service keeps the request (and its region's buffer)
        // alive; release the checked buffer so RSS does not grow with
        // run length.
        p.out->clear();
        p.out->shrink_to_fit();
        if (!bad.empty()) {
          ops_.fail(r.fingerprint + ": " + bad);
        } else {
          ++phase.completed;
          phase.simOps += simOps(ref);
          phase.cycles += o.cycles;
          phase.tally.add(ref);
          phase.reqMs.push_back(doneCpuMs - p.submittedCpuMs);
          phase.reqWallMs.push_back(msBetween(p.submitted, done));
        }
      } else if (o.state == RequestState::kFailed) {
        ops_.fail(r.fingerprint + " failed: " + o.status.toString());
      } else if (o.state == RequestState::kShed) {
        ops_.refuse();  // evicted after admission
      } else {
        pending_[keep++] = std::move(p);
      }
    }
    pending_.resize(keep);
  }

  ServeRig& rig_;
  const ServeInputs& in_;
  OpLedger& ops_;
  size_t cursor_ = 0;
  bool plant_ = false;
  std::vector<Pending> pending_;
};

/// The canonical pass every set-up ends with: a fixed number of waves
/// from the start of the mix, then quiescence. Deterministic.
struct Canonical {
  Phase phase;
  std::string stats;  ///< LaunchService::dumpStats
  TenantStats totals;
  uint64_t peakInFlight = 0;
};

uint64_t dumpField(const std::string& dump, const std::string& key) {
  const size_t at = dump.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::stoull(dump.substr(at + key.size() + 2));
}

void checkConservation(const LaunchService& service, const ServeInputs& in,
                       OpLedger& ops) {
  for (const simtomp::simserve::TenantSpec& t : in.tenants) {
    const std::string bad = conservationError(service.tenantStats(t.name));
    if (!bad.empty()) ops.fail("conservation, tenant " + t.name + ": " + bad);
  }
}

}  // namespace

ServeInputs makeServeInputs(uint64_t seed) {
  simtomp::simserve::MixProfile profile;
  profile.seed = subSeed(seed, 7);
  profile.tenants = kTenants;
  profile.requests = kMixRequests;
  profile.pumpEvery = 0;  // the client forms its own waves
  profile.faultPermille = kFaultPermille;
  profile.maxInFlight = kTenantInFlight;
  profile.maxQueued = kTenantQueued;
  const simtomp::simserve::Mix mix = simtomp::simserve::generateMix(profile);
  const std::vector<std::string>& names = simtomp::simserve::mixKernelNames();

  ServeInputs in;
  std::map<std::string, size_t> shape_of;
  for (const simtomp::simserve::MixOp& op : mix.ops) {
    if (op.kind == simtomp::simserve::MixOp::Kind::kTenant) {
      simtomp::simserve::TenantSpec t = op.tenant;
      t.deadlineCycles = kDeadlines[in.tenants.size() % kTenants];
      in.tenants.push_back(std::move(t));
      continue;
    }
    if (op.kind != simtomp::simserve::MixOp::Kind::kRequest) continue;
    ServeRequest r;
    r.tenant = op.reqTenant;
    for (size_t k = 0; k < names.size(); ++k) {
      if (names[k] == op.kernel) r.kernel = k;
    }
    r.trip = op.trip;
    r.simdlen = op.simdlen;
    r.fault = op.fault;
    r.fingerprint = op.kernel + "/t" + std::to_string(op.trip) + "/s" +
                    std::to_string(op.simdlen);
    const auto [it, fresh] =
        shape_of.emplace(r.fingerprint, in.shapes.size());
    if (fresh) in.shapes.push_back(in.requests.size());
    r.shape = it->second;
    in.requests.push_back(std::move(r));
  }
  return in;
}

std::string inputsDigest(const ServeInputs& in) {
  Digest d;
  for (const simtomp::simserve::TenantSpec& t : in.tenants) {
    d.add(t.name + "/" + std::to_string(t.priority) + "/" +
          std::to_string(t.deadlineCycles) + "\n");
  }
  for (const ServeRequest& r : in.requests) {
    d.add(r.tenant + " " + r.fingerprint + " " + r.fault + "\n");
  }
  return d.hex();
}

simtomp::omprt::TargetConfig requestConfig(const ServeRequest& r) {
  // The shape simtomp_serve replays: a small three-level SPMD kernel.
  simtomp::omprt::TargetConfig config;
  config.teamsMode = simtomp::omprt::ExecMode::kSPMD;
  config.numTeams = 2;
  config.threadsPerTeam = 64;
  config.parallelMode = simtomp::omprt::ExecMode::kSPMD;
  config.simdlen = r.simdlen;
  config.hostWorkers = 1;
  config.check.mode = simtomp::simcheck::CheckMode::kOff;
  config.tuneKey = simtomp::simserve::mixKernelNames()[r.kernel];
  config.tripCount = r.trip;
  config.fault.spec = r.fault.empty() ? "off" : r.fault;
  config.watchdogSteps = 2000000;
  return config;
}

std::string verifyServeOutput(const ServeRequest& r,
                              const std::vector<uint64_t>& out) {
  if (out.size() < r.trip) return "output buffer too short";
  for (uint64_t i = 0; i < r.trip; ++i) {
    const uint64_t want = simtomp::simserve::mixKernelValue(r.kernel, i);
    if (out[i] != want) {
      return "out[" + std::to_string(i) + "]=" + std::to_string(out[i]) +
             " want " + std::to_string(want);
    }
  }
  return {};
}

std::string conservationError(const TenantStats& s) {
  if (s.submitted != s.accepted + (s.shed - s.evicted) + s.deadlineShed) {
    return "submitted " + std::to_string(s.submitted) + " != accepted " +
           std::to_string(s.accepted) + " + shed " + std::to_string(s.shed) +
           " - evicted " + std::to_string(s.evicted) + " + deadline_shed " +
           std::to_string(s.deadlineShed);
  }
  if (s.accepted != s.completed + s.failed + s.evicted) {
    return "accepted " + std::to_string(s.accepted) + " != completed " +
           std::to_string(s.completed) + " + failed " +
           std::to_string(s.failed) + " + evicted " + std::to_string(s.evicted);
  }
  if (s.completed != s.deadlineHit + s.deadlineMiss) {
    return "completed " + std::to_string(s.completed) + " != deadline_hit " +
           std::to_string(s.deadlineHit) + " + deadline_miss " +
           std::to_string(s.deadlineMiss);
  }
  return {};
}

RunReport runServe(const RunOptions& options) {
  RunReport report;
  OpLedger& ops = report.ops;
  Tracer tracer(options.trace);
  Tracer off(false);

  // Set-up, several times; each ends with the canonical pass, which must
  // reproduce the first set-up's exactly. The last rig serves the
  // measured phase.
  std::vector<double> setup_s;
  std::vector<double> setup_wall_s;
  std::unique_ptr<ServeInputs> in;
  std::unique_ptr<ServeRig> rig;
  std::unique_ptr<ServeClient> client;
  Canonical canonical;
  for (int rep = 0; rep < options.setupReps; ++rep) {
    client.reset();
    rig.reset();  // release the previous devices before building more
    const ScopedSpan setup(tracer, "bench.setup");
    const HostTimer timer;
    in = std::make_unique<ServeInputs>(makeServeInputs(options.seed));
    rig = buildRig(*in, ops, tracer);
    client = std::make_unique<ServeClient>(*rig, *in, ops);
    Canonical c;
    for (uint32_t w = 0; w < kCanonicalWaves; ++w) client->wave(c.phase, off);
    client->quiesce(c.phase, off);
    setup_s.push_back(timer.cpuMs() / 1e3);
    setup_wall_s.push_back(timer.wallMs() / 1e3);
    std::ostringstream dump;
    rig->service->dumpStats(dump);
    c.stats = dump.str();
    c.totals = totals(*rig->service, *in);
    c.peakInFlight = rig->service->peakInFlight();
    checkConservation(*rig->service, *in, ops);
    if (rep == 0) {
      canonical = std::move(c);
    } else if (c.stats != canonical.stats ||
               c.phase.cycles != canonical.phase.cycles) {
      ops.fail("canonical serve pass " + std::to_string(rep) +
               " drifted from the first set-up");
    }
  }
  Digest stats_digest;
  stats_digest.add(canonical.stats);
  report.note("inputs_digest", jsonString(inputsDigest(*in)));
  report.note("serve_stats_digest", jsonString(stats_digest.hex()));
  Digest shape_digest;
  for (const KernelStats& s : rig->shapeStats) shape_digest.add(s.toJson());
  report.note("stats_digest", jsonString(shape_digest.hex()));
  report.note("shapes", std::to_string(in->shapes.size()));

  // The measured phase: waves until `seconds` elapse, then quiescence.
  const auto serve = [&](double seconds, Tracer& t) {
    Phase phase;
    const Clock::time_point start = Clock::now();
    do {
      client->wave(phase, t);
    } while (msBetween(start, Clock::now()) < seconds * 1e3);
    client->quiesce(phase, t);
    return phase;
  };

  if (options.plantWrongOutput) client->plantWrongOutput();
  MetricSet& m = report.metrics;
  if (!options.trace) {
    const TenantStats before = totals(*rig->service, *in);
    const Usage u0 = Usage::now();
    const Phase p = serve(options.seconds, off);
    report.note("measured_usage", usageJson(Usage::now().since(u0)));
    const TenantStats after = totals(*rig->service, *in);
    checkConservation(*rig->service, *in, ops);
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    reportLatency(report, "launch_ms", p.waveMs);
    reportLatency(report, "req_ms", p.reqMs);
    m.set("sim_ops_per_s", static_cast<double>(p.simOps) / (p.servingMs / 1e3),
          "1/s");
    m.set("modeled_cycles", static_cast<double>(canonical.phase.cycles),
          "cycles");
    m.set("req_per_s", static_cast<double>(p.completed) / (p.servingMs / 1e3),
          "1/s");
    report.note(
        "wall",
        "{\"setup_s\": " + jsonNumber(median(setup_wall_s)) +
            ", \"launch_ms_p50\": " + jsonNumber(median(p.waveWallMs)) +
            ", \"launch_ms_tail\": " + jsonNumber(tailOf(p.waveWallMs).value) +
            ", \"req_ms_p50\": " + jsonNumber(median(p.reqWallMs)) +
            ", \"req_ms_tail\": " + jsonNumber(tailOf(p.reqWallMs).value) +
            ", \"req_per_s\": " +
            jsonNumber(static_cast<double>(p.completed) /
                       (p.servingWallMs / 1e3)) +
            "}");
    m.set("slo_hit_frac",
          static_cast<double>(after.deadlineHit - before.deadlineHit) /
              static_cast<double>(after.submitted - before.submitted),
          "fraction");
    report.note("submitted", std::to_string(p.submitted));
    report.note("completed", std::to_string(p.completed));
    report.note("waves", std::to_string(p.waveMs.size()));
    return report;
  }

  // Untraced and traced quarters, alternating: their per-request ratio
  // is the tracing overhead.
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  uint64_t plain_n = 0;
  uint64_t traced_n = 0;
  for (int q = 0; q < 2; ++q) {
    const Phase plain = serve(options.seconds / 4, off);
    const Phase traced = serve(options.seconds / 4, tracer);
    plain_ms += plain.servingMs;
    plain_n += plain.completed;
    traced_ms += traced.servingMs;
    traced_n += traced.completed;
  }
  checkConservation(*rig->service, *in, ops);
  m.set("bench.trace_overhead",
        (traced_ms / static_cast<double>(traced_n)) /
            (plain_ms / static_cast<double>(plain_n)),
        "ratio");
  std::vector<double> submit_us = tracer.durationsMs("simserve.submit");
  for (double& v : submit_us) v *= 1e3;
  m.set("simserve.submit_us", median(submit_us), "us");
  m.set("simserve.pump_ms", median(tracer.durationsMs("simserve.pump")), "ms");
  m.set("simserve.drain_ms", median(tracer.durationsMs("simserve.drain")),
        "ms");

  std::vector<double> effective_us;
  for (const ServeRequest& r : in->requests) {
    const ScopedSpan span(tracer, "hostrt.effective_config");
    const Clock::time_point t0 = Clock::now();
    const simtomp::omprt::TargetConfig resolved =
        rig->manager->effectiveConfig(0, requestConfig(r));
    effective_us.push_back(msBetween(t0, Clock::now()) * 1e3);
    if (resolved.simdlen != r.simdlen) {
      ops.fail(r.fingerprint + ": effectiveConfig changed simdlen");
    }
  }
  m.set("hostrt.effective_config_us", median(effective_us), "us");

  for (const char* mode : {"no_simd", "spmd_simd", "generic_simd"}) {
    m.set(std::string("omprt.launch_ms.") + mode,
          median(tracer.durationsMs("omprt.launch", mode)), "ms");
  }
  const Usage launch_usage = tracer.usageOf("omprt.launch");
  m.set("omprt.launch_sys_frac",
        launch_usage.sysMs / (launch_usage.userMs + launch_usage.sysMs),
        "fraction");
  reportDeviceBuild(tracer, m);
  m.set("gpusim.upload_ms", 0.0, "ms");
  canonical.phase.tally.report(m);
  m.set("fiber.switch_ns", fiberSwitchNs(tracer, 200000, 5), "ns");

  std::vector<double> fast_off;
  std::vector<double> fast_auto;
  for (int r = 0; r < 2; ++r) {
    double ms = 0.0;
    {
      const ScopedEnv fast("SIMTOMP_FAST", "off");
      (void)launchShapes(*rig, *in, ops, off, "bench.ratio_launch", &ms);
    }
    fast_off.push_back(ms);
    (void)launchShapes(*rig, *in, ops, off, "bench.ratio_launch", &ms);
    fast_auto.push_back(ms);
  }
  m.set("omprt.fastpath_ratio", median(fast_off) / median(fast_auto),
        "ratio");
  m.set("simcheck.overhead_ratio", 0.0, "ratio");
  m.set("simprof.overhead_ratio", 0.0, "ratio");
  m.set("simcheck.findings", 0.0, "count");

  const TenantStats& c = canonical.totals;
  m.set("simserve.batch_follow_frac",
        static_cast<double>(c.batchFollowers) / static_cast<double>(c.completed),
        "fraction");
  m.set("simserve.shed_frac",
        static_cast<double>(c.shed + c.deadlineShed) /
            static_cast<double>(c.submitted),
        "fraction");
  m.set("simserve.migrations", static_cast<double>(c.migrated), "count");
  m.set("simserve.breaker_trips", static_cast<double>(c.breakerTrips),
        "count");
  m.set("simserve.peak_inflight", static_cast<double>(canonical.peakInFlight),
        "count");
  m.set("simserve.queue_depth_peak",
        static_cast<double>(dumpField(canonical.stats, "peak_queue_depth")),
        "count");
  reportLedger(tracer, m);
  report.note("spans", std::to_string(tracer.spans().size()));
  report.spans = tracer.toJsonLines();
  return report;
}

}  // namespace perfbench
