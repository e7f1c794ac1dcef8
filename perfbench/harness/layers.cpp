#include "harness/layers.h"

#include "fiber/fiber.h"

namespace perfbench {

namespace {

using simtomp::gpusim::Counter;
using simtomp::gpusim::KernelStats;

constexpr EndToEndDef kEndToEnd[] = {
    {"setup_s", "s", "lower", 0.25,
     "median host CPU time of the in-process set-ups: seeded inputs, "
     "device/manager/service construction, uploads and the warm-up "
     "(canonical) pass"},
    {"peak_rss_mb", "MB", "lower", 0.10, "process max RSS"},
    {"launch_ms_p50", "ms", "lower", 0.25,
     "host CPU ms per apps::run* call (serve-mixed: per submit+pump+drain "
     "wave, every thread)"},
    {"launch_ms_tail", "ms", "lower", 0.25,
     "highest percentile of the launch samples with >= 10 beyond it"},
    {"sim_ops_per_s", "1/s", "higher", 0.25,
     "simulated device ops per host CPU second of launch (serving) time"},
    {"modeled_cycles", "cycles", "lower", 0.05,
     "sum of KernelStats.cycles over one canonical pass"},
    {"req_per_s", "1/s", "higher", 0.25,
     "completed requests per host CPU second of the measured phase "
     "(sweeps: one launch is one request)"},
    {"req_ms_p50", "ms", "lower", 0.25,
     "host CPU ms (every thread) from submit() to the return of the "
     "drain() that retired the request (sweeps: the launch)"},
    {"req_ms_tail", "ms", "lower", 0.25,
     "highest percentile of the request samples with >= 10 beyond it"},
    {"slo_hit_frac", "fraction", "higher", 0.1,
     "deadline hits / submitted, shed and failed count as misses "
     "(sweeps: verified launches / attempted)"},
};

constexpr const char* kLedgerLayers[] = {"gpusim", "omprt", "fiber", "hostrt",
                                         "simserve"};

std::vector<LayerDef> buildLayerDefs() {
  const std::string serve = "serve-mixed";
  const std::string paper = "paper-sweep";
  const std::string checked = "checked-sweep";
  const std::string sweeps = "paper-sweep, checked-sweep";
  std::vector<LayerDef> defs = {
      {"gpusim.device_build_ms", "ms", "lower", "setup_s", serve,
       "launch_ms_*, req_ms_* on every workload"},
      {"gpusim.device_build_minflt", "count", "lower", "peak_rss_mb", serve,
       "launch_ms_*, req_ms_* on every workload"},
      {"gpusim.upload_ms", "ms", "lower", "launch_ms_p50", paper,
       "serve-mixed (requests write host buffers)"},
      {"gpusim.sim_ops", "count", "lower", "sim_ops_per_s", paper,
       "every workload under host-only changes"},
      {"gpusim.blocks", "count", "lower", "sim_ops_per_s", paper,
       "every workload under host-only changes"},
      {"gpusim.sync_ops", "count", "lower", "sim_ops_per_s", checked, serve},
      {"fiber.switch_ns", "ns", "lower", "launch_ms_p50", checked, serve},
      {"omprt.launch_ms.no_simd", "ms", "lower", "launch_ms_p50", paper, serve},
      {"omprt.launch_ms.spmd_simd", "ms", "lower", "launch_ms_p50", paper,
       serve},
      {"omprt.launch_ms.generic_simd", "ms", "lower", "launch_ms_p50", paper,
       serve},
      {"omprt.launch_sys_frac", "fraction", "lower", "launch_ms_p50", checked,
       serve},
      {"omprt.state_polls", "count", "lower", "modeled_cycles", paper, serve},
      {"omprt.dispatch_cascade", "count", "lower", "modeled_cycles", paper,
       serve},
      {"omprt.payload_copies", "count", "lower", "modeled_cycles", paper,
       serve},
      {"omprt.sharing_overflows", "count", "lower", "modeled_cycles", paper,
       serve},
      {"omprt.simd_lane_util", "fraction", "higher", "modeled_cycles", paper,
       serve},
      {"omprt.fastpath_ratio", "ratio", "higher", "launch_ms_p50", paper,
       checked + " (fast path off there)"},
      {"hostrt.effective_config_us", "us", "lower", "req_ms_p50", serve,
       sweeps + " (no DeviceManager)"},
      {"simserve.submit_us", "us", "lower", "req_ms_p50", serve, sweeps},
      {"simserve.pump_ms", "ms", "lower", "req_ms_p50", serve, sweeps},
      {"simserve.drain_ms", "ms", "lower", "req_per_s", serve, sweeps},
      {"simserve.batch_follow_frac", "fraction", "higher", "req_per_s", serve,
       sweeps},
      {"simserve.shed_frac", "fraction", "lower", "slo_hit_frac", serve,
       sweeps},
      {"simserve.migrations", "count", "lower", "slo_hit_frac", serve, sweeps},
      {"simserve.breaker_trips", "count", "lower", "slo_hit_frac", serve,
       sweeps},
      {"simserve.peak_inflight", "count", "higher", "req_per_s", serve,
       sweeps},
      {"simserve.queue_depth_peak", "count", "lower", "req_ms_tail", serve,
       sweeps},
      {"simcheck.overhead_ratio", "ratio", "lower", "launch_ms_p50", checked,
       paper + ", " + serve + " (checking off)"},
      {"simprof.overhead_ratio", "ratio", "lower", "launch_ms_p50", checked,
       paper + ", " + serve + " (profiling off)"},
      {"simcheck.findings", "count", "lower", "launch_ms_tail", checked,
       paper + ", " + serve + " (checking off)"},
      {"bench.trace_overhead", "ratio", "lower", "none (the benchmark's own "
       "cost)", "every workload", "every workload"},
  };
  // Ledger rows: where each layer's host cost should show end to end.
  struct LedgerTarget {
    const char* layer;
    std::string moves;
    std::string on;
    std::string flat;
  };
  const LedgerTarget targets[] = {
      {"gpusim", "setup_s", serve, "launch_ms_*, req_ms_*"},
      {"omprt", "launch_ms_p50", checked, serve},
      {"fiber", "launch_ms_p50", checked, serve},
      {"hostrt", "req_ms_p50", serve, sweeps},
      {"simserve", "req_ms_p50", serve, sweeps},
  };
  for (const LedgerTarget& t : targets) {
    const std::string base = std::string("ledger.") + t.layer;
    defs.push_back({base + ".user_ms", "ms/call", "lower", t.moves, t.on,
                    t.flat});
    defs.push_back({base + ".sys_ms", "ms/call", "lower", t.moves, t.on,
                    t.flat});
    defs.push_back({base + ".minflt", "faults/call", "lower", t.moves, t.on,
                    t.flat});
    defs.push_back({base + ".rss_growth_mb", "MB", "lower", "peak_rss_mb",
                    t.on, t.flat});
  }
  return defs;
}

}  // namespace

std::span<const EndToEndDef> endToEndDefs() { return kEndToEnd; }

const std::vector<LayerDef>& layerDefs() {
  static const std::vector<LayerDef> defs = buildLayerDefs();
  return defs;
}

std::string catalogJson() {
  std::string out = "{\"end_to_end\": [";
  bool first = true;
  for (const EndToEndDef& d : endToEndDefs()) {
    out += std::string(first ? "" : ", ") + "{\"name\": " + jsonString(d.name) +
           ", \"unit\": " + jsonString(d.unit) +
           ", \"better\": " + jsonString(d.better) +
           ", \"bound\": " + jsonNumber(d.bound) +
           ", \"meaning\": " + jsonString(d.meaning) + "}";
    first = false;
  }
  out += "], \"per_layer\": [";
  first = true;
  for (const LayerDef& d : layerDefs()) {
    out += std::string(first ? "" : ", ") + "{\"name\": " + jsonString(d.name) +
           ", \"unit\": " + jsonString(d.unit) +
           ", \"better\": " + jsonString(d.better) +
           ", \"moves\": " + jsonString(d.moves) +
           ", \"moves_on\": " + jsonString(d.movesOn) +
           ", \"flat_on\": " + jsonString(d.flatOn) + "}";
    first = false;
  }
  return out + "]}";
}

uint64_t simOps(const KernelStats& s) {
  uint64_t ops = 0;
  for (const Counter c :
       {Counter::kAluWork, Counter::kGlobalLoad, Counter::kGlobalStore,
        Counter::kSharedLoad, Counter::kSharedStore, Counter::kLocalAccess,
        Counter::kAtomicRmw, Counter::kShuffle}) {
    ops += s.counters.get(c);
  }
  return ops;
}

void StatsTally::add(const KernelStats& s) {
  cycles += s.cycles;
  simOps += perfbench::simOps(s);
  blocks += s.numBlocks;
  syncOps += s.counters.get(Counter::kWarpSync) +
             s.counters.get(Counter::kBlockSync);
  statePolls += s.counters.get(Counter::kStatePoll);
  dispatchCascade += s.counters.get(Counter::kDispatchCascade);
  payloadCopies += s.counters.get(Counter::kPayloadArgCopy);
  sharingOverflows += s.counters.get(Counter::kSharingSpaceOverflow);
  laneRounds += s.counters.get(Counter::kSimdLaneRounds);
  idleLaneRounds += s.counters.get(Counter::kSimdIdleLaneRounds);
}

double StatsTally::simdLaneUtil() const {
  if (laneRounds == 0) return 1.0;
  return 1.0 - static_cast<double>(idleLaneRounds) /
                   static_cast<double>(laneRounds);
}

void StatsTally::report(MetricSet& out) const {
  const auto count = [&out](const char* name, uint64_t v) {
    out.set(name, static_cast<double>(v), "count");
  };
  count("gpusim.sim_ops", simOps);
  count("gpusim.blocks", blocks);
  count("gpusim.sync_ops", syncOps);
  count("omprt.state_polls", statePolls);
  count("omprt.dispatch_cascade", dispatchCascade);
  count("omprt.payload_copies", payloadCopies);
  count("omprt.sharing_overflows", sharingOverflows);
  out.set("omprt.simd_lane_util", simdLaneUtil(), "fraction");
}

double fiberSwitchNs(Tracer& tracer, uint64_t yields, int reps) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    simtomp::fiber::FiberScheduler scheduler;
    for (int f = 0; f < 2; ++f) {
      scheduler.spawn([&scheduler, yields] {
        for (uint64_t i = 0; i < yields; ++i) scheduler.yield();
      });
    }
    const ScopedSpan span(tracer, "fiber.switch");
    const Clock::time_point t0 = Clock::now();
    const simtomp::Status st = scheduler.run();
    const double ms = msBetween(t0, Clock::now());
    if (!st.isOk()) return 0.0;
    ns.push_back(ms * 1e6 / static_cast<double>(2 * yields));
  }
  return median(ns);
}

void reportDeviceBuild(const Tracer& tracer, MetricSet& out) {
  std::vector<double> faults;
  for (const Span& s : tracer.spans()) {
    if (s.name == "gpusim.device_build") {
      faults.push_back(static_cast<double>(s.usage.minorFaults));
    }
  }
  out.set("gpusim.device_build_ms",
          median(tracer.durationsMs("gpusim.device_build")), "ms");
  out.set("gpusim.device_build_minflt", median(faults), "count");
}

void reportLedger(const Tracer& tracer, MetricSet& out) {
  for (const char* layer : kLedgerLayers) {
    const std::string prefix = std::string(layer) + ".";
    Usage total;
    uint64_t calls = 0;
    for (const Span& s : tracer.spans()) {
      if (s.name.rfind(prefix, 0) != 0) continue;
      total.accumulate(s.usage);
      ++calls;
    }
    const double n = calls == 0 ? 1.0 : static_cast<double>(calls);
    const std::string base = std::string("ledger.") + layer;
    out.set(base + ".user_ms", total.userMs / n, "ms/call");
    out.set(base + ".sys_ms", total.sysMs / n, "ms/call");
    out.set(base + ".minflt", static_cast<double>(total.minorFaults) / n,
            "faults/call");
    out.set(base + ".rss_growth_mb",
            static_cast<double>(total.maxRssKb) / 1024.0, "MB");
  }
}

}  // namespace perfbench
