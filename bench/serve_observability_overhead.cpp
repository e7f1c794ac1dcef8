// Serve observability overhead: tracing must be free where it counts.
//
// The same pressured mix (seeded generator: shedding, batching,
// device-lost migrations) replays through two identical launch
// services, tracing off and tracing on. The gate is *byte identity* of
// the modeled surfaces — dumpStats() and the replay report — because
// the tracer is purely observational: it hooks the scheduler but never
// feeds back into admission, placement or the modeled clock. Host-side
// cost is reported (min over repetitions) but NOT gated: wall time is
// machine noise, the modeled bytes are the contract. Results land in
// BENCH_serve_observability.json; tools/ci.sh stage 12 runs this after
// the trace byte-compares.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hostrt/device_manager.h"
#include "simserve/mix.h"
#include "simserve/service.h"

namespace {

using namespace simtomp;
using bench::Row;

constexpr size_t kDevices = 4;
constexpr int kReps = 3;

struct RunOut {
  std::string stats;   ///< dumpStats() bytes (modeled; must not move)
  std::string report;  ///< ReplayReport text (modeled; must not move)
  uint64_t traceEvents = 0;
  uint64_t traceDropped = 0;
  double hostMs = 0.0;
};

simserve::Mix pressuredMix() {
  simserve::MixProfile profile;
  profile.seed = 11;
  profile.tenants = 4;
  profile.requests = 384;
  profile.pumpEvery = 32;
  profile.faultPermille = 20;
  profile.maxInFlight = 8;
  profile.maxQueued = 6;
  return simserve::generateMix(profile);
}

RunOut runOnce(const simserve::Mix& mix, bool trace) {
  std::vector<gpusim::ArchSpec> specs(kDevices, gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  simserve::ServiceConfig config;
  config.maxQueued = 24;
  config.trace.enabled = trace;
  simserve::LaunchService service(mgr, config);

  const bench::WallTimer timer;
  const Result<simserve::ReplayReport> report = simserve::replayMix(service, mix);
  if (!report.isOk()) {
    std::fprintf(stderr, "FATAL: %s\n", report.status().toString().c_str());
    std::abort();
  }
  RunOut run;
  run.hostMs = timer.elapsedMs();
  run.report = report.value().toString();
  std::ostringstream stats;
  service.dumpStats(stats);
  run.stats = stats.str();
  if (const simserve::ServiceTracer* tracer = service.tracer()) {
    run.traceEvents = tracer->canonicalRing().recorded() +
                      tracer->physicalRing().recorded();
    run.traceDropped = tracer->canonicalRing().dropped() +
                       tracer->physicalRing().dropped();
  }
  return run;
}

}  // namespace

int main() {
  const simserve::Mix mix = pressuredMix();
  RunOut off = runOnce(mix, /*trace=*/false);
  RunOut on = runOnce(mix, /*trace=*/true);
  for (int rep = 1; rep < kReps; ++rep) {
    const RunOut off2 = runOnce(mix, /*trace=*/false);
    const RunOut on2 = runOnce(mix, /*trace=*/true);
    if (off2.hostMs < off.hostMs) off.hostMs = off2.hostMs;
    if (on2.hostMs < on.hostMs) on.hostMs = on2.hostMs;
  }

  const bool statsIdentical = off.stats == on.stats;
  const bool reportIdentical = off.report == on.report;
  const double overhead = off.hostMs > 0.0 ? on.hostMs / off.hostMs : 0.0;

  std::vector<Row> rows;
  rows.push_back({"tracing off", 0, 1.0, off.hostMs});
  rows.push_back({"tracing on", on.traceEvents, overhead, on.hostMs});
  bench::printTable("Serve observability: tracing overhead (modeled bytes gated)",
                    "trace events recorded", on.traceEvents, rows);
  std::printf(
      "replay: %s\n"
      "stats identical: %s; report identical: %s; trace events %llu "
      "(%llu dropped); host overhead x%.3f (informational)\n",
      on.report.c_str(), statsIdentical ? "yes" : "NO",
      reportIdentical ? "yes" : "NO",
      static_cast<unsigned long long>(on.traceEvents),
      static_cast<unsigned long long>(on.traceDropped), overhead);

  std::string out;
  json::Writer w(out);
  w.object(json::Layout::kLines);
  w.key("bench").string("serve_observability");
  w.key("requests").uint(mix.requestCount());
  w.key("stats_identical").boolean(statsIdentical);
  w.key("report_identical").boolean(reportIdentical);
  w.key("trace_events").uint(on.traceEvents);
  w.key("trace_dropped").uint(on.traceDropped);
  w.key("host_ms_off").fixed(off.hostMs, 3);
  w.key("host_ms_on").fixed(on.hostMs, 3);
  w.key("host_overhead").fixed(overhead, 4);
  w.end();
  if (bench::exitCode(bench::writeBenchFile("serve_observability", out)) !=
      0) {
    return 1;
  }

  if (!statsIdentical || !reportIdentical) {
    std::fprintf(stderr,
                 "FATAL: tracing perturbed the modeled surfaces "
                 "(stats %s, report %s)\n",
                 statsIdentical ? "ok" : "DIFFER",
                 reportIdentical ? "ok" : "DIFFER");
    return 1;
  }
  return 0;
}
