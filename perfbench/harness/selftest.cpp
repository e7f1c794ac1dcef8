// perfbench self-tests: the tail-percentile rule, seed determinism and
// failure accounting. Exits 0 when every check passes.
//
//   perfbench_selftest
#include <cstdio>
#include <string>
#include <vector>

#include "harness/ledger.h"
#include "harness/policy.h"
#include "harness/serve.h"
#include "harness/sweep.h"
#include "harness/workload.h"
#include "simserve/mix.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

std::vector<double> ramp(size_t n) {
  std::vector<double> v;
  // Descending, so the rule cannot rely on sorted input.
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void tailRule() {
  struct Case {
    size_t n;
    double percentile;
    size_t beyond;
  };
  // Nearest rank: the highest percentile up to p99 leaving >= 10
  // samples above it; below 20 samples the median, with its thin tail
  // noted.
  for (const Case c : {Case{1000, 99.0, 10}, Case{999, 98.9, 10},
                       Case{200, 95.0, 10}, Case{199, 94.9, 10},
                       Case{100, 90.0, 10}, Case{40, 75.0, 10},
                       Case{20, 50.0, 10}, Case{5, 50.0, 2},
                       Case{100000, 99.0, 1000}}) {
    const Tail t = tailOf(ramp(c.n));
    const double want_value =
        static_cast<double>(c.n - c.beyond);  // rank value on the ramp
    expect(t.samples == c.n && t.percentile == c.percentile &&
               t.beyond == c.beyond && t.value == want_value,
           "tail of " + std::to_string(c.n) + " samples is p" +
               jsonNumber(c.percentile) + " with " +
               std::to_string(c.beyond) + " beyond (got p" +
               jsonNumber(t.percentile) + ", " + std::to_string(t.beyond) +
               ", value " + jsonNumber(t.value) + ")");
  }
  expect(tailOf({}).samples == 0 && tailOf({}).value == 0.0,
         "empty sample has an empty tail");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even sample");
}

std::string note(const RunReport& r, const std::string& key) {
  for (const auto& [k, v] : r.detail) {
    if (k == key) return v;
  }
  return {};
}

RunOptions shortRun(Workload w, uint64_t seed) {
  RunOptions o;
  o.workload = w;
  o.seed = seed;
  o.seconds = 0.2;
  o.setupReps = 1;
  return o;
}

void seedDeterminism() {
  expect(inputsDigest(makeSweepInputs(7)) == inputsDigest(makeSweepInputs(7)),
         "sweep: same seed, same inputs");
  expect(inputsDigest(makeSweepInputs(7)) != inputsDigest(makeSweepInputs(8)),
         "sweep: another seed, other inputs");
  expect(inputsDigest(makeServeInputs(7)) == inputsDigest(makeServeInputs(7)),
         "serve: same seed, same inputs");
  expect(inputsDigest(makeServeInputs(7)) != inputsDigest(makeServeInputs(8)),
         "serve: another seed, other inputs");

  for (const Workload w : {Workload::kPaperSweep, Workload::kServeMixed}) {
    (void)pinPolicy(w);
    const std::string name = workloadName(w);
    const RunReport a = runWorkload(shortRun(w, 7));
    const RunReport b = runWorkload(shortRun(w, 7));
    const RunReport c = runWorkload(shortRun(w, 8));
    expect(a.ops.failed() == 0 && b.ops.failed() == 0 && c.ops.failed() == 0,
           name + ": short runs pass every gate");
    expect(a.metrics.get("modeled_cycles") > 0 &&
               a.metrics.get("modeled_cycles") ==
                   b.metrics.get("modeled_cycles"),
           name + ": modeled_cycles repeats for one seed");
    expect(!note(a, "stats_digest").empty() &&
               note(a, "stats_digest") == note(b, "stats_digest"),
           name + ": stats digest repeats for one seed");
    expect(note(a, "inputs_digest") != note(c, "inputs_digest"),
           name + ": another seed gives other inputs");
  }
}

void failureAccounting() {
  ServeRequest r;
  r.kernel = 0;
  r.trip = 16;
  std::vector<uint64_t> out(r.trip);
  for (uint64_t i = 0; i < r.trip; ++i) {
    out[i] = simtomp::simserve::mixKernelValue(r.kernel, i);
  }
  expect(verifyServeOutput(r, out).empty(), "serve oracle accepts a right output");
  out[5] += 1;
  expect(!verifyServeOutput(r, out).empty(), "serve oracle rejects a wrong output");

  simtomp::simserve::TenantStats s;
  s.submitted = 10;
  s.accepted = 8;
  s.shed = 3;
  s.evicted = 1;
  s.completed = 6;
  s.failed = 1;
  s.deadlineHit = 4;
  s.deadlineMiss = 2;
  expect(conservationError(s).empty(), "conservation holds on balanced counts");
  s.completed = 5;
  expect(!conservationError(s).empty(), "conservation catches a lost request");

  for (const Workload w : {Workload::kPaperSweep, Workload::kServeMixed}) {
    (void)pinPolicy(w);
    RunOptions o = shortRun(w, 3);
    o.plantWrongOutput = true;
    const RunReport planted = runWorkload(o);
    expect(planted.ops.failed() == 1 && planted.ops.attempted() > 1,
           std::string(workloadName(w)) +
               ": one planted wrong output is one failed op (failed=" +
               std::to_string(planted.ops.failed()) + ")");
  }
}

}  // namespace

int main() {
  tailRule();
  seedDeterminism();
  failureAccounting();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
