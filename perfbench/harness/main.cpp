// perfbench: run one workload and print its metrics.
//
//   perfbench --workload <paper-sweep|checked-sweep|serve-mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--setup-reps <k>] [--spans-out <path>]
//             [--plant-wrong-output <0|1>]
//   perfbench --list-metrics
//
// stdout: a "detail" JSON line (resolved policy, digests, tail rules,
// refused operations, failure reasons) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// correctness gate failed, 2 on a usage error. --plant-wrong-output 1
// (self-test only) corrupts the first measured operation's output.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/layers.h"
#include "harness/policy.h"
#include "harness/workload.h"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper-sweep|checked-sweep|serve-mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-reps <k>] "
               "[--spans-out <path>] [--plant-wrong-output <0|1>]\n"
               "       perfbench --list-metrics\n",
               why.c_str());
  return 2;
}

bool parseUint(const std::string& text, uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::stoull(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  uint64_t setup_reps = 3;
  uint64_t plant = 0;
  std::string spans_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      std::cout << catalogJson() << "\n";
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      ok = parseUint(value, seed);
      have_seed = ok;
    } else if (arg == "--seconds") {
      ok = parseUint(value, seconds) && seconds >= 1;
    } else if (arg == "--trace") {
      ok = parseUint(value, trace) && trace <= 1;
    } else if (arg == "--setup-reps") {
      ok = parseUint(value, setup_reps) && setup_reps >= 1 && setup_reps <= 9;
    } else if (arg == "--plant-wrong-output") {
      ok = parseUint(value, plant) && plant <= 1;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return usage("unknown argument " + arg);
    }
    if (!ok) return usage("bad value for " + arg + ": " + value);
  }
  const std::optional<Workload> workload = workloadFromName(workload_name);
  if (!workload.has_value()) return usage("unknown workload '" + workload_name + "'");
  if (!have_seed || seconds == 0 || trace > 1) {
    return usage("--seed, --seconds and --trace are required");
  }

  // Pin the policy before anything reads the environment.
  const std::vector<std::string> changed = pinPolicy(*workload);
  const ResolvedPolicy policy = resolvePolicy();
  const std::string mismatch = policyMismatch(*workload, policy);

  RunOptions options;
  options.workload = *workload;
  options.seed = seed;
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.setupReps = static_cast<int>(setup_reps);
  options.plantWrongOutput = plant == 1;

  RunReport report;
  if (!mismatch.empty()) {
    report.ops.attempt();
    report.ops.fail("resolved policy is not the pinned one: " + mismatch);
  } else {
    report = runWorkload(options);
  }

  // The report must carry exactly the catalog's metrics for this mode,
  // and every end-to-end value must be a positive number.
  std::vector<std::string> want;
  if (options.trace) {
    for (const LayerDef& d : layerDefs()) want.push_back(d.name);
  } else {
    for (const EndToEndDef& d : endToEndDefs()) want.emplace_back(d.name);
  }
  if (report.ops.failed() == 0) {
    for (const std::string& name : want) {
      const double v = report.metrics.get(name);
      if (!report.metrics.has(name)) {
        report.ops.fail("metric " + name + " missing");
      } else if (!std::isfinite(v) || (!options.trace && v <= 0.0)) {
        report.ops.fail("metric " + name + " = " + jsonNumber(v));
      }
    }
    for (const auto& [name, value] : report.metrics.all()) {
      if (std::find(want.begin(), want.end(), name) == want.end()) {
        report.ops.fail("metric " + name + " is not in the catalog");
      }
    }
  }

  if (!spans_out.empty() && !report.spans.empty()) {
    std::ofstream out(spans_out);
    out << report.spans;
    if (!out) {
      report.ops.fail("cannot write spans to " + spans_out);
    } else {
      report.note("spans_out", jsonString(spans_out));
    }
  }
  std::string changed_json = "[";
  for (size_t i = 0; i < changed.size(); ++i) {
    changed_json += (i == 0 ? "" : ", ") + jsonString(changed[i]);
  }
  changed_json += "]";
  std::string reasons = "[";
  for (size_t i = 0; i < report.ops.reasons().size(); ++i) {
    reasons += (i == 0 ? "" : ", ") + jsonString(report.ops.reasons()[i]);
  }
  reasons += "]";
  std::string detail = "{\"workload\": " + jsonString(workload_name) +
                       ", \"seed\": " + std::to_string(seed) +
                       ", \"seconds\": " + std::to_string(seconds) +
                       ", \"trace\": " + std::to_string(trace) +
                       ", \"policy\": " + policy.toJson() +
                       ", \"policy_env_changed\": " + changed_json +
                       ", \"refused\": " + std::to_string(report.ops.refused()) +
                       ", \"failures\": " + reasons;
  for (const auto& [key, json] : report.detail) {
    detail += ", " + jsonString(key) + ": " + json;
  }
  detail += "}";
  std::cout << "detail " << detail << "\n";

  const bool correct = report.ops.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.ops.attempted()
            << ", \"failed\": " << report.ops.failed()
            << ", \"metrics\": " << report.metrics.toJson() << "}" << std::endl;
  return correct ? 0 : 1;
}
