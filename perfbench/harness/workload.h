// What one benchmark run is asked to do and what it reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/ledger.h"
#include "harness/policy.h"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kPaperSweep;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics from an untraced run. true: per-layer
  /// metrics from a traced run.
  bool trace = false;
  /// In-process set-ups; setup_s is their median.
  int setupReps = 3;
  /// Self-test only: the first operation of the measured phase gets a
  /// wrong output, so failure accounting can be checked end to end.
  bool plantWrongOutput = false;
};

struct RunReport {
  OpLedger ops;
  MetricSet metrics;
  /// Extra result fields printed on the detail line (key, JSON value).
  std::vector<std::pair<std::string, std::string>> detail;
  /// Traced runs: every recorded span, one JSON object per line.
  std::string spans;

  void note(std::string key, std::string json) {
    detail.emplace_back(std::move(key), std::move(json));
  }
};

[[nodiscard]] RunReport runSweep(const RunOptions& options);
[[nodiscard]] RunReport runServe(const RunOptions& options);
/// runSweep or runServe, by workload. The policy must be pinned first.
[[nodiscard]] RunReport runWorkload(const RunOptions& options);

/// Independent, reproducible sub-seed for one input of a workload
/// (SplitMix64 finalizer over seed and salt).
[[nodiscard]] inline uint64_t subSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL +
               0x94d049bb133111ebULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Report a sample's median and tail as `<prefix>_p50` and
/// `<prefix>_tail`, noting the tail percentile and sample count.
void reportLatency(RunReport& report, const std::string& prefix,
                   const std::vector<double>& samplesMs);

}  // namespace perfbench
