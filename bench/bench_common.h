// Shared helpers for the benchmark harnesses.
//
// The metric of interest is *simulated device cycles*, not host wall
// time, so every benchmark runs its kernel once and reports cycles (and
// derived speedups) through google-benchmark counters. Each binary also
// prints a paper-style summary table so the series can be compared to
// the corresponding figure directly (see EXPERIMENTS.md), and — so the
// perf trajectory can be tracked across PRs by machines, not eyeballs —
// every printed series is mirrored into BENCH_<name>.json via
// writeBenchJson(). Benches with a JSON shape of their own write it
// through writeBenchFile(); a failed write fails the binary either way
// (exitCode()). Host wall time appears as an extra column/field when a
// series records it (Row::hostMs), which is how the host-parallel block
// executor's wall-clock wins are measured without disturbing the cycle
// numbers.
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "gpusim/stats.h"
#include "support/json.h"
#include "support/status.h"

namespace simtomp::bench {

/// One printed row: label + cycles + speedup vs the series baseline.
/// hostMs is optional host wall-clock for the run (0 = not measured).
struct Row {
  std::string label;
  uint64_t cycles = 0;
  double speedup = 1.0;
  double hostMs = 0.0;
};

namespace detail {

struct Series {
  std::string title;
  std::string baselineLabel;
  uint64_t baselineCycles = 0;
  std::vector<Row> rows;
};

/// Every series printed by this binary, in print order.
inline std::vector<Series>& seriesLog() {
  static std::vector<Series> log;
  return log;
}

}  // namespace detail

inline void printTable(const char* title, const char* baseline_label,
                       uint64_t baseline_cycles,
                       const std::vector<Row>& rows) {
  bool have_host_ms = false;
  for (const Row& row : rows) have_host_ms |= row.hostMs > 0.0;

  std::printf("\n=== %s ===\n", title);
  std::printf("%-28s %14s %10s%s\n", "configuration", "sim cycles", "speedup",
              have_host_ms ? "    host ms" : "");
  std::printf("%-28s %14llu %10s\n", baseline_label,
              static_cast<unsigned long long>(baseline_cycles), "1.00x");
  for (const Row& row : rows) {
    if (have_host_ms) {
      std::printf("%-28s %14llu %9.2fx %10.2f\n", row.label.c_str(),
                  static_cast<unsigned long long>(row.cycles), row.speedup,
                  row.hostMs);
    } else {
      std::printf("%-28s %14llu %9.2fx\n", row.label.c_str(),
                  static_cast<unsigned long long>(row.cycles), row.speedup);
    }
  }
  std::fflush(stdout);
  detail::seriesLog().push_back(
      {title, baseline_label, baseline_cycles, rows});
}

/// Write a finished JSON document to BENCH_<name>.json in the working
/// directory; any open, write or close failure is the returned error.
inline Status writeBenchFile(const std::string& name,
                             const std::string& text) {
  const std::string path = "BENCH_" + name + ".json";
  const Status written = json::writeFile(path, text);
  if (written.isOk()) std::printf("wrote %s\n", path.c_str());
  return written;
}

/// Write every series printed so far to BENCH_<name>.json (label → sim
/// cycles, host wall time, speedup, modeled-cycles-per-host-second
/// throughput). Call once at the end of each benchmark binary's main().
inline Status writeBenchJson(const char* name) {
  std::string out;
  json::Writer w(out);
  w.object(json::Layout::kLines);
  w.key("bench").string(name);
  w.key("series").array(json::Layout::kLines);
  for (const detail::Series& series : detail::seriesLog()) {
    w.object(json::Layout::kHanging);
    w.key("title").string(series.title);
    w.key("baseline").object().key("label").string(series.baselineLabel);
    w.key("sim_cycles").uint(series.baselineCycles).end();
    w.key("rows").array(json::Layout::kLines);
    for (const Row& row : series.rows) {
      const double host_s = row.hostMs / 1000.0;
      w.object();
      w.key("label").string(row.label);
      w.key("sim_cycles").uint(row.cycles);
      w.key("speedup").fixed(row.speedup, 6);
      w.key("host_ms").fixed(row.hostMs, 3);
      w.key("host_s").fixed(host_s, 6);
      w.key("cycles_per_host_s")
          .fixed(host_s > 0.0 ? static_cast<double>(row.cycles) / host_s : 0.0,
                 1);
      w.end();
    }
    w.end().end();
  }
  w.end().end();
  return writeBenchFile(name, out);
}

/// main()'s exit code after a write: 0, or 1 with the error on stderr.
inline int exitCode(const Status& status) {
  if (status.isOk()) return 0;
  std::fprintf(stderr, "FATAL: %s\n", status.toString().c_str());
  return 1;
}

/// Host wall-clock stopwatch for Row::hostMs.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double elapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Abort the benchmark binary on a failed run — a bench that silently
/// reports garbage is worse than one that fails loudly.
template <typename T>
const T& checkOk(const Result<T>& result, const char* what) {
  if (!result.isOk()) {
    std::fprintf(stderr, "FATAL: %s failed: %s\n", what,
                 result.status().toString().c_str());
    std::abort();
  }
  return result.value();
}

inline void checkVerified(bool verified, const char* what) {
  if (!verified) {
    std::fprintf(stderr, "FATAL: %s failed verification\n", what);
    std::abort();
  }
}

}  // namespace simtomp::bench
