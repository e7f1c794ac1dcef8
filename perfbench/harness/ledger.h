// Measurement plumbing shared by every perfbench workload: clocks,
// getrusage snapshots, the tail-percentile rule, operation accounting,
// the drift digest, the span tracer and the metric/JSON output.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process so far (every thread, user + sys), in
/// ms (CLOCK_PROCESS_CPUTIME_ID). With paravirtual steal accounting the
/// kernel does not charge a task for time the hypervisor ran someone
/// else on its CPU, so on a shared host this clock follows the
/// program's own work where the wall clock follows the neighbours.
[[nodiscard]] double processCpuMs();

/// Host time since construction, on both clocks.
class HostTimer {
 public:
  [[nodiscard]] double wallMs() const {
    return msBetween(wall0_, Clock::now());
  }
  [[nodiscard]] double cpuMs() const { return processCpuMs() - cpu0_; }

 private:
  Clock::time_point wall0_ = Clock::now();
  double cpu0_ = processCpuMs();
};

/// Process-wide getrusage(RUSAGE_SELF) snapshot. RUSAGE_SELF covers
/// every thread, so device helper threads are charged too.
struct Usage {
  double userMs = 0.0;
  double sysMs = 0.0;
  uint64_t minorFaults = 0;
  uint64_t maxRssKb = 0;

  [[nodiscard]] static Usage now();
  /// Field-wise difference (maxRssKb: growth of the high-water mark).
  [[nodiscard]] Usage since(const Usage& earlier) const;
  void accumulate(const Usage& delta);
};

/// {"user_s", "sys_s", "minflt"} of a getrusage delta.
[[nodiscard]] std::string usageJson(const Usage& delta);

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peakRssMb();

[[nodiscard]] double median(std::vector<double> values);

/// The tail of a latency sample: the highest percentile, in tenths and
/// at most p99, that still has at least ten samples beyond it
/// (nearest-rank): p99 from 1000 samples on, below that the eleventh
/// largest sample. It stops at p99 because further out, on a shared
/// host, the value tracks host hiccups rather than the program; it has
/// no coarser steps because a run's sample count varies with host
/// speed, and a step from p99 to p95 would move the tail by more than
/// the program ever does. Fewer than 20 samples fall back to the
/// median, and `beyond` then says how thin the tail is.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;  ///< samples strictly above the chosen rank
};
inline constexpr size_t kTailMinBeyond = 10;
[[nodiscard]] Tail tailOf(std::vector<double> values);

/// Operations attempted, failed and refused, with the first few
/// failure reasons kept for the report.
class OpLedger {
 public:
  void attempt() { ++attempted_; }
  void refuse() { ++refused_; }
  /// Count one failed operation (an op that ran and produced a wrong
  /// or missing result, or broke a benchmark invariant).
  void fail(std::string why);

  [[nodiscard]] uint64_t attempted() const { return attempted_; }
  [[nodiscard]] uint64_t failed() const { return failed_; }
  [[nodiscard]] uint64_t refused() const { return refused_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  static constexpr size_t kMaxReasons = 8;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t refused_ = 0;
  std::vector<std::string> reasons_;
};

/// FNV-1a 64 over a byte stream; hex() renders 16 hex digits.
class Digest {
 public:
  void add(std::string_view bytes);
  [[nodiscard]] uint64_t value() const { return hash_; }
  [[nodiscard]] std::string hex() const;

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// One span the benchmark recorded around a call into a layer.
struct Span {
  std::string name;
  std::string tag;  ///< e.g. the kernel or its execution mode
  int parent = -1;  ///< index into the span list, -1 for a root
  double startUs = 0.0;
  double endUs = 0.0;
  Usage usage;  ///< getrusage delta across the span

  [[nodiscard]] double durationMs() const {
    return (endUs - startUs) / 1000.0;
  }
};

/// In-memory span recorder. Disabled, open() returns -1 and records
/// nothing, so the untraced runs pay one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int open(std::string name, std::string tag = {});
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of the closed spans with this name (and tag, when
  /// given).
  [[nodiscard]] std::vector<double> durationsMs(
      std::string_view name, std::string_view tag = {}) const;
  /// Summed getrusage delta of the spans with this name.
  [[nodiscard]] Usage usageOf(std::string_view name) const;
  /// Spans as JSON lines (name, tag, parent, start_us, end_us).
  [[nodiscard]] std::string toJsonLines() const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;  ///< open spans, innermost last
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string tag = {})
      : tracer_(tracer), id_(tracer.open(std::move(name), std::move(tag))) {}
  ~ScopedSpan() { tracer_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Named metrics with units, rendered in insertion-independent
/// (sorted) order.
class MetricSet {
 public:
  void set(const std::string& name, double value, std::string unit);
  [[nodiscard]] bool has(const std::string& name) const {
    return values_.count(name) != 0;
  }
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] std::string toJson() const;
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Shortest round-trip decimal form of a double ("null" for NaN/inf).
[[nodiscard]] std::string jsonNumber(double value);
/// JSON string literal with the mandatory escapes.
[[nodiscard]] std::string jsonString(std::string_view text);

}  // namespace perfbench
