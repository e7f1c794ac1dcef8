// Execution tracing: record spans on the modeled SM timeline and emit
// Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Attach a TraceRecorder to a Device before launching; every block
// becomes one complete ("X") event on its SM's track and every kernel
// a span on a dedicated track. With profiling enabled (simprof) the
// trace additionally carries nested construct spans on the SM tracks,
// counter tracks ("C" events: active blocks / active lanes over
// modeled time) and instant events ("i": faults, resilience retries,
// tune decisions). Timestamps are simulator cycles.
//
// The serialized JSON opens with "M" metadata events naming every
// process and track (stable-ordered), so Perfetto shows labeled rows
// instead of bare pids/tids.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/status.h"

namespace simtomp::gpusim {

class TraceRecorder {
 public:
  /// Chrome trace-event phase of a recorded event.
  enum class Phase : uint8_t {
    kComplete = 0,  ///< "X": a span with start + duration
    kInstant,       ///< "i": a point event on the kernel track
    kCounter,       ///< "C": a named counter sample
  };

  struct Event {
    std::string name;
    uint32_t track = 0;  ///< SM id, or kKernelTrack for kernel-level events
    uint64_t startCycle = 0;
    uint64_t durationCycles = 0;
    Phase phase = Phase::kComplete;
    uint64_t value = 0;  ///< counter sample value (kCounter only)
  };

  static constexpr uint32_t kKernelTrack = 0xFFFFFFFFu;

  void recordBlock(uint32_t block_id, uint32_t sm_id, uint64_t start,
                   uint64_t duration);
  void recordKernel(std::string name, uint64_t duration);
  /// Nested construct span on an SM track (deep tracing).
  void recordSpan(uint32_t track, std::string name, uint64_t start,
                  uint64_t duration);
  /// Point event on the kernel track (fault / retry / tune decision).
  void recordInstant(std::string name, uint64_t at);
  /// Counter-track sample (step function between samples).
  void recordCounter(std::string name, uint64_t at, uint64_t value);
  /// Override the default "SM <track>" label for a track's metadata
  /// row (e.g. per-tenant serving tracks). Unnamed tracks keep the
  /// default, so existing SM traces are unaffected.
  void nameTrack(uint32_t track, std::string name);
  void clear() {
    events_.clear();
    trackNames_.clear();
  }

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }
  [[nodiscard]] size_t size() const { return events_.size(); }

  /// Serialize as a Chrome trace-event JSON array: "M" track metadata
  /// first (stable order), then the events in record order.
  void writeChromeJson(std::ostream& out) const;
  Status writeChromeJson(const std::string& path) const;

 private:
  [[nodiscard]] std::string chromeJson() const;

  std::vector<Event> events_;
  std::map<uint32_t, std::string> trackNames_;
};

}  // namespace simtomp::gpusim
