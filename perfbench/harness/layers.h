// The metric catalog (what every workload reports, with the end-to-end
// metric each per-layer metric should move) and the measurements that
// several workloads share: KernelStats op tallies and the fiber switch
// probe.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "gpusim/stats.h"
#include "harness/ledger.h"

namespace perfbench {

struct EndToEndDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"
  double bound;        ///< tolerated worsening, share of the parent median
  const char* meaning;
};

struct LayerDef {
  std::string name;
  std::string unit;
  std::string better;
  std::string moves;    ///< the end-to-end metric it should move
  std::string movesOn;  ///< the workload where it should move most
  std::string flatOn;   ///< where it is predicted not to move
};

[[nodiscard]] std::span<const EndToEndDef> endToEndDefs();
[[nodiscard]] const std::vector<LayerDef>& layerDefs();
/// Both catalogs as one JSON object (for `perfbench --list-metrics`).
[[nodiscard]] std::string catalogJson();

/// Simulated device operations of one launch: ALU work, global/shared/
/// local loads and stores, atomics and shuffles.
[[nodiscard]] uint64_t simOps(const simtomp::gpusim::KernelStats& stats);

/// Work tallies over a set of launches (a canonical pass).
struct StatsTally {
  uint64_t cycles = 0;
  uint64_t simOps = 0;
  uint64_t blocks = 0;
  uint64_t syncOps = 0;
  uint64_t statePolls = 0;
  uint64_t dispatchCascade = 0;
  uint64_t payloadCopies = 0;
  uint64_t sharingOverflows = 0;
  uint64_t laneRounds = 0;
  uint64_t idleLaneRounds = 0;

  void add(const simtomp::gpusim::KernelStats& stats);
  /// Busy share of the lane-rounds simd loops occupied (1 when no simd
  /// loop ran).
  [[nodiscard]] double simdLaneUtil() const;
  /// The gpusim/omprt count metrics of the per-layer table.
  void report(MetricSet& out) const;
};

/// Yield round trip through fiber::FiberScheduler: two fibers
/// ping-pong `yields` times each; returns the median over `reps` runs
/// of host ns per yield (fiber -> scheduler -> next fiber).
[[nodiscard]] double fiberSwitchNs(Tracer& tracer, uint64_t yields,
                                   int reps);

/// gpusim.device_build_ms and gpusim.device_build_minflt: medians over
/// the set-ups' "gpusim.device_build" spans (one span builds all of a
/// workload's devices).
void reportDeviceBuild(const Tracer& tracer, MetricSet& out);

/// The host-cost ledger: per layer, user and sys ms and minor faults
/// per call plus the maxRSS growth the layer's calls caused, from the
/// getrusage deltas the tracer recorded around each call. Layers a
/// workload does not call report 0.
void reportLedger(const Tracer& tracer, MetricSet& out);

}  // namespace perfbench
