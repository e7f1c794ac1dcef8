// Execution-policy pinning. Every SIMTOMP_* knob is set to its
// canonical spelling or cleared before a workload runs, and the policy
// the runtime then resolves is printed beside the metrics and checked
// against the workload's expectation, so an ambient SIMTOMP_FAST=0 or
// a mistyped SIMTOMP_CHECK cannot silently change what is measured.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload : uint8_t { kPaperSweep, kCheckedSweep, kServeMixed };

[[nodiscard]] const char* workloadName(Workload w);
[[nodiscard]] std::optional<Workload> workloadFromName(const std::string& name);

/// Set every known knob for `w` and clear every other SIMTOMP_*
/// variable. Returns "VAR=old -> new" notes for each ambient value the
/// pin changed (empty when the environment was already clean).
std::vector<std::string> pinPolicy(Workload w);

/// The policy as the runtime's own resolvers see it right now.
struct ResolvedPolicy {
  uint32_t hostWorkers = 0;
  std::string check;       ///< simcheck mode name
  std::string profile;     ///< simprof mode name
  bool fastPath = false;   ///< convergence fast path on
  std::string tune;        ///< simtune mode name
  std::string fault;       ///< effective fault plan ("" = none)
  uint64_t watchdogSteps = 0;
  std::string resilience;  ///< resilience mode name

  [[nodiscard]] std::string toJson() const;
};

[[nodiscard]] ResolvedPolicy resolvePolicy();

/// Empty when `resolved` is what workload `w` must run with, else a
/// description of every mismatch.
[[nodiscard]] std::string policyMismatch(Workload w,
                                         const ResolvedPolicy& resolved);

/// Temporarily override one knob (nullptr value = unset); restores the
/// previous value on destruction. Only used between launches, never
/// while another thread may read the environment.
class ScopedEnv {
 public:
  ScopedEnv(const char* var, const char* value);
  ~ScopedEnv();
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string var_;
  std::optional<std::string> old_;
};

}  // namespace perfbench
