// Execution policy: how a launch runs on the host, as opposed to its
// shape. Eight knobs -- host workers, simcheck, simprof, simtune, the
// fault plan, the watchdog, the resilience chain and the convergence
// fast path -- come from one table, support/policy.def, which generates
// the ExecPolicy struct, its strict parser and its resolver.
//
// Every field resolves the same way:
//
//   explicit launch field  >  environment variable  >  built-in default
//
// A field is unset while it holds its value-initialized state (kAuto,
// 0 or ""). An unset field reads its environment variable afresh on
// every resolution, so a process can change a knob between launches.
// Empty text counts as unset. Any other text that is not one of the
// row's spellings is INVALID_ARGUMENT naming the variable and the
// spellings it accepts. A resolved policy has no unset field, so
// resolving it again changes nothing: every launch layer (hostrt,
// omprt, gpusim) resolves, and only the first one reads the
// environment.
//
// LaunchSpec, TargetConfig, gpusim::LaunchConfig and the app options
// derive from ExecPolicy, so a policy travels down the layers by value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/status.h"

namespace simtomp::policy {

enum class CheckMode : uint8_t {
  kAuto = 0,  ///< unset: SIMTOMP_CHECK, else off
  kOff,       ///< no checking, zero overhead (one null-pointer branch)
  kReport,    ///< collect findings into Device::lastCheckReport()
  kFatal,     ///< additionally fail the launch when findings exist
};

enum class ProfileMode : uint8_t {
  kAuto = 0,  ///< unset: SIMTOMP_PROF, else off
  kOff,
  kOn,  ///< record the construct tree into Device::lastProfile()
};

enum class TuneMode : uint8_t {
  kAuto = 0,  ///< unset: SIMTOMP_TUNE, else off
  kOff,       ///< auto fields resolve heuristically; no cache, no trials
  kCache,     ///< resolve from the tuning cache; miss -> heuristics
  kTune,      ///< resolve from the cache; miss -> run a trial search
};

enum class ResilienceMode : uint8_t {
  kAuto = 0,  ///< unset: SIMTOMP_RESILIENCE, else on
  kOff,       ///< plain launch; failures surface directly
  kOn,        ///< retry / fallback chain per ResiliencePolicy
};

enum class FastPathMode : uint8_t {
  kAuto = 0,  ///< unset: SIMTOMP_FAST, else on
  kOn,
  kOff,
};

struct CheckConfig {
  CheckMode mode = CheckMode::kAuto;
  bool operator==(const CheckConfig&) const = default;
};

struct ProfileConfig {
  ProfileMode mode = ProfileMode::kAuto;
  bool operator==(const ProfileConfig&) const = default;
};

/// A fault plan in the SIMTOMP_FAULT grammar (docs/FAULTS.md); "off"
/// pins injection off.
struct FaultConfig {
  std::string spec;
  bool operator==(const FaultConfig&) const = default;
};

/// Watchdog sentinel: explicitly disabled.
inline constexpr uint64_t kWatchdogOff = UINT64_MAX;
/// Built-in per-block step budget: far above any legitimate kernel in
/// this repo (the largest bench block runs ~2e5 scheduler steps) yet
/// cheap to hit in a livelock.
inline constexpr uint64_t kDefaultWatchdogSteps = uint64_t{1} << 26;

struct ExecPolicy {
#define SIMTOMP_POLICY(field, Type, ...) Type field{};
#include "support/policy.def"
#undef SIMTOMP_POLICY

  /// The policy part of a derived launch description.
  [[nodiscard]] ExecPolicy& policy() { return *this; }
  [[nodiscard]] const ExecPolicy& policy() const { return *this; }
  bool operator==(const ExecPolicy&) const = default;
};

/// One enumerator per table row, in table order.
enum class Field : uint8_t {
#define SIMTOMP_POLICY(field, ...) field,
#include "support/policy.def"
#undef SIMTOMP_POLICY
};

inline constexpr Field kFields[] = {
#define SIMTOMP_POLICY(field, ...) Field::field,
#include "support/policy.def"
#undef SIMTOMP_POLICY
};

/// Static description of one row.
struct FieldInfo {
  std::string_view name;       ///< ExecPolicy member
  std::string_view member;     ///< path of the parsed value, e.g. check.mode
  std::string_view env;        ///< environment variable
  std::string_view clause;     ///< directive clause ("" = none)
  std::string spellings;       ///< accepted text, e.g. "off|0|on|1"
};
[[nodiscard]] const FieldInfo& fieldInfo(Field field);

/// Where a resolved field's value came from.
enum class Source : uint8_t { kExplicit, kEnv, kBuiltin };
[[nodiscard]] std::string_view sourceName(Source source);

/// Resolve every unset field of `requested`.
[[nodiscard]] Result<ExecPolicy> resolve(ExecPolicy requested);

/// Resolve `field` of `policy` in place and say where its value came
/// from. On INVALID_ARGUMENT the field holds its built-in default.
Result<Source> resolveField(Field field, ExecPolicy& policy);

/// Parse `text` with `field`'s spellings into `policy` (the strict
/// parser behind the environment and the directive clauses). `what`
/// names the text's origin in the error, e.g. "SIMTOMP_CHECK".
Status parseField(Field field, std::string_view text, std::string_view what,
                  ExecPolicy& policy);

/// `field`'s value in `policy` as text: its spelling, or the number or
/// plan; "auto" while unset.
[[nodiscard]] std::string valueText(Field field, const ExecPolicy& policy);

/// Names of the mode values (their first spelling; "auto" for kAuto).
[[nodiscard]] std::string_view modeName(CheckMode mode);
[[nodiscard]] std::string_view modeName(ProfileMode mode);
[[nodiscard]] std::string_view modeName(TuneMode mode);
[[nodiscard]] std::string_view modeName(ResilienceMode mode);
[[nodiscard]] std::string_view modeName(FastPathMode mode);

}  // namespace simtomp::policy
