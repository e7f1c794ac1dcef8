#include "harness/policy.h"

#include <cstdlib>

#include "gpusim/executor.h"
#include "harness/ledger.h"
#include "omprt/convergence.h"
#include "simcheck/report.h"
#include "simfault/fault.h"
#include "simfault/resilience.h"
#include "simprof/profile.h"
#include "simtune/tuner.h"

extern char** environ;

namespace perfbench {

namespace {

struct Pin {
  const char* var;
  const char* value;  ///< nullptr = cleared (the runtime default)
};

/// The knobs every workload pins. Host workers are 1 so a run stays
/// on one core per device thread and timings are not scheduling noise;
/// tuning and ambient fault plans are off; files the runtime could
/// write (metrics dump, tune cache, log file) are cleared.
constexpr Pin kCommonPins[] = {
    {"SIMTOMP_HOST_WORKERS", "1"}, {"SIMTOMP_TUNE", "off"},
    {"SIMTOMP_FAULT", "off"},      {"SIMTOMP_TUNE_CACHE", nullptr},
    {"SIMTOMP_WATCHDOG", nullptr}, {"SIMTOMP_RESILIENCE", nullptr},
    {"SIMTOMP_METRICS", nullptr},  {"SIMTOMP_LOG", nullptr},
    {"SIMTOMP_LOG_FILE", nullptr},
};

/// Check, profile and fast path per workload. The fast path's "auto"
/// is the cleared variable (it then defaults on).
struct WorkloadPins {
  const char* check;
  const char* profile;
  const char* fast;
};

WorkloadPins pinsFor(Workload w) {
  switch (w) {
    case Workload::kPaperSweep: return {"off", "off", nullptr};
    case Workload::kCheckedSweep: return {"report", "on", "off"};
    case Workload::kServeMixed: return {"off", "off", nullptr};
  }
  return {"off", "off", nullptr};
}

std::optional<std::string> getEnv(const char* var) {
  const char* v = std::getenv(var);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

void setEnv(const char* var, const char* value) {
  if (value == nullptr) {
    unsetenv(var);
  } else {
    setenv(var, value, 1);
  }
}

void applyPin(const char* var, const char* value,
              std::vector<std::string>& notes) {
  const std::optional<std::string> old = getEnv(var);
  const bool same = value == nullptr ? !old.has_value()
                                     : (old.has_value() && *old == value);
  if (!same && old.has_value()) {
    notes.push_back(std::string(var) + "=" + *old + " -> " +
                    (value == nullptr ? "(unset)" : value));
  }
  setEnv(var, value);
}

}  // namespace

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kPaperSweep: return "paper-sweep";
    case Workload::kCheckedSweep: return "checked-sweep";
    case Workload::kServeMixed: return "serve-mixed";
  }
  return "?";
}

std::optional<Workload> workloadFromName(const std::string& name) {
  for (const Workload w : {Workload::kPaperSweep, Workload::kCheckedSweep,
                           Workload::kServeMixed}) {
    if (name == workloadName(w)) return w;
  }
  return std::nullopt;
}

std::vector<std::string> pinPolicy(Workload w) {
  std::vector<std::string> notes;
  const WorkloadPins pins = pinsFor(w);
  std::vector<Pin> all(std::begin(kCommonPins), std::end(kCommonPins));
  all.push_back({"SIMTOMP_CHECK", pins.check});
  all.push_back({"SIMTOMP_PROF", pins.profile});
  all.push_back({"SIMTOMP_FAST", pins.fast});

  // Clear SIMTOMP_* variables this table does not know: a knob added
  // later must not leak in from the environment unnoticed.
  std::vector<std::string> unknown;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry(*e);
    if (entry.rfind("SIMTOMP_", 0) != 0) continue;
    const std::string var = entry.substr(0, entry.find('='));
    bool known = false;
    for (const Pin& p : all) known = known || var == p.var;
    if (!known) unknown.push_back(var);
  }
  for (const std::string& var : unknown) applyPin(var.c_str(), nullptr, notes);
  for (const Pin& p : all) applyPin(p.var, p.value, notes);
  return notes;
}

ResolvedPolicy resolvePolicy() {
  ResolvedPolicy r;
  r.hostWorkers = simtomp::gpusim::resolveHostWorkers(0);
  r.check = std::string(simtomp::simcheck::checkModeName(
      simtomp::simcheck::resolveCheckMode(simtomp::simcheck::CheckMode::kAuto)
          .effective));
  r.profile = std::string(simtomp::simprof::profileModeName(
      simtomp::simprof::resolveProfileMode(
          simtomp::simprof::ProfileMode::kAuto)
          .effective));
  r.fastPath =
      simtomp::omprt::resolveFastPath(simtomp::omprt::FastPathMode::kAuto);
  r.tune = std::string(simtomp::simtune::tuneModeName(
      simtomp::simtune::resolveTuneMode(simtomp::simtune::TuneMode::kAuto)
          .effective));
  r.fault = simtomp::simfault::resolveFaultSpec("").spec;
  r.watchdogSteps = simtomp::simfault::resolveWatchdogSteps(0).steps;
  r.resilience = std::string(simtomp::simfault::resilienceModeName(
      simtomp::simfault::resolveResilienceMode(
          simtomp::simfault::ResilienceMode::kAuto)
          .effective));
  return r;
}

std::string ResolvedPolicy::toJson() const {
  return "{\"host_workers\": " + std::to_string(hostWorkers) +
         ", \"check\": " + jsonString(check) +
         ", \"profile\": " + jsonString(profile) +
         ", \"fast_path\": " + (fastPath ? "true" : "false") +
         ", \"tune\": " + jsonString(tune) + ", \"fault\": " + jsonString(fault) +
         ", \"watchdog_steps\": " + std::to_string(watchdogSteps) +
         ", \"resilience\": " + jsonString(resilience) + "}";
}

std::string policyMismatch(Workload w, const ResolvedPolicy& r) {
  const bool checked = w == Workload::kCheckedSweep;
  std::string out;
  const auto expect = [&out](bool ok, const std::string& what) {
    if (!ok) out += (out.empty() ? "" : "; ") + what;
  };
  expect(r.hostWorkers == 1,
         "host_workers=" + std::to_string(r.hostWorkers) + " (want 1)");
  expect(r.check == (checked ? "report" : "off"), "check=" + r.check);
  expect(r.profile == (checked ? "on" : "off"), "profile=" + r.profile);
  expect(r.fastPath == !checked,
         std::string("fast_path=") + (r.fastPath ? "on" : "off"));
  expect(r.tune == "off", "tune=" + r.tune);
  expect(r.fault.empty(), "fault=" + r.fault);
  expect(r.watchdogSteps == simtomp::simfault::kDefaultWatchdogSteps,
         "watchdog_steps=" + std::to_string(r.watchdogSteps));
  expect(r.resilience == "on", "resilience=" + r.resilience);
  return out;
}

ScopedEnv::ScopedEnv(const char* var, const char* value)
    : var_(var), old_(getEnv(var)) {
  setEnv(var, value);
}

ScopedEnv::~ScopedEnv() {
  setEnv(var_.c_str(), old_.has_value() ? old_->c_str() : nullptr);
}

}  // namespace perfbench
