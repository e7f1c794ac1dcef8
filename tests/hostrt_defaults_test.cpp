// Execution-policy precedence through the DeviceManager, parameterized
// over every row of the policy table (support/policy.def):
//
//   explicit launch field  >  environment variable  >  built-in default
//
// The rows share one test body; each parameter supplies its env value,
// how to set the field explicitly, and the value expected at each
// level, observed via DeviceManager::effectiveConfig — no kernel is
// launched.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hostrt/device_manager.h"
#include "simtune/cache.h"
#include "simtune/tuner.h"
#include "support/policy.h"

namespace simtomp::hostrt {
namespace {

using gpusim::ArchSpec;

struct Row {
  policy::Field field;
  /// The row's env-var level.
  const char* envValue;
  /// The row's explicit-field level.
  std::function<void(omprt::TargetConfig&)> setExplicit;
  /// Expected observation at each level.
  std::string expectDefault;
  std::string expectEnv;
  std::string expectExplicit;
  /// Optional: prepare the base config and the environment, and observe
  /// something other than the field's own value.
  std::function<void(omprt::TargetConfig&)> prepBase = [](auto&) {};
  std::function<void()> prepEnv = [] {};
  std::function<std::string(DeviceManager&, const omprt::TargetConfig&)>
      observe = nullptr;
};

/// Names the row in test output (instead of a dump of its bytes).
void PrintTo(const Row& row, std::ostream* os) {
  *os << policy::fieldInfo(row.field).name;
}

// The tune row observes tuning's effect: the env-level cache file
// answers simdlen 16, while tuning off leaves the heuristic 1.
simtune::TuneKey precKey() {
  return simtune::makeTuneKey("prec", ArchSpec::testTiny(),
                              gpusim::CostModel{}, /*tripCount=*/0);
}

std::string envCachePath() {
  return ::testing::TempDir() + "hostrt_defaults_tune_cache.json";
}

std::vector<Row> allRows() {
  const std::string hardware =
      std::to_string(std::max(1u, std::thread::hardware_concurrency()));
  std::vector<Row> rows = {
      {policy::Field::hostWorkers, "3",
       [](omprt::TargetConfig& c) { c.hostWorkers = 5; }, hardware, "3",
       "5"},
      {policy::Field::check, "2",
       [](omprt::TargetConfig& c) {
         c.check.mode = simcheck::CheckMode::kReport;
       },
       "off", "fatal", "report"},
      {policy::Field::profile, "1",
       [](omprt::TargetConfig& c) {
         c.profile.mode = simprof::ProfileMode::kOff;
       },
       "off", "on", "off"},
      {policy::Field::tune, "1",
       [](omprt::TargetConfig& c) { c.tune = simtune::TuneMode::kOff; },
       "simdlen 1", "simdlen 16", "simdlen 1"},
      {policy::Field::fault, "trap:block=1",
       [](omprt::TargetConfig& c) { c.fault.spec = "livelock"; }, "off",
       "trap:block=1", "livelock"},
      {policy::Field::watchdogSteps, "12345",
       [](omprt::TargetConfig& c) { c.watchdogSteps = 777; }, "67108864",
       "12345", "777"},
      {policy::Field::resilience, "0",
       [](omprt::TargetConfig& c) {
         c.resilience = simfault::ResilienceMode::kOn;
       },
       "on", "off", "on"},
      {policy::Field::fastPath, "off",
       [](omprt::TargetConfig& c) { c.fastPath = omprt::FastPathMode::kOn; },
       "on", "off", "on"},
  };
  Row& tune = rows[3];
  tune.prepBase = [](omprt::TargetConfig& c) {
    c.tuneKey = "prec";
    c.simdlen = 0;  // the one auto field the cache entry decides
  };
  tune.prepEnv = [] {
    // Cache-mode tuning answering from a cache file: the zero-code-
    // changes SIMTOMP_TUNE=1 path (lazy default tuner).
    simtune::TuneCache file(envCachePath());
    simtune::TunedShape shape;
    shape.simdlen = 16;
    file.insert(precKey(), shape);
    ASSERT_TRUE(file.save().isOk());
    ::setenv("SIMTOMP_TUNE_CACHE", envCachePath().c_str(), 1);
  };
  tune.observe = [](DeviceManager& mgr, const omprt::TargetConfig& c) {
    return "simdlen " + std::to_string(mgr.effectiveConfig(0, c).simdlen);
  };
  return rows;
}

class DefaultsPrecedenceTest : public ::testing::TestWithParam<Row> {
 protected:
  void SetUp() override {
    std::vector<std::string> vars = {"SIMTOMP_TUNE_CACHE"};
    for (const policy::Field field : policy::kFields) {
      vars.emplace_back(policy::fieldInfo(field).env);
    }
    for (const std::string& var : vars) {
      const char* old = std::getenv(var.c_str());
      saved_.emplace_back(var, old != nullptr ? std::optional<std::string>(old)
                                              : std::nullopt);
      ::unsetenv(var.c_str());
    }
  }
  void TearDown() override {
    for (const auto& [var, old] : saved_) {
      if (old.has_value()) {
        ::setenv(var.c_str(), old->c_str(), 1);
      } else {
        ::unsetenv(var.c_str());
      }
    }
    // Only the tune row writes the file; ctest runs the other rows in
    // parallel processes, which must not remove it under its feet.
    if (GetParam().field == policy::Field::tune) {
      std::remove(envCachePath().c_str());
    }
  }

  static std::string observe(const Row& row, const omprt::TargetConfig& c) {
    DeviceManager mgr({ArchSpec::testTiny()});
    if (row.observe) return row.observe(mgr, c);
    return policy::valueText(row.field, mgr.effectiveConfig(0, c));
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST_P(DefaultsPrecedenceTest, ExplicitBeatsEnvBeatsBuiltin) {
  const Row& row = GetParam();
  omprt::TargetConfig base;
  row.prepBase(base);

  // Stage 1: nothing set — the row's built-in default.
  EXPECT_EQ(observe(row, base), row.expectDefault) << "stage: built-in";
  // Stage 2: only the env var — env wins.
  row.prepEnv();
  ::setenv(std::string(policy::fieldInfo(row.field).env).c_str(),
           row.envValue, 1);
  EXPECT_EQ(observe(row, base), row.expectEnv) << "stage: env";
  // Stage 3: env + explicit field — explicit wins.
  omprt::TargetConfig config = base;
  row.setExplicit(config);
  EXPECT_EQ(observe(row, config), row.expectExplicit) << "stage: explicit";
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, DefaultsPrecedenceTest, ::testing::ValuesIn(allRows()),
    [](const ::testing::TestParamInfo<Row>& param_info) {
      return std::string(policy::fieldInfo(param_info.param.field).name);
    });

// The manager's two remaining setters — the tuner and the resilience
// policy — are documented safe against concurrent launches: both sit
// behind a shared_mutex. This test hammers them from one thread while
// another launches through both read paths (a tuned launch with an auto
// field, under the resilience chain); it is part of the TSan suite
// (hostrt_ matches the stage-2 regex in tools/ci.sh), where a missing
// lock shows up as a reported race rather than a flaky value.
TEST(DefaultsConcurrencyTest, SettersDoNotRaceLaunches) {
  DeviceManager mgr({ArchSpec::testTiny()});
  std::atomic<bool> stop{false};
  std::thread setter([&] {
    uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.setDefaultTuner(std::make_shared<simtune::Tuner>(
          std::make_shared<simtune::TuneCache>()));
      simfault::ResiliencePolicy resilience;
      resilience.maxRetries = i % 3;
      mgr.setDefaultResilience(resilience);
      ++i;
    }
  });
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kSPMD;
  config.numTeams = 1;
  config.threadsPerTeam = 64;
  config.simdlen = 0;  // auto: the tuner read path
  config.tuneKey = "race";
  config.tune = simtune::TuneMode::kCache;
  config.resilience = simfault::ResilienceMode::kOn;  // the policy read path
  config.fault.spec = "off";
  for (int i = 0; i < 50; ++i) {
    const auto stats = mgr.launchOn(0, config, [](omprt::OmpContext&) {});
    EXPECT_TRUE(stats.isOk());
    (void)mgr.effectiveConfig(0, config);
  }
  stop.store(true, std::memory_order_relaxed);
  setter.join();
}

}  // namespace
}  // namespace simtomp::hostrt
