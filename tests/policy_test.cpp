// The execution-policy table (support/policy.def), row by row: every
// spelling parses to its value, a typo is INVALID_ARGUMENT naming the
// variable and its spellings, a launch under a bad variable fails
// before any block runs, and an env change between two launches takes
// effect on the second. Precedence through the DeviceManager lives in
// hostrt_defaults_test.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/named.h"
#include "front/directive.h"
#include "gpusim/device.h"
#include "hostrt/device_manager.h"
#include "omprt/target.h"
#include "support/policy.h"

namespace simtomp::policy {
namespace {

using gpusim::ArchSpec;

/// Every spelling of every row and the value it must parse to, plus one
/// sample of each row's free form. Written out here rather than derived
/// from the table, so a changed spelling fails this test.
const std::map<Field, std::vector<std::pair<std::string, std::string>>>
    kSpellings = {
        {Field::hostWorkers, {{"1", "1"}, {"8", "8"}, {"65", "65"}}},
        {Field::check,
         {{"off", "off"}, {"0", "off"}, {"report", "report"},
          {"on", "report"}, {"1", "report"}, {"fatal", "fatal"},
          {"2", "fatal"}}},
        {Field::profile, {{"off", "off"}, {"0", "off"}, {"on", "on"},
                          {"1", "on"}}},
        {Field::tune,
         {{"off", "off"}, {"0", "off"}, {"cache", "cache"}, {"on", "cache"},
          {"1", "cache"}, {"tune", "tune"}, {"trial", "tune"},
          {"2", "tune"}}},
        {Field::fault,
         {{"off", "off"}, {"none", "off"}, {"0", "off"},
          {"trap:block=1", "trap:block=1"}}},
        {Field::watchdogSteps,
         {{"off", "off"}, {"0", "off"}, {"12345", "12345"}}},
        {Field::resilience,
         {{"on", "on"}, {"1", "on"}, {"off", "off"}, {"0", "off"}}},
        {Field::fastPath,
         {{"on", "on"}, {"1", "on"}, {"true", "on"}, {"off", "off"},
          {"0", "off"}, {"false", "off"}}},
};

/// One typo per row.
const std::map<Field, std::string> kTypos = {
    {Field::hostWorkers, "banana"}, {Field::check, "reprot"},
    {Field::profile, "of"},         {Field::tune, "cahce"},
    {Field::fault, "trpa"},         {Field::watchdogSteps, "soon"},
    {Field::resilience, "yes"},     {Field::fastPath, "maybe"},
};

std::string envOf(Field field) { return std::string(fieldInfo(field).env); }

/// Unsets every SIMTOMP_* policy variable for the test, restoring them
/// afterwards.
class PolicyEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const Field field : kFields) {
      const std::string var = envOf(field);
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
  }

 private:
  std::vector<std::pair<std::string, std::optional<std::string>>> saved_;
};

TEST(PolicyTableTest, EverySpellingMapsToItsValue) {
  for (const Field field : kFields) {
    const FieldInfo& info = fieldInfo(field);
    const auto& expected = kSpellings.at(field);
    for (const auto& [text, value] : expected) {
      ExecPolicy p;
      const Status parsed = parseField(field, text, info.env, p);
      ASSERT_TRUE(parsed.isOk()) << info.name << " " << parsed.toString();
      EXPECT_EQ(valueText(field, p), value) << info.name << "=" << text;
    }
    // Every word the table lists is covered above.
    std::set<std::string> listed;
    std::stringstream words(info.spellings);
    for (std::string word; std::getline(words, word, '|');) {
      listed.insert(word);
    }
    for (const auto& [text, value] : expected) listed.erase(text);
    for (const std::string& word : listed) {
      EXPECT_TRUE(word.front() == '<' || word.find("..") != std::string::npos)
          << info.name << ": spelling '" << word << "' is not tested";
    }
  }
}

TEST_F(PolicyEnvTest, TypoIsRejectedWithTheSpellings) {
  for (const Field field : kFields) {
    const FieldInfo& info = fieldInfo(field);
    ::setenv(envOf(field).c_str(), kTypos.at(field).c_str(), 1);
    const Result<ExecPolicy> r = resolve({});
    ASSERT_FALSE(r.isOk()) << info.name;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    const std::string& message = r.status().message();
    EXPECT_NE(message.find(envOf(field)), std::string::npos) << message;
    EXPECT_NE(message.find(info.spellings), std::string::npos) << message;
    ::unsetenv(envOf(field).c_str());
  }
}

TEST_F(PolicyEnvTest, EmptyCountsAsUnset) {
  const Result<ExecPolicy> builtin = resolve({});
  ASSERT_TRUE(builtin.isOk());
  for (const Field field : kFields) ::setenv(envOf(field).c_str(), "", 1);
  const Result<ExecPolicy> empty = resolve({});
  ASSERT_TRUE(empty.isOk()) << empty.status().toString();
  EXPECT_EQ(empty.value(), builtin.value());
}

TEST_F(PolicyEnvTest, ResolvedPolicyIsFinal) {
  ::setenv("SIMTOMP_CHECK", "report", 1);
  ::setenv("SIMTOMP_WATCHDOG", "off", 1);
  ::setenv("SIMTOMP_FAULT", "none", 1);
  const Result<ExecPolicy> once = resolve({});
  ASSERT_TRUE(once.isOk());
  // No field is left unset, so a second resolution -- at the next
  // launch layer, under a changed environment -- changes nothing.
  ::setenv("SIMTOMP_CHECK", "fatal", 1);
  ::setenv("SIMTOMP_WATCHDOG", "7", 1);
  const Result<ExecPolicy> twice = resolve(once.value());
  ASSERT_TRUE(twice.isOk());
  EXPECT_EQ(twice.value(), once.value());
  EXPECT_EQ(valueText(Field::check, twice.value()), "report");
  EXPECT_EQ(valueText(Field::watchdogSteps, twice.value()), "off");
  EXPECT_EQ(valueText(Field::fault, twice.value()), "off");
}

TEST_F(PolicyEnvTest, BadEnvFailsLaunchBeforeAnyBlockRuns) {
  for (const Field field : kFields) {
    ::setenv(envOf(field).c_str(), kTypos.at(field).c_str(), 1);
    bool ran = false;
    gpusim::Device dev(ArchSpec::testTiny());
    const auto direct =
        dev.launch({2, 32}, [&ran](gpusim::ThreadCtx&) { ran = true; });
    EXPECT_EQ(direct.status().code(), StatusCode::kInvalidArgument)
        << fieldInfo(field).name;

    hostrt::DeviceManager mgr({ArchSpec::testTiny()});
    omprt::TargetConfig config;
    const auto managed =
        mgr.launchOn(0, config, [&ran](omprt::OmpContext&) { ran = true; });
    EXPECT_EQ(managed.status().code(), StatusCode::kInvalidArgument)
        << fieldInfo(field).name;
    EXPECT_TRUE(mgr.lastResilienceReport(0).attempts.empty());
    EXPECT_FALSE(ran) << fieldInfo(field).name;
    ::unsetenv(envOf(field).c_str());
  }
}

TEST_F(PolicyEnvTest, EnvChangeBetweenLaunchesTakesEffect) {
  gpusim::Device dev(ArchSpec::testTiny());
  const auto kernel = [](gpusim::ThreadCtx& t) { t.work(1); };
  ::setenv("SIMTOMP_CHECK", "off", 1);
  ::setenv("SIMTOMP_PROF", "0", 1);
  ASSERT_TRUE(dev.launch({1, 32}, kernel).isOk());
  EXPECT_EQ(dev.lastCheckMode(), CheckMode::kOff);
  EXPECT_EQ(dev.lastProfileMode(), ProfileMode::kOff);
  ::setenv("SIMTOMP_CHECK", "report", 1);
  ::setenv("SIMTOMP_PROF", "on", 1);
  ASSERT_TRUE(dev.launch({1, 32}, kernel).isOk());
  EXPECT_EQ(dev.lastCheckMode(), CheckMode::kReport);
  EXPECT_EQ(dev.lastProfileMode(), ProfileMode::kOn);
}

// Directive clauses reach the app's own launches as launch fields, with
// no environment variable set.
TEST_F(PolicyEnvTest, NamedKernelCarriesClausesToTheLaunch) {
  const auto launchSpec = [](const char* clauses) {
    const auto parsed = front::parseDirective(
        std::string("target teams distribute parallel for simd simdlen(4) ") +
        clauses);
    EXPECT_TRUE(parsed.isOk()) << parsed.status().toString();
    return parsed.value().toLaunchSpec(ArchSpec::testTiny());
  };
  gpusim::Device dev(ArchSpec::testTiny());
  const auto profiled =
      apps::runNamedKernel("ideal", dev, launchSpec("profile(on)"));
  ASSERT_TRUE(profiled.isOk()) << profiled.status().toString();
  EXPECT_TRUE(profiled.value().verified);
  EXPECT_EQ(dev.lastProfileMode(), ProfileMode::kOn);
  EXPECT_EQ(dev.lastProfile().rootCycles, profiled.value().stats.cycles);

  const auto faulted = apps::runNamedKernel(
      "ideal", dev, launchSpec("fault(device_lost_pre:count=0)"));
  ASSERT_FALSE(faulted.isOk());
  EXPECT_NE(faulted.status().message().find("[simfault]"), std::string::npos)
      << faulted.status().toString();
}

// README's knob table documents every row: its env var and spellings.
TEST(PolicyDocsTest, ReadmeTableListsEveryRow) {
  std::ifstream in(std::string(SIMTOMP_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "README.md not found";
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  for (const Field field : kFields) {
    const FieldInfo& info = fieldInfo(field);
    const std::string env = "`" + envOf(field) + "`";
    const std::string* row = nullptr;
    for (const std::string& line : lines) {
      if (line.rfind("| ", 0) == 0 && line.find(env) != std::string::npos) {
        row = &line;
        break;
      }
    }
    ASSERT_NE(row, nullptr) << "README has no table row for " << env;
    std::stringstream words(info.spellings);
    for (std::string word; std::getline(words, word, '|');) {
      EXPECT_NE(row->find("`" + word + "`"), std::string::npos)
          << env << " row lacks spelling `" << word << "`: " << *row;
    }
  }
}

}  // namespace
}  // namespace simtomp::policy
