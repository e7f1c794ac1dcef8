// Tests for the counter name table and KernelStats serialization: the
// table must cover every counter exactly once (simtomp_info --counters,
// the profiler and the JSON writer all render from it), and toJson must
// round-trip every counter by name.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "gpusim/stats.h"

namespace simtomp::gpusim {
namespace {

TEST(CounterNameTest, EveryCounterHasUniqueNonEmptyName) {
  std::set<std::string> seen;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string name(counterName(c));
    EXPECT_FALSE(name.empty()) << "counter " << i;
    EXPECT_EQ(name.find(' '), std::string::npos)
        << name << " must be identifier-like (used as a JSON/CSV key)";
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(CounterNameTest, EveryCounterHasDescription) {
  std::set<std::string> seen;
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string help(counterDescription(c));
    EXPECT_FALSE(help.empty()) << counterName(c);
    EXPECT_TRUE(seen.insert(help).second)
        << "duplicate description for " << counterName(c);
  }
}

TEST(CounterNameTest, FromNameInvertsName) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    EXPECT_EQ(counterFromName(counterName(c)), c);
  }
  EXPECT_EQ(counterFromName("no_such_counter"), Counter::kCount);
  EXPECT_EQ(counterFromName(""), Counter::kCount);
}

TEST(KernelStatsJsonTest, RoundTripsEveryCounterByName) {
  KernelStats stats;
  stats.cycles = 12345;
  stats.busyCycles = 999;
  stats.numBlocks = 8;
  // Give every counter a distinct nonzero value so a swapped or dropped
  // key cannot cancel out.
  for (size_t i = 0; i < kNumCounters; ++i) {
    stats.counters.values[i] = 100 + i;
  }
  const std::string json = stats.toJson();
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string key =
        "\"" + std::string(counterName(c)) + "\": " + std::to_string(100 + i);
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing or wrong: " << key;
    // And the name parses back to the same counter, so a consumer can
    // rebuild the CounterSet from the JSON keys alone.
    EXPECT_EQ(counterFromName(counterName(c)), c);
  }
  EXPECT_NE(json.find("\"cycles\": 12345"), std::string::npos);
  EXPECT_NE(json.find("\"busy_cycles\": 999"), std::string::npos);
}

// perfbench hashes toJson() into its stats digest, so the exact bytes
// (key order, spacing, number formats, trailing newline) are a contract.
TEST(KernelStatsJsonTest, GoldenBytes) {
  KernelStats stats;
  stats.cycles = 12345;
  stats.busyCycles = 999;
  stats.maxThreadCycles = 77;
  stats.numBlocks = 8;
  stats.threadsPerBlock = 128;
  stats.waves = 2;
  stats.peakSharedBytes = 4096;
  stats.occupancy.warpOccupancy = 0.56256;
  for (size_t i = 0; i < kNumCounters; ++i) {
    stats.counters.values[i] = 100 + i;
  }
  stats.counters.values[0] = UINT64_MAX;
  EXPECT_EQ(stats.toJson(), R"({
  "cycles": 12345,
  "busy_cycles": 999,
  "max_thread_cycles": 77,
  "blocks": 8,
  "threads_per_block": 128,
  "waves": 2,
  "peak_shared_bytes": 4096,
  "warp_occupancy": 0.5626,
  "counters": {
    "alu_work": 18446744073709551615,
    "global_load": 101,
    "global_store": 102,
    "shared_load": 103,
    "shared_store": 104,
    "local_access": 105,
    "atomic_rmw": 106,
    "warp_sync": 107,
    "block_sync": 108,
    "state_poll": 109,
    "payload_arg_copy": 110,
    "dispatch_cascade": 111,
    "dispatch_indirect": 112,
    "shuffle": 113,
    "global_alloc": 114,
    "sharing_space_overflow": 115,
    "parallel_region": 116,
    "simd_loop": 117,
    "workshare_loop": 118,
    "simd_lane_rounds": 119,
    "simd_idle_lane_rounds": 120
  }
}
)");
}

TEST(KernelStatsJsonTest, DeterministicOutput) {
  KernelStats stats;
  stats.cycles = 7;
  EXPECT_EQ(stats.toJson(), stats.toJson());
}

TEST(KernelStatsCsvTest, HeaderAndRowHaveSameFieldCount) {
  KernelStats stats;
  const std::string header = KernelStats::csvHeader();
  const std::string row = stats.csvRow();
  const auto count = [](const std::string& s) {
    size_t n = 1;
    for (char c : s) n += c == ',' ? 1 : 0;
    return n;
  };
  EXPECT_EQ(count(header), count(row));
}

}  // namespace
}  // namespace simtomp::gpusim
