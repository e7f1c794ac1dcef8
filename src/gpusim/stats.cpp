#include "gpusim/stats.h"

#include <cstdio>

#include "support/json.h"

namespace simtomp::gpusim {

std::string_view counterName(Counter c) {
  switch (c) {
    case Counter::kAluWork: return "alu_work";
    case Counter::kGlobalLoad: return "global_load";
    case Counter::kGlobalStore: return "global_store";
    case Counter::kSharedLoad: return "shared_load";
    case Counter::kSharedStore: return "shared_store";
    case Counter::kLocalAccess: return "local_access";
    case Counter::kAtomicRmw: return "atomic_rmw";
    case Counter::kWarpSync: return "warp_sync";
    case Counter::kBlockSync: return "block_sync";
    case Counter::kStatePoll: return "state_poll";
    case Counter::kPayloadArgCopy: return "payload_arg_copy";
    case Counter::kDispatchCascade: return "dispatch_cascade";
    case Counter::kDispatchIndirect: return "dispatch_indirect";
    case Counter::kShuffle: return "shuffle";
    case Counter::kGlobalAlloc: return "global_alloc";
    case Counter::kSharingSpaceOverflow: return "sharing_space_overflow";
    case Counter::kParallelRegion: return "parallel_region";
    case Counter::kSimdLoop: return "simd_loop";
    case Counter::kWorkshareLoop: return "workshare_loop";
    case Counter::kSimdLaneRounds: return "simd_lane_rounds";
    case Counter::kSimdIdleLaneRounds: return "simd_idle_lane_rounds";
    case Counter::kCount: break;
  }
  return "unknown";
}

std::string_view counterDescription(Counter c) {
  switch (c) {
    case Counter::kAluWork: return "ALU operations charged via work()/fma()";
    case Counter::kGlobalLoad: return "Global-memory loads";
    case Counter::kGlobalStore: return "Global-memory stores";
    case Counter::kSharedLoad: return "Shared-memory loads";
    case Counter::kSharedStore: return "Shared-memory stores";
    case Counter::kLocalAccess: return "Thread-local (register/stack) accesses";
    case Counter::kAtomicRmw: return "Atomic read-modify-write operations";
    case Counter::kWarpSync: return "Warp-level barrier arrivals";
    case Counter::kBlockSync: return "Block-wide barrier arrivals";
    case Counter::kStatePoll:
      return "State-machine polls by parked worker threads";
    case Counter::kPayloadArgCopy:
      return "Outlined-region payload pointers copied";
    case Counter::kDispatchCascade:
      return "Outlined calls resolved through the if-cascade";
    case Counter::kDispatchIndirect:
      return "Outlined calls paying an indirect branch";
    case Counter::kShuffle: return "Warp shuffle/ballot exchanges";
    case Counter::kGlobalAlloc: return "Device global-memory allocations";
    case Counter::kSharingSpaceOverflow:
      return "Sharing-space overflows to global memory";
    case Counter::kParallelRegion: return "Parallel regions entered";
    case Counter::kSimdLoop: return "simd loops executed";
    case Counter::kWorkshareLoop: return "For-worksharing loops executed";
    case Counter::kSimdLaneRounds:
      return "Lane-rounds occupied by simd loops (lanes x rounds)";
    case Counter::kSimdIdleLaneRounds:
      return "Of those, lane-rounds with no iteration (thread waste)";
    case Counter::kCount: break;
  }
  return "unknown";
}

Counter counterFromName(std::string_view name) {
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    if (counterName(c) == name) return c;
  }
  return Counter::kCount;
}

std::string KernelStats::csvHeader() {
  std::string out =
      "cycles,busy_cycles,max_thread_cycles,blocks,threads_per_block,waves,"
      "peak_shared_bytes,warp_occupancy";
  for (size_t i = 0; i < kNumCounters; ++i) {
    out += ",";
    out += counterName(static_cast<Counter>(i));
  }
  return out;
}

std::string KernelStats::csvRow() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%llu,%llu,%llu,%u,%u,%u,%llu,%.4f",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(busyCycles),
                static_cast<unsigned long long>(maxThreadCycles), numBlocks,
                threadsPerBlock, waves,
                static_cast<unsigned long long>(peakSharedBytes),
                occupancy.warpOccupancy);
  std::string out(buf);
  for (size_t i = 0; i < kNumCounters; ++i) {
    std::snprintf(buf, sizeof(buf), ",%llu",
                  static_cast<unsigned long long>(counters.values[i]));
    out += buf;
  }
  return out;
}

std::string KernelStats::toJson() const {
  std::string out;
  json::Writer w(out);
  w.object(json::Layout::kLines);
  w.key("cycles").uint(cycles);
  w.key("busy_cycles").uint(busyCycles);
  w.key("max_thread_cycles").uint(maxThreadCycles);
  w.key("blocks").uint(numBlocks);
  w.key("threads_per_block").uint(threadsPerBlock);
  w.key("waves").uint(waves);
  w.key("peak_shared_bytes").uint(peakSharedBytes);
  w.key("warp_occupancy").fixed(occupancy.warpOccupancy, 4);
  w.key("counters").object(json::Layout::kLines);
  for (size_t i = 0; i < kNumCounters; ++i) {
    w.key(counterName(static_cast<Counter>(i))).uint(counters.values[i]);
  }
  w.end().end();
  return out;
}

std::string KernelStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cycles=%llu busy=%llu maxThread=%llu blocks=%u tpb=%u "
                "waves=%u",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(busyCycles),
                static_cast<unsigned long long>(maxThreadCycles), numBlocks,
                threadsPerBlock, waves);
  std::string out(buf);
  for (size_t i = 0; i < kNumCounters; ++i) {
    if (counters.values[i] != 0) {
      std::snprintf(buf, sizeof(buf), " %s=%llu",
                    counterName(static_cast<Counter>(i)).data(),
                    static_cast<unsigned long long>(counters.values[i]));
      out += buf;
    }
  }
  return out;
}

}  // namespace simtomp::gpusim
