#include "gpusim/trace.h"

#include <set>

#include "support/json.h"

namespace simtomp::gpusim {

namespace {

// Chrome trace process ids: the kernel-level track lives in pid 0, SM
// tracks in pid 1. Counter tracks attach to pid 0 so they render above
// the SM rows.
constexpr uint64_t kKernelPid = 0;
constexpr uint64_t kSmPid = 1;

void writeMetadata(json::Writer& w, uint64_t pid, uint64_t tid,
                   const char* kind, const std::string& name) {
  w.object();
  w.key("name").string(kind).key("ph").string("M");
  w.key("pid").uint(pid).key("tid").uint(tid);
  w.key("args").object().key("name").string(name).end();
  w.end();
}

}  // namespace

void TraceRecorder::recordBlock(uint32_t block_id, uint32_t sm_id,
                                uint64_t start, uint64_t duration) {
  events_.push_back(
      {"block " + std::to_string(block_id), sm_id, start, duration});
}

void TraceRecorder::recordKernel(std::string name, uint64_t duration) {
  events_.push_back({std::move(name), kKernelTrack, 0, duration});
}

void TraceRecorder::recordSpan(uint32_t track, std::string name,
                               uint64_t start, uint64_t duration) {
  events_.push_back({std::move(name), track, start, duration});
}

void TraceRecorder::recordInstant(std::string name, uint64_t at) {
  events_.push_back(
      {std::move(name), kKernelTrack, at, 0, Phase::kInstant, 0});
}

void TraceRecorder::recordCounter(std::string name, uint64_t at,
                                  uint64_t value) {
  events_.push_back(
      {std::move(name), kKernelTrack, at, 0, Phase::kCounter, value});
}

void TraceRecorder::nameTrack(uint32_t track, std::string name) {
  trackNames_[track] = std::move(name);
}

void TraceRecorder::writeChromeJson(std::ostream& out) const {
  out << chromeJson();
}

std::string TraceRecorder::chromeJson() const {
  std::string out;
  json::Writer w(out);
  w.array(json::Layout::kLines);

  // "M" metadata first: name both processes and every track in use.
  // std::set gives a stable (sorted) track order.
  std::set<uint32_t> sm_tracks;
  bool kernel_track_used = false;
  for (const Event& e : events_) {
    if (e.phase != Phase::kComplete) continue;
    if (e.track == kKernelTrack) {
      kernel_track_used = true;
    } else {
      sm_tracks.insert(e.track);
    }
  }
  writeMetadata(w, kKernelPid, 0, "process_name", "kernel");
  writeMetadata(w, kSmPid, 0, "process_name", "SMs");
  if (kernel_track_used) {
    writeMetadata(w, kKernelPid, 0, "thread_name", "kernel");
  }
  for (const uint32_t sm : sm_tracks) {
    const auto named = trackNames_.find(sm);
    writeMetadata(w, kSmPid, sm + 1, "thread_name",
                  named != trackNames_.end() ? named->second
                                             : "SM " + std::to_string(sm));
  }

  for (const Event& e : events_) {
    const uint64_t tid = e.track == kKernelTrack ? 0 : e.track + 1;
    const uint64_t pid = e.track == kKernelTrack ? kKernelPid : kSmPid;
    w.object().key("name").string(e.name);
    switch (e.phase) {
      case Phase::kComplete:
        w.key("ph").string("X").key("pid").uint(pid).key("tid").uint(tid);
        w.key("ts").uint(e.startCycle).key("dur").uint(e.durationCycles);
        break;
      case Phase::kInstant:
        w.key("ph").string("i").key("s").string("p");
        w.key("pid").uint(pid).key("tid").uint(tid);
        w.key("ts").uint(e.startCycle);
        break;
      case Phase::kCounter:
        w.key("ph").string("C").key("pid").uint(pid);
        w.key("ts").uint(e.startCycle);
        w.key("args").object().key("value").uint(e.value).end();
        break;
    }
    w.end();
  }
  w.end();
  return out;
}

Status TraceRecorder::writeChromeJson(const std::string& path) const {
  return json::writeFile(path, chromeJson());
}

}  // namespace simtomp::gpusim
