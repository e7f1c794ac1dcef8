#include "harness/workload.h"

#include "harness/layers.h"

namespace perfbench {

RunReport runWorkload(const RunOptions& options) {
  return options.workload == Workload::kServeMixed ? runServe(options)
                                                   : runSweep(options);
}

void reportLatency(RunReport& report, const std::string& prefix,
                   const std::vector<double>& samplesMs) {
  const Tail tail = tailOf(samplesMs);
  report.metrics.set(prefix + "_p50", median(samplesMs), "ms");
  report.metrics.set(prefix + "_tail", tail.value, "ms");
  report.note(prefix + "_tail_rule",
              "{\"percentile\": " + jsonNumber(tail.percentile) +
                  ", \"samples\": " + std::to_string(tail.samples) +
                  ", \"beyond\": " + std::to_string(tail.beyond) + "}");
}

}  // namespace perfbench
