// Multi-device host runtime: the `device(n)` clause machinery.
//
// OpenMP offloading addresses devices by number (omp_get_num_devices,
// `#pragma omp target device(n)`); a DeviceManager owns a set of
// simulated devices — possibly with different architectures, as in a
// mixed NVIDIA/AMD node — each with its own data environment and task
// queue.
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "gpusim/device.h"
#include "hostrt/async.h"
#include "hostrt/data_env.h"
#include "omprt/target.h"
#include "simfault/resilience.h"
#include "simtune/tuner.h"
#include "support/status.h"

namespace simtomp::hostrt {

class DeviceManager {
 public:
  /// One simulated device per ArchSpec.
  explicit DeviceManager(std::vector<gpusim::ArchSpec> specs,
                         gpusim::CostModel cost = {},
                         TransferModel transfer_model = {});

  DeviceManager(const DeviceManager&) = delete;
  DeviceManager& operator=(const DeviceManager&) = delete;

  /// omp_get_num_devices()
  [[nodiscard]] size_t numDevices() const { return devices_.size(); }

  [[nodiscard]] gpusim::Device& device(size_t n) { return *devices_.at(n); }
  [[nodiscard]] DataEnvironment& dataEnv(size_t n) { return *envs_.at(n); }
  [[nodiscard]] TargetTaskQueue& taskQueue(size_t n) { return *queues_.at(n); }

  // The tuner and the resilience policy may be replaced while launches
  // run on other threads, so both sit behind a shared_mutex: launches
  // read them under a shared lock, the setters write under an exclusive
  // one, and the getters return copies taken under the shared lock.
  // Whether tuning and the resilience chain run at all is the launch's
  // execution policy (TargetConfig::tune / ::resilience).

  /// Autotuner consulted by launches that carry a tune key and auto
  /// launch-shape fields when their tune field resolves to cache or
  /// tune. When none was set, a default tuner (cache path from
  /// SIMTOMP_TUNE_CACHE) is created lazily on first use, so
  /// `SIMTOMP_TUNE=1` works with zero code changes.
  void setDefaultTuner(std::shared_ptr<simtune::Tuner> tuner) {
    std::unique_lock lock(defaults_mutex_);
    default_tuner_ = std::move(tuner);
  }
  [[nodiscard]] std::shared_ptr<simtune::Tuner> defaultTuner() const {
    std::shared_lock lock(defaults_mutex_);
    return default_tuner_;
  }

  /// Knobs of the graceful-degradation chain that launchOn runs when a
  /// launch's resilience field resolves to on: retry with capped
  /// (modeled) backoff for transient UNAVAILABLE faults, SIMD -> generic
  /// mode fallback, host-serial reference; the outcome is published as
  /// a ResilienceReport. Deferred launches (launchOnAsync) never run the
  /// chain: a retry would reorder against queued work.
  void setDefaultResilience(simfault::ResiliencePolicy policy) {
    std::unique_lock lock(defaults_mutex_);
    resilience_policy_ = policy;
  }
  [[nodiscard]] simfault::ResiliencePolicy defaultResiliencePolicy() const {
    std::shared_lock lock(defaults_mutex_);
    return resilience_policy_;
  }

  /// Health of device n per the recovery state machine: healthy until a
  /// launch attempt fails (faulted), reset by resetDevice or the chain,
  /// healthy again after the next successful launch. A quarantined
  /// device reports kQuarantined regardless of the underlying machine
  /// state (the quarantine flag overlays it; see setQuarantined).
  [[nodiscard]] simfault::DeviceHealth deviceHealth(size_t n) const {
    if (isQuarantined(n)) return simfault::DeviceHealth::kQuarantined;
    return health_.at(n);
  }

  /// Quarantine (or release) device n — the circuit-breaker hook. A
  /// quarantined device fast-fails every launchOn/launchOnAsync with
  /// UNAVAILABLE instead of running work; schedulers above (simserve)
  /// also drop it from their shard maps. The flag is an atomic overlay
  /// on the health machine, so flipping it is safe while launches run
  /// on other threads and never perturbs the underlying health state.
  void setQuarantined(size_t n, bool quarantined) {
    SIMTOMP_CHECK(n < devices_.size(), "device number out of range");
    quarantined_[n].store(quarantined, std::memory_order_release);
  }
  [[nodiscard]] bool isQuarantined(size_t n) const {
    SIMTOMP_CHECK(n < devices_.size(), "device number out of range");
    return quarantined_[n].load(std::memory_order_acquire);
  }

  /// What the last resilient launch on device n did, published like
  /// Device::lastCheckReport(): also (especially) when the launch
  /// failed, and surviving any device resets the chain performed.
  [[nodiscard]] const simfault::ResilienceReport& lastResilienceReport(
      size_t n) const {
    return last_resilience_.at(n);
  }

  /// Reset device n (health: kReset). Keeps the device's
  /// lastCheckReport and the manager's lastResilienceReport.
  void resetDevice(size_t n) {
    devices_.at(n)->reset();
    health_.at(n) = simfault::DeviceHealth::kReset;
  }

  /// The configuration launchOn(n, config, ...) would actually launch
  /// with: execution policy resolved, tuner cache consulted (never
  /// trials) and the remaining auto fields resolved heuristically.
  /// Exposed so tests can observe policy precedence without launching
  /// anything. When the environment holds an invalid policy value the
  /// policy fields stay as requested (launchOn rejects such a launch).
  [[nodiscard]] omprt::TargetConfig effectiveConfig(size_t n,
                                                    omprt::TargetConfig config);

  /// `#pragma omp target device(n)` — synchronous launch.
  Result<gpusim::KernelStats> launchOn(size_t n,
                                       const omprt::TargetConfig& config,
                                       const omprt::TargetRegionFn& region);

  /// `#pragma omp target device(n) nowait` — deferred launch.
  std::future<Result<gpusim::KernelStats>> launchOnAsync(
      size_t n, omprt::TargetConfig config, omprt::TargetRegionFn region);

  /// Wait for all deferred work on every device (`taskwait`).
  void drainAll();

 private:
  /// Tuner-aware resolution of auto launch-shape fields of a config
  /// whose policy is resolved. Cache-only
  /// unless `device` is non-null and the tune field is kTune, in
  /// which case a cache miss runs a trial search on that device (so
  /// only the synchronous launch path passes a device). Returns a
  /// non-ok status only when a trial search itself failed.
  Status resolveTuning(size_t n, omprt::TargetConfig& config,
                       gpusim::Device* device,
                       const omprt::TargetRegionFn* region);
  /// The graceful-degradation chain behind launchOn. Every step is
  /// deterministic: backoff delays are modeled (recorded, never slept),
  /// shape strings exclude hostWorkers, and attempts are recorded in
  /// order — so reports are byte-identical for any worker count.
  Result<gpusim::KernelStats> launchResilient(
      size_t n, omprt::TargetConfig config,
      const omprt::TargetRegionFn& region);

  std::vector<std::unique_ptr<gpusim::Device>> devices_;
  std::vector<std::unique_ptr<DataEnvironment>> envs_;
  std::vector<std::unique_ptr<TargetTaskQueue>> queues_;
  /// Guards default_tuner_ and resilience_policy_: shared on the
  /// launch paths, exclusive in the setters.
  mutable std::shared_mutex defaults_mutex_;
  std::shared_ptr<simtune::Tuner> default_tuner_;  ///< may be lazily created
  simfault::ResiliencePolicy resilience_policy_{};
  std::vector<simfault::DeviceHealth> health_;
  /// Circuit-breaker quarantine overlay (atomic: flipped by a service
  /// thread while launch threads read it).
  std::unique_ptr<std::atomic<bool>[]> quarantined_;
  std::vector<simfault::ResilienceReport> last_resilience_;
};

}  // namespace simtomp::hostrt
