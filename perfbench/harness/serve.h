// serve-mixed: a closed loop over simserve::LaunchService. One client
// thread submits waves of generateMix requests, then calls pump() and
// drain(); the service runs over 4 testTiny devices (2 shards), one
// helper thread each.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simserve/service.h"

namespace perfbench {

/// One request of the generated mix.
struct ServeRequest {
  std::string tenant;
  size_t kernel = 0;  ///< index into simserve::mixKernelNames()
  uint64_t trip = 0;
  uint32_t simdlen = 1;
  std::string fault;  ///< "" or the mix's device_lost_post plan
  std::string fingerprint;
  size_t shape = 0;  ///< index into ServeInputs::shapes
};

/// The seeded serving inputs: tenants (with priorities, tight quotas
/// and deadline budgets), the request stream and its distinct shapes.
struct ServeInputs {
  std::vector<simtomp::simserve::TenantSpec> tenants;
  std::vector<ServeRequest> requests;
  std::vector<size_t> shapes;  ///< first request index of each shape
};

[[nodiscard]] ServeInputs makeServeInputs(uint64_t seed);
[[nodiscard]] std::string inputsDigest(const ServeInputs& inputs);

/// The service-side launch config of a request.
[[nodiscard]] simtomp::omprt::TargetConfig requestConfig(
    const ServeRequest& request);

/// Empty when `out` holds what the request's kernel must write, else
/// the first mismatch.
[[nodiscard]] std::string verifyServeOutput(const ServeRequest& request,
                                            const std::vector<uint64_t>& out);

/// The conservation identities of one tenant's counters at quiescence;
/// empty when they hold.
[[nodiscard]] std::string conservationError(
    const simtomp::simserve::TenantStats& stats);

}  // namespace perfbench
