// The built-in workloads by name, as the CLIs launch them: one
// directive-shaped LaunchSpec (front::DirectiveSpec::toLaunchSpec)
// drives each app's launch shape and execution policy.
#pragma once

#include <string_view>

#include "apps/common.h"
#include "dsl/dsl.h"
#include "support/status.h"

namespace simtomp::apps {

/// Kernel names runNamedKernel accepts.
inline constexpr std::string_view kNamedKernels[] = {
    "spmv", "su3", "ideal", "laplace3d", "transpose", "interpol", "gemm"};

[[nodiscard]] bool isNamedKernel(std::string_view kernel);

/// Run `kernel` on `device` under `launch`'s shape and execution policy,
/// verified against the host reference.
Result<AppRunResult> runNamedKernel(std::string_view kernel,
                                    gpusim::Device& device,
                                    const dsl::LaunchSpec& launch);

}  // namespace simtomp::apps
