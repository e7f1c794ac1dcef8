#include "apps/named.h"

#include <algorithm>
#include <string>

#include "apps/batched_gemm.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"

namespace simtomp::apps {
namespace {

SimdMode modeFromSpec(const dsl::LaunchSpec& launch) {
  if (launch.simdlen <= 1) return SimdMode::kNoSimd;
  return launch.parallelMode == omprt::ExecMode::kGeneric
             ? SimdMode::kGenericSimd
             : SimdMode::kSpmdSimd;
}

/// Options of any app, with the launch's shape and policy copied in.
template <typename Options>
Options optionsFrom(const dsl::LaunchSpec& launch) {
  Options options;
  options.policy() = launch.policy();
  options.numTeams = launch.numTeams;
  options.threadsPerTeam = launch.threadsPerTeam;
  options.simdlen = launch.simdlen;
  return options;
}

}  // namespace

bool isNamedKernel(std::string_view kernel) {
  return std::find(std::begin(kNamedKernels), std::end(kNamedKernels),
                   kernel) != std::end(kNamedKernels);
}

Result<AppRunResult> runNamedKernel(std::string_view kernel,
                                    gpusim::Device& device,
                                    const dsl::LaunchSpec& launch) {
  if (kernel == "spmv") {
    CsrGenConfig config;
    config.numRows = 4096;
    config.meanRowLength = 8;
    config.maxRowLength = 64;
    const CsrMatrix A = generateCsr(config);
    auto options = optionsFrom<SpmvOptions>(launch);
    options.variant = launch.simdlen > 1 ? SpmvVariant::kThreeLevelAtomic
                                         : SpmvVariant::kTwoLevel;
    options.parallelMode = launch.parallelMode;
    return runSpmv(device, A, options);
  }
  if (kernel == "su3") {
    return runSu3(device, generateSu3(5120, 3),
                  optionsFrom<Su3Options>(launch));
  }
  if (kernel == "ideal") {
    return runIdeal(device, generateIdeal(432, 32, 5),
                    optionsFrom<IdealOptions>(launch));
  }
  if (kernel == "laplace3d") {
    auto options = optionsFrom<Laplace3dOptions>(launch);
    options.mode = modeFromSpec(launch);
    return runLaplace3d(device, generateLaplace3d(34, 34, 258, 9), options);
  }
  if (kernel == "transpose" || kernel == "interpol") {
    const MuramWorkload w = generateMuram(32, 32, 256, 11);
    auto options = optionsFrom<MuramOptions>(launch);
    options.mode = modeFromSpec(launch);
    return kernel == "transpose" ? runMuramTranspose(device, w, options)
                                 : runMuramInterpol(device, w, options);
  }
  if (kernel == "gemm") {
    auto options = optionsFrom<BatchedGemmOptions>(launch);
    options.parallelMode = launch.parallelMode;
    return runBatchedGemm(device, generateBatchedGemm(2048, 4, 7), options);
  }
  return Status::invalidArgument("unknown kernel '" + std::string(kernel) +
                                 "'");
}

}  // namespace simtomp::apps
