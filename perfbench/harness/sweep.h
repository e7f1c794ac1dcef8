// paper-sweep and checked-sweep: the paper's Fig. 9/10 kernel set,
// launched round-robin through the public apps::run* entry points on
// one A100-spec device.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/common.h"
#include "apps/csr.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/muram.h"
#include "apps/su3.h"

namespace perfbench {

/// Every input of the kernel set, generated from the workload seed.
/// Shapes are fixed; the seed changes values and the sparsity pattern.
struct SweepInputs {
  simtomp::apps::IdealWorkload ideal;
  simtomp::apps::CsrMatrix csr;
  simtomp::apps::Su3Workload su3;
  simtomp::apps::Laplace3dWorkload laplace;
  simtomp::apps::MuramWorkload transpose;
  simtomp::apps::MuramWorkload interpol;
};

[[nodiscard]] SweepInputs makeSweepInputs(uint64_t seed);
/// Digest of every input byte (seed-determinism checks).
[[nodiscard]] std::string inputsDigest(const SweepInputs& inputs);

/// One launch of the kernel set.
struct KernelCase {
  std::string name;
  simtomp::apps::SimdMode mode;
  std::function<simtomp::Result<simtomp::apps::AppRunResult>(
      simtomp::gpusim::Device&)>
      run;
};

/// The kernel set in round-robin order. The cases reference `inputs`,
/// which must outlive them.
[[nodiscard]] std::vector<KernelCase> sweepKernels(const SweepInputs& inputs);

/// Metric-name suffix of an execution mode ("no_simd", ...).
[[nodiscard]] const char* modeKey(simtomp::apps::SimdMode mode);

}  // namespace perfbench
