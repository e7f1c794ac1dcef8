// sparse_matvec (paper section 6.3): CSR sparse matrix-vector product.
//
// Two parallelization structures from the paper:
//
//   TwoLevel        — `teams distribute` on rows (generic teams mode,
//                     extra main warp) with a nested `parallel for`
//                     over each row's nonzeros; thread blocks of 32.
//                     This is the baseline whose small inner loop
//                     wastes most of the 32 threads.
//   ThreeLevelAtomic— combined `teams distribute parallel for` on rows
//                     (SPMD teams) with `simd` over the nonzeros
//                     (generic parallel mode). The product is written
//                     with an atomic update because the paper's loop
//                     API had no reductions yet.
//   ThreeLevelReduce— extension: same structure but using the simd
//                     reduction the paper lists as future work.
#pragma once

#include "apps/common.h"
#include "apps/csr.h"
#include "omprt/modes.h"
#include "gpusim/device.h"
#include "support/status.h"

namespace simtomp::apps {

enum class SpmvVariant : uint8_t {
  kTwoLevel,
  kThreeLevelAtomic,
  kThreeLevelReduction,
};

/// The launch shape plus the execution policy every launch of the app
/// runs under (support/policy.h).
struct SpmvOptions : policy::ExecPolicy {
  SpmvVariant variant = SpmvVariant::kThreeLevelAtomic;
  uint32_t numTeams = 64;
  /// Worker threads per team (the paper's baseline uses 32; the
  /// 3-level version "a much larger thread count per OpenMP team").
  uint32_t threadsPerTeam = 256;
  /// SIMD group size; ignored by the 2-level variant.
  uint32_t simdlen = 8;
  /// Parallel-region mode for the 3-level variants (the paper runs the
  /// sparse_matvec parallel region in generic mode).
  omprt::ExecMode parallelMode = omprt::ExecMode::kGeneric;
};

/// Run y = A*x on the device and verify against the host reference.
Result<AppRunResult> runSpmv(gpusim::Device& device, const CsrMatrix& A,
                             const SpmvOptions& options);

}  // namespace simtomp::apps
