// laplace3d (paper section 6.4): 3-D heat-diffusion (Jacobi) kernel
// with three parallelizable loops, used to measure the cost of the
// different SIMD execution modes rather than a SIMD speedup.
//
// Parallelization: the (i,j) plane loops are collapsed onto
// `teams distribute parallel for`; the k line loop is the simd level
// (or a serial loop in the No-SIMD baseline). The SIMD group size is 32
// for all Fig. 10 measurements, with teams regions always SPMD.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "gpusim/device.h"
#include "support/status.h"

namespace simtomp::apps {

struct Laplace3dWorkload {
  uint32_t nx = 34;  ///< grid points incl. boundary
  uint32_t ny = 34;
  uint32_t nz = 34;  ///< fastest (simd) dimension
  std::vector<double> u;  ///< nx*ny*nz, row-major (i*ny + j)*nz + k
};

/// Cubic convenience (n^3).
Laplace3dWorkload generateLaplace3d(uint32_t n, uint64_t seed);
/// General grid; real heat-diffusion grids are often long in the
/// fastest dimension, which is what amortizes per-loop simd overhead.
Laplace3dWorkload generateLaplace3d(uint32_t nx, uint32_t ny, uint32_t nz,
                                    uint64_t seed);

/// One Jacobi sweep on the host (interior points only).
std::vector<double> laplace3dReference(const Laplace3dWorkload& w);

/// The launch shape plus the execution policy every launch of the app
/// runs under (support/policy.h).
struct Laplace3dOptions : policy::ExecPolicy {
  SimdMode mode = SimdMode::kNoSimd;
  uint32_t numTeams = 32;
  uint32_t threadsPerTeam = 128;
  uint32_t simdlen = 32;  ///< used by the two SIMD modes
};

Result<AppRunResult> runLaplace3d(gpusim::Device& device,
                                  const Laplace3dWorkload& w,
                                  const Laplace3dOptions& options);

}  // namespace simtomp::apps
