#pragma once
// Canonical test matrices: 2-D/3-D finite-difference Poisson operators and
// a random SPD perturbation. Used by the AMG module's tests and the SpGEMM
// ablation benches without pulling in the mesh module.

#include <cstdint>

#include "sparse/csr.hpp"

namespace cpx::sparse {

/// 7-point 3-D Poisson matrix on an nx x ny x nz grid.
CsrMatrix laplacian_3d(int nx, int ny, int nz);

/// 5-point 2-D Poisson matrix on an nx x ny grid.
CsrMatrix laplacian_2d(int nx, int ny);

/// Random sparse matrix with ~nnz_per_row entries per row (deterministic
/// from seed); diagonally dominated so it is safely invertible.
CsrMatrix random_spd(std::int64_t n, int nnz_per_row, std::uint64_t seed);

}  // namespace cpx::sparse
