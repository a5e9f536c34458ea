#pragma once
// Smoothers for the AMG hierarchy (paper §IV-B, "AMG setup" optimisations).
//
// The paper recommends Hybrid Gauss-Seidel — Gauss-Seidel within a task,
// Jacobi across tasks — as the smoother for large problems. We implement
// plain (weighted) Jacobi, lexicographic Gauss-Seidel, the hybrid variant
// (block-local GS with Jacobi coupling across hybrid_blocks blocks, each
// block executed as one task on the shared thread pool — hypre's hybrid
// smoother), and l1-Jacobi (unconditionally convergent for SPD matrices).
// The Jacobi variants and the hybrid blocks run on support::parallel_for;
// all smoothers are bitwise deterministic at any thread count
// (docs/parallelism.md).
//
// Gauss-Seidel rows are swept as two loops split at the diagonal. Left of
// it, an in-block column reads the updated x and a column before the block
// reads the sweep's frozen copy of x; right of it, every column reads the
// frozen copy (plain GS: x itself). An in-block column right of the
// diagonal is not yet written in the sweep, so its frozen value is its x
// value, and the terms are added in column order: the bits are those of a
// loop that picks the copy entry by entry.

#include <span>

#include "sparse/csr.hpp"

namespace cpx::amg {

enum class SmootherKind { kJacobi, kGaussSeidel, kHybridGs, kL1Jacobi };

struct SmootherOptions {
  SmootherKind kind = SmootherKind::kHybridGs;
  double jacobi_omega = 0.7;  ///< damping for (l1-)Jacobi
  int hybrid_blocks = 8;      ///< task count for Hybrid GS (one block = one task)
};

/// One in-place smoothing sweep on A x = b.
/// `scratch` must have size >= A.rows() (the Jacobi variants' output,
/// hybrid GS's frozen copy of x).
void smooth(const sparse::CsrMatrix& a, std::span<double> x,
            std::span<const double> b, const SmootherOptions& options,
            std::span<double> scratch);

/// Residual r = b - A x.
void residual(const sparse::CsrMatrix& a, std::span<const double> x,
              std::span<const double> b, std::span<double> r);

}  // namespace cpx::amg
