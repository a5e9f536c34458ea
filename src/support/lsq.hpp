#pragma once
// Dense linear least squares, used by the empirical performance model to
// fit runtime / parallel-efficiency curves (Section V of the paper: "fit a
// curve to the graph").
//
// The curve families we fit (e.g. T(p) = a/p + b + c*log2(p) + d*p) are
// linear in their coefficients, so ordinary least squares over a basis-
// function design matrix is exact. The normal equations are solved with a
// Cholesky factorisation plus a tiny Tikhonov ridge for rank safety.

#include <span>
#include <vector>

namespace cpx {

/// Column-major dense symmetric-positive-definite solve helper.
/// Solves (A^T A + ridge I) x = A^T b where A is m x n (row-major rows).
/// Throws CheckError if the system is not SPD even with the ridge.
std::vector<double> solve_normal_equations(std::span<const double> a,
                                           std::size_t rows, std::size_t cols,
                                           std::span<const double> b,
                                           double ridge = 1e-12);

}  // namespace cpx
