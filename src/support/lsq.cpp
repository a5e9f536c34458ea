#include "support/lsq.hpp"

#include <cmath>

#include "support/check.hpp"

namespace cpx {
namespace {

/// In-place Cholesky factorisation of a row-major n x n SPD matrix.
/// Returns false if a non-positive pivot is encountered.
bool cholesky(std::vector<double>& m, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    double pivot = m[k * n + k];
    for (std::size_t j = 0; j < k; ++j) {
      pivot -= m[k * n + j] * m[k * n + j];
    }
    if (pivot <= 0.0) {
      return false;
    }
    const double lkk = std::sqrt(pivot);
    m[k * n + k] = lkk;
    for (std::size_t i = k + 1; i < n; ++i) {
      double v = m[i * n + k];
      for (std::size_t j = 0; j < k; ++j) {
        v -= m[i * n + j] * m[k * n + j];
      }
      m[i * n + k] = v / lkk;
    }
  }
  return true;
}

/// Solves L L^T x = b given the Cholesky factor in the lower triangle.
std::vector<double> cholesky_solve(const std::vector<double>& l, std::size_t n,
                                   std::span<const double> b) {
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t j = 0; j < i; ++j) {
      v -= l[i * n + j] * y[j];
    }
    y[i] = v / l[i * n + i];
  }
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) {
      v -= l[j * n + ii] * x[j];
    }
    x[ii] = v / l[ii * n + ii];
  }
  return x;
}

}  // namespace

std::vector<double> solve_normal_equations(std::span<const double> a,
                                           std::size_t rows, std::size_t cols,
                                           std::span<const double> b,
                                           double ridge) {
  CPX_REQUIRE(a.size() == rows * cols, "solve_normal_equations: bad A size");
  CPX_REQUIRE(b.size() == rows, "solve_normal_equations: bad b size");
  CPX_REQUIRE(rows >= cols, "solve_normal_equations: underdetermined system");

  // Form A^T A (cols x cols) and A^T b.
  std::vector<double> ata(cols * cols, 0.0);
  std::vector<double> atb(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a.data() + r * cols;
    for (std::size_t i = 0; i < cols; ++i) {
      atb[i] += row[i] * b[r];
      for (std::size_t j = 0; j <= i; ++j) {
        ata[i * cols + j] += row[i] * row[j];
      }
    }
  }
  // Mirror to the upper triangle and add the ridge.
  double diag_scale = 0.0;
  for (std::size_t i = 0; i < cols; ++i) {
    diag_scale = std::max(diag_scale, ata[i * cols + i]);
  }
  const double lambda = ridge * std::max(diag_scale, 1.0);
  for (std::size_t i = 0; i < cols; ++i) {
    ata[i * cols + i] += lambda;
    for (std::size_t j = i + 1; j < cols; ++j) {
      ata[i * cols + j] = ata[j * cols + i];
    }
  }

  // Try increasing ridge levels before giving up; fitting noisy PE curves
  // with nearly collinear bases is routine, not exceptional.
  std::vector<double> work = ata;
  double boost = 1.0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    if (cholesky(work, cols)) {
      return cholesky_solve(work, cols, atb);
    }
    boost *= 1e3;
    work = ata;
    for (std::size_t i = 0; i < cols; ++i) {
      work[i * cols + i] += lambda * boost;
    }
  }
  CPX_CHECK_MSG(false, "normal equations not SPD even with ridge boost");
}

}  // namespace cpx
