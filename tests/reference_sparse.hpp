#pragma once
// Test-local sparse fixtures and oracles: the identity and 1-D Poisson
// matrices, the Galerkin triple product R*(A*P) spelled as two from-scratch
// SpGEMMs, and the Frobenius distance that equivalence tests compare
// matrices with. Test-only — the AMG set-up computes its coarse operators
// through SpgemmPlan (amg/hierarchy.cpp).

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"
#include "support/check.hpp"

namespace cpx::testing {

inline sparse::CsrMatrix identity_matrix(std::int64_t n) {
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1);
  std::vector<std::int32_t> cols(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i <= n; ++i) {
    offsets[static_cast<std::size_t>(i)] = i;
  }
  for (std::int64_t i = 0; i < n; ++i) {
    cols[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i);
  }
  return sparse::CsrMatrix(
      n, n, std::move(offsets), std::move(cols),
      support::aligned_vector<double>(static_cast<std::size_t>(n), 1.0));
}

/// Tridiagonal 1-D Poisson matrix (2 on the diagonal, -1 off).
inline sparse::CsrMatrix laplacian_1d(std::int64_t n) {
  std::vector<sparse::Triplet> t;
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, 2.0});
    if (i > 0) {
      t.push_back({i, i - 1, -1.0});
    }
    if (i + 1 < n) {
      t.push_back({i, i + 1, -1.0});
    }
  }
  return sparse::csr_from_triplets(n, n, t);
}

/// Galerkin coarse operator R A P, computed as R*(A*P).
inline sparse::CsrMatrix galerkin_product(const sparse::CsrMatrix& r,
                                          const sparse::CsrMatrix& a,
                                          const sparse::CsrMatrix& p) {
  return sparse::spgemm_spa(r, sparse::spgemm_spa(a, p));
}

/// Frobenius-norm distance between two matrices of one shape; an entry
/// stored in only one of them counts against the other's zero.
inline double frobenius_distance(const sparse::CsrMatrix& a,
                                 const sparse::CsrMatrix& b) {
  CPX_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(),
              "frobenius_distance: shape mismatch");
  double sum = 0.0;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const auto ac = a.row_cols(r);
    const auto av = a.row_values(r);
    const auto bc = b.row_cols(r);
    const auto bv = b.row_values(r);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ac.size() || j < bc.size()) {
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        sum += av[i] * av[i];
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        sum += bv[j] * bv[j];
        ++j;
      } else {
        const double d = av[i] - bv[j];
        sum += d * d;
        ++i;
        ++j;
      }
    }
  }
  return std::sqrt(sum);
}

}  // namespace cpx::testing
