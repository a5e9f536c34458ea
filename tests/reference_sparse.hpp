#pragma once
// Test-local sparse fixtures and oracles: the identity and 1-D Poisson
// matrices, the Galerkin triple product R*(A*P) spelled as two from-scratch
// SpGEMMs, the Frobenius distance that equivalence tests compare
// matrices with, and the triplet spellings of the Laplacian generators and
// AMG set-up builders. Test-only — the AMG set-up computes its coarse
// operators through SpgemmPlan (amg/hierarchy.cpp) and fills S in place
// (amg/aggregation.cpp).

#include <algorithm>
#include <bit>
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

/// csr_from_triplets through its copy-and-sort path: the triplets are
/// handed over reversed, so no list of two or more entries reads as
/// row-ordered. Every set-up builder assembled this way before row-ordered
/// input skipped the sort.
inline sparse::CsrMatrix csr_from_sorted_copy(std::int64_t rows,
                                              std::int64_t cols,
                                              std::vector<sparse::Triplet> t) {
  std::reverse(t.begin(), t.end());
  return sparse::csr_from_triplets(rows, cols, t);
}

/// The 5-point (nz == 1) or 7-point Laplacian pushed diagonal first, then
/// i-1, i+1, j-1, j+1, k-1, k+1: the spelling of sparse::laplacian_2d
/// (diagonal 4) and laplacian_3d (diagonal 6) before they pushed each row
/// in column order.
inline sparse::CsrMatrix laplacian_triplets(int nx, int ny, int nz,
                                            double diagonal) {
  const std::int64_t n = static_cast<std::int64_t>(nx) * ny * nz;
  const auto id = [&](int i, int j, int k) {
    return (static_cast<std::int64_t>(k) * ny + j) * nx + i;
  };
  std::vector<sparse::Triplet> t;
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::int64_t c = id(i, j, k);
        t.push_back({c, c, diagonal});
        if (i > 0) {
          t.push_back({c, id(i - 1, j, k), -1.0});
        }
        if (i + 1 < nx) {
          t.push_back({c, id(i + 1, j, k), -1.0});
        }
        if (j > 0) {
          t.push_back({c, id(i, j - 1, k), -1.0});
        }
        if (j + 1 < ny) {
          t.push_back({c, id(i, j + 1, k), -1.0});
        }
        if (k > 0) {
          t.push_back({c, id(i, j, k - 1), -1.0});
        }
        if (k + 1 < nz) {
          t.push_back({c, id(i, j, k + 1), -1.0});
        }
      }
    }
  }
  return sparse::csr_from_triplets(n, n, t);
}

/// amg::smoothing_operator's triplet spelling: S = I − ω D⁻¹ A entry by
/// entry, assembled through the copy-and-sort path.
inline sparse::CsrMatrix smoothing_operator_triplets(const sparse::CsrMatrix& a,
                                                     double omega) {
  const std::int64_t n = a.rows();
  std::vector<sparse::Triplet> st;
  for (std::int64_t r = 0; r < n; ++r) {
    const double d = a.at(r, r);
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const double base = cols[i] == r ? 1.0 : 0.0;
      st.push_back({r, cols[i], base - omega * vals[i] / d});
    }
  }
  return csr_from_sorted_copy(n, n, std::move(st));
}

/// amg::strength_graph's triplet spelling through the copy-and-sort path.
inline sparse::CsrMatrix strength_graph_triplets(const sparse::CsrMatrix& a,
                                                 double theta) {
  const std::int64_t n = a.rows();
  std::vector<sparse::Triplet> kept;
  for (std::int64_t r = 0; r < n; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::int64_t c = cols[i];
      const double bound =
          theta * std::sqrt(std::abs(a.at(r, r)) * std::abs(a.at(c, c)));
      if (c != r && std::abs(vals[i]) >= bound) {
        kept.push_back({r, c, vals[i]});
      }
    }
  }
  return csr_from_sorted_copy(n, n, std::move(kept));
}

/// amg::tentative_prolongator's triplet spelling through the copy-and-sort
/// path: P(i, aggregate_of[i]) = 1.
inline sparse::CsrMatrix tentative_prolongator_triplets(
    const std::vector<std::int32_t>& aggregate_of,
    std::int64_t num_aggregates) {
  std::vector<sparse::Triplet> t;
  for (std::size_t i = 0; i < aggregate_of.size(); ++i) {
    t.push_back({static_cast<std::int64_t>(i), aggregate_of[i], 1.0});
  }
  return csr_from_sorted_copy(static_cast<std::int64_t>(aggregate_of.size()),
                              num_aggregates, std::move(t));
}

/// True iff a and b agree in shape, offsets, columns and value bits.
inline bool same_bits(const sparse::CsrMatrix& a, const sparse::CsrMatrix& b) {
  if (!sparse::same_structure(a, b)) {
    return false;
  }
  for (std::size_t k = 0; k < a.values().size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a.values()[k]) !=
        std::bit_cast<std::uint64_t>(b.values()[k])) {
      return false;
    }
  }
  return true;
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
