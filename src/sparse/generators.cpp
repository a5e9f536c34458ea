#include "sparse/generators.hpp"

#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::sparse {

CsrMatrix laplacian_2d(int nx, int ny) {
  CPX_REQUIRE(nx >= 1 && ny >= 1, "laplacian_2d: bad dims");
  const std::int64_t n = static_cast<std::int64_t>(nx) * ny;
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(5 * n));
  const auto id = [&](int i, int j) {
    return static_cast<std::int64_t>(j) * nx + i;
  };
  // Rows in column order (j-1, i-1, diagonal, i+1, j+1), so
  // csr_from_triplets assembles them without a sort.
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const std::int64_t c = id(i, j);
      if (j > 0) {
        t.push_back({c, id(i, j - 1), -1.0});
      }
      if (i > 0) {
        t.push_back({c, id(i - 1, j), -1.0});
      }
      t.push_back({c, c, 4.0});
      if (i + 1 < nx) {
        t.push_back({c, id(i + 1, j), -1.0});
      }
      if (j + 1 < ny) {
        t.push_back({c, id(i, j + 1), -1.0});
      }
    }
  }
  return csr_from_triplets(n, n, t);
}

CsrMatrix laplacian_3d(int nx, int ny, int nz) {
  CPX_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "laplacian_3d: bad dims");
  const std::int64_t n = static_cast<std::int64_t>(nx) * ny * nz;
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(7 * n));
  const auto id = [&](int i, int j, int k) {
    return (static_cast<std::int64_t>(k) * ny + j) * nx + i;
  };
  // Rows in column order (k-1, j-1, i-1, diagonal, i+1, j+1, k+1), so
  // csr_from_triplets assembles them without a sort.
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::int64_t c = id(i, j, k);
        if (k > 0) {
          t.push_back({c, id(i, j, k - 1), -1.0});
        }
        if (j > 0) {
          t.push_back({c, id(i, j - 1, k), -1.0});
        }
        if (i > 0) {
          t.push_back({c, id(i - 1, j, k), -1.0});
        }
        t.push_back({c, c, 6.0});
        if (i + 1 < nx) {
          t.push_back({c, id(i + 1, j, k), -1.0});
        }
        if (j + 1 < ny) {
          t.push_back({c, id(i, j + 1, k), -1.0});
        }
        if (k + 1 < nz) {
          t.push_back({c, id(i, j, k + 1), -1.0});
        }
      }
    }
  }
  return csr_from_triplets(n, n, t);
}

CsrMatrix random_spd(std::int64_t n, int nnz_per_row, std::uint64_t seed) {
  CPX_REQUIRE(n >= 1 && nnz_per_row >= 1, "random_spd: bad inputs");
  Rng rng(seed);
  std::vector<Triplet> t;
  t.reserve(static_cast<std::size_t>(n) *
            static_cast<std::size_t>(2 * nnz_per_row + 1));
  // Off-diagonal magnitudes per row, accumulated across mirrored entries so
  // the diagonal strictly dominates every row (not just the generating one).
  std::vector<double> row_abs(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t i = 0; i < n; ++i) {
    for (int k = 0; k < nnz_per_row; ++k) {
      const auto j = static_cast<std::int64_t>(
          rng.uniform_index(static_cast<std::uint64_t>(n)));
      if (j == i) {
        continue;
      }
      const double v = -rng.uniform(0.1, 1.0);
      t.push_back({i, j, v});
      t.push_back({j, i, v});
      row_abs[static_cast<std::size_t>(i)] += std::abs(v);
      row_abs[static_cast<std::size_t>(j)] += std::abs(v);
    }
  }
  for (std::int64_t i = 0; i < n; ++i) {
    t.push_back({i, i, row_abs[static_cast<std::size_t>(i)] + 1.0});
  }
  return csr_from_triplets(n, n, t);
}

}  // namespace cpx::sparse
