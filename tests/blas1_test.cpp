// Tests for the deterministic parallel BLAS-1 layer (support/blas1) and
// the other fused/planned solve-path kernels added with it: results must
// be correct against serial references AND bitwise identical across
// CPX_THREADS in {1, 4, 16} — the chunk decomposition, not the thread
// count, fixes every summation order (docs/parallelism.md). Registered
// with the `tsan` ctest label so a CPX_SANITIZE=thread build race-checks
// these kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/blas1.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace cpx {
namespace {

constexpr int kThreadCounts[] = {1, 4, 16};

template <typename AllocA, typename AllocB>
bool bitwise_equal(const std::vector<double, AllocA>& a,
                   const std::vector<double, AllocB>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

/// Runs fn at every thread count in kThreadCounts and checks that the
/// returned vector<double> is bitwise identical each time.
template <typename Fn>
void expect_bitwise_across_thread_counts(Fn fn) {
  support::set_max_threads(kThreadCounts[0]);
  const auto reference = fn();
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    support::set_max_threads(kThreadCounts[i]);
    const auto other = fn();
    EXPECT_TRUE(bitwise_equal(reference, other))
        << "result differs at CPX_THREADS=" << kThreadCounts[i];
  }
  support::set_max_threads(1);
}

TEST(Blas1, DotMatchesSerialReference) {
  // Size straddles several reduction chunks (grain 4096).
  const auto a = random_vector(20000, 1);
  const auto b = random_vector(20000, 2);
  double expected = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    expected += a[i] * b[i];
  }
  EXPECT_NEAR(support::blas1::dot(a, b), expected,
              1e-12 * std::abs(expected) + 1e-14);
}

TEST(Blas1, NormsMatchDot) {
  const auto a = random_vector(10000, 3);
  const double n2 = support::blas1::norm2_squared(a);
  EXPECT_DOUBLE_EQ(n2, support::blas1::dot(a, a));
  EXPECT_DOUBLE_EQ(support::blas1::norm2(a), std::sqrt(n2));
}

TEST(Blas1, Axpy2UpdatesBothVectors) {
  const std::size_t n = 9000;
  const auto p = random_vector(n, 4);
  const auto ap = random_vector(n, 5);
  auto x = random_vector(n, 6);
  auto r = random_vector(n, 7);
  const auto x0 = x;
  const auto r0 = r;
  const double alpha = 0.37;
  support::blas1::axpy2(alpha, p, ap, x, r);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(x[i], x0[i] + alpha * p[i]);
    EXPECT_DOUBLE_EQ(r[i], r0[i] - alpha * ap[i]);
  }
}

TEST(Blas1, Axpy2Norm2MatchesUnfusedSequence) {
  const std::size_t n = 9000;
  const auto p = random_vector(n, 8);
  const auto ap = random_vector(n, 9);
  auto x1 = random_vector(n, 10);
  auto r1 = random_vector(n, 11);
  auto x2 = x1;
  auto r2 = r1;
  const double alpha = -0.21;
  const double fused = support::blas1::axpy2_norm2(alpha, p, ap, x1, r1);
  support::blas1::axpy2(alpha, p, ap, x2, r2);
  EXPECT_TRUE(bitwise_equal(x1, x2));
  EXPECT_TRUE(bitwise_equal(r1, r2));
  // Same chunk grain, same per-chunk order: the fused norm is bitwise the
  // separate norm of the updated residual.
  EXPECT_EQ(fused, support::blas1::norm2_squared(r1));
}

TEST(Blas1, DotDiffMatchesReference) {
  const std::size_t n = 6000;
  const auto z = random_vector(n, 12);
  const auto a = random_vector(n, 13);
  const auto b = random_vector(n, 14);
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    expected += z[i] * (a[i] - b[i]);
  }
  EXPECT_NEAR(support::blas1::dot_diff(z, a, b), expected,
              1e-12 * std::abs(expected) + 1e-14);
}

TEST(Blas1, XpbyMatchesReference) {
  const std::size_t n = 6000;
  const auto x = random_vector(n, 15);
  auto y = random_vector(n, 16);
  const auto y0 = y;
  const double beta = 0.64;
  support::blas1::xpby(x, beta, y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(y[i], x[i] + beta * y0[i]);
  }
}

TEST(Blas1, ReductionsBitwiseAcrossThreadCounts) {
  const auto a = random_vector(50000, 17);
  const auto b = random_vector(50000, 18);
  expect_bitwise_across_thread_counts([&] {
    return std::vector<double>{
        support::blas1::sum(a), support::blas1::dot(a, b),
        support::blas1::norm2_squared(a), support::blas1::dot_diff(a, b, a),
        support::blas1::norm2(b)};
  });
}

TEST(Blas1, FusedUpdatesBitwiseAcrossThreadCounts) {
  const auto p = random_vector(30000, 19);
  const auto ap = random_vector(30000, 20);
  const auto x0 = random_vector(30000, 21);
  const auto r0 = random_vector(30000, 22);
  expect_bitwise_across_thread_counts([&] {
    auto x = x0;
    auto r = r0;
    const double nrm = support::blas1::axpy2_norm2(0.43, p, ap, x, r);
    support::blas1::xpby(p, 0.3, x);
    x.push_back(nrm);  // fold the scalar into the compared vector
    x.insert(x.end(), r.begin(), r.end());
    return x;
  });
}

TEST(FusedResidual, MatchesSpmvThenSubtract) {
  const auto a = sparse::laplacian_2d(60, 60);
  const auto x = random_vector(static_cast<std::size_t>(a.rows()), 23);
  const auto b = random_vector(static_cast<std::size_t>(a.rows()), 24);
  std::vector<double> r1(x.size());
  std::vector<double> r2(x.size());
  sparse::spmv(a, x, r2);
  for (std::size_t i = 0; i < r2.size(); ++i) {
    r2[i] = b[i] - r2[i];
  }
  const double n2 = sparse::spmv_residual_norm2(a, x, b, r1);
  EXPECT_TRUE(bitwise_equal(r1, r2));
  // The fused reduction chunks by matrix row (the spmv grain), not by the
  // BLAS-1 element grain, so its summation order differs from a separate
  // norm pass: deterministic (see BitwiseAcrossThreadCounts below) but not
  // bitwise equal across the two kernels.
  EXPECT_NEAR(n2, support::blas1::norm2_squared(r1), 1e-12 * n2);

  std::vector<double> r3(x.size());
  sparse::spmv_residual(a, x, b, r3);
  EXPECT_TRUE(bitwise_equal(r3, r2));
}

TEST(FusedResidual, BitwiseAcrossThreadCounts) {
  const auto a = sparse::random_spd(5000, 9, 25);
  const auto x = random_vector(5000, 26);
  const auto b = random_vector(5000, 27);
  expect_bitwise_across_thread_counts([&] {
    std::vector<double> r(x.size());
    const double n2 = sparse::spmv_residual_norm2(a, x, b, r);
    r.push_back(n2);
    return r;
  });
}

TEST(SpgemmNumeric, BitwiseAcrossThreadCounts) {
  const auto a = sparse::laplacian_2d(48, 48);
  const auto b = sparse::random_spd(a.cols(), 5, 28);
  const sparse::SpgemmPlan plan(a, b);
  expect_bitwise_across_thread_counts(
      [&] { return plan.numeric(a, b).values(); });
}

TEST(SpgemmNumeric, MatchesSpaBitwise) {
  const auto a = sparse::random_spd(800, 7, 29);
  const auto b = sparse::random_spd(800, 7, 30);
  const auto c_spa = sparse::spgemm_spa(a, b);
  const sparse::SpgemmPlan plan(a, b);
  const auto c_plan = plan.numeric(a, b);
  EXPECT_EQ(c_plan.row_offsets(), c_spa.row_offsets());
  EXPECT_EQ(c_plan.col_indices(), c_spa.col_indices());
  EXPECT_TRUE(bitwise_equal(c_plan.values(), c_spa.values()));
}

}  // namespace
}  // namespace cpx
