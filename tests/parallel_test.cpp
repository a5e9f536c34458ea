// Tests for the shared thread-pool execution layer (support/parallel) and
// the determinism contract of every threaded kernel: outputs must be
// bitwise identical at CPX_THREADS=1 and CPX_THREADS=4 because the chunk
// decomposition — not the thread count — fixes every summation order
// (docs/parallelism.md). Registered with the `tsan` ctest label so a
// CPX_SANITIZE=thread build race-checks all of these kernels.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "amg/smoothers.hpp"
#include "cpx/interpolation.hpp"
#include "cpx/search.hpp"
#include "reference_sparse.hpp"
#include "simpic/pic.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace cpx {
namespace {

template <typename AllocA, typename AllocB>
bool bitwise_equal(const std::vector<double, AllocA>& a,
                   const std::vector<double, AllocB>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs fn at 1 and at 4 threads and returns both results.
template <typename Fn>
auto at_both_thread_counts(Fn fn) {
  support::set_max_threads(1);
  auto serial = fn();
  support::set_max_threads(4);
  auto threaded = fn();
  support::set_max_threads(1);
  return std::make_pair(std::move(serial), std::move(threaded));
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  support::set_max_threads(4);
  std::vector<std::atomic<int>> hits(1000);
  support::parallel_for(0, 1000, 7, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      ++hits[static_cast<std::size_t>(i)];
    }
  });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
  support::set_max_threads(1);
}

TEST(ParallelFor, EmptyAndSingleElementRanges) {
  support::set_max_threads(4);
  int calls = 0;
  support::parallel_for(5, 5, 16, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  support::parallel_for(5, 6, 16, [&](std::int64_t i0, std::int64_t i1) {
    EXPECT_EQ(i0, 5);
    EXPECT_EQ(i1, 6);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  support::set_max_threads(1);
}

TEST(ParallelFor, PropagatesExceptions) {
  support::set_max_threads(4);
  EXPECT_THROW(
      support::parallel_for(0, 100, 10,
                            [&](std::int64_t i0, std::int64_t) {
                              CPX_CHECK_MSG(i0 != 50, "boom at " << i0);
                            }),
      CheckError);
  support::set_max_threads(1);
}

TEST(ParallelChunks, DecompositionIndependentOfThreadCount) {
  EXPECT_EQ(support::num_chunks(0, 100, 7), 15);
  EXPECT_EQ(support::num_chunks(0, 0, 7), 0);
  EXPECT_EQ(support::num_chunks(3, 3, 1), 0);
  EXPECT_EQ(support::num_chunks(0, 100, 0), 100);  // grain clamped to 1
  const auto [lo, hi] = support::chunk_bounds(0, 100, 7, 14);
  EXPECT_EQ(lo, 98);
  EXPECT_EQ(hi, 100);
  // The lane never exceeds the configured width.
  support::set_max_threads(3);
  support::parallel_chunks(0, 64, 4,
                           [&](std::int64_t, std::int64_t, std::int64_t,
                               int lane) {
                             EXPECT_GE(lane, 0);
                             EXPECT_LT(lane, 3);
                           });
  support::set_max_threads(1);
}

// Back-to-back regions with varying chunk counts: a worker still leaving
// one region's claim loop must never claim a chunk of the next.
TEST(PoolStress, BackToBackRegionsRunEveryChunkOnce) {
  support::set_max_threads(4);
  constexpr int kRegions = 300000;
  constexpr int kMaxChunks = 64;
  std::array<std::atomic<int>, kMaxChunks> hits{};
  int bad_regions = 0;
  for (int region = 0; region < kRegions; ++region) {
    const int chunks = 1 + region % kMaxChunks;
    support::parallel_chunks(
        0, chunks, 1,
        [&](std::int64_t chunk, std::int64_t, std::int64_t, int) {
          hits[static_cast<std::size_t>(chunk)].fetch_add(
              1, std::memory_order_relaxed);
        });
    bool ok = true;
    for (int c = 0; c < kMaxChunks; ++c) {
      ok &= hits[static_cast<std::size_t>(c)].exchange(0) == (c < chunks);
    }
    bad_regions += ok ? 0 : 1;
  }
  EXPECT_EQ(bad_regions, 0);
  support::set_max_threads(1);
}

TEST(ParallelReduce, BitwiseDeterministicAcrossThreadCounts) {
  std::vector<double> v(10001);
  Rng rng(99);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  const auto sum = [&] {
    return support::parallel_reduce(
        0, static_cast<std::int64_t>(v.size()), 128, 0.25,
        [&](std::int64_t i0, std::int64_t i1) {
          double s = 0.0;
          for (std::int64_t i = i0; i < i1; ++i) {
            s += v[static_cast<std::size_t>(i)];
          }
          return s;
        });
  };
  const auto [serial, threaded] = at_both_thread_counts([&] { return sum(); });
  EXPECT_EQ(serial, threaded);  // exact: same chunk combination order
}

TEST(ParallelConfig, ParseThreadCount) {
  EXPECT_EQ(support::parse_thread_count("4"), 4);
  EXPECT_EQ(support::parse_thread_count("1"), 1);
  EXPECT_EQ(support::parse_thread_count("0"), 0);
  EXPECT_EQ(support::parse_thread_count("-2"), 0);
  EXPECT_EQ(support::parse_thread_count("abc"), 0);
  EXPECT_EQ(support::parse_thread_count("4x"), 0);
  EXPECT_EQ(support::parse_thread_count(""), 0);
  EXPECT_EQ(support::parse_thread_count(nullptr), 0);
}

TEST(ParallelConfig, SetMaxThreadsRoundTrips) {
  support::set_max_threads(3);
  EXPECT_EQ(support::max_threads(), 3);
  support::set_max_threads(1);
  EXPECT_EQ(support::max_threads(), 1);
  EXPECT_THROW(support::set_max_threads(0), CheckError);
}

// --- Kernel determinism: 1 thread vs 4 threads, bitwise ---

TEST(KernelDeterminism, Spmv) {
  const sparse::CsrMatrix a = sparse::random_spd(20000, 9, 42);
  std::vector<double> x(static_cast<std::size_t>(a.cols()));
  Rng rng(7);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto run = [&] {
    std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
    sparse::spmv(a, x, y);
    return y;
  };
  const auto [serial, threaded] = at_both_thread_counts(run);
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

TEST(KernelDeterminism, SpmvAdd) {
  const sparse::CsrMatrix a = sparse::random_spd(20000, 9, 43);
  std::vector<double> x(static_cast<std::size_t>(a.cols()));
  std::vector<double> y0(static_cast<std::size_t>(a.rows()));
  Rng rng(8);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (double& v : y0) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto run = [&] {
    std::vector<double> y = y0;
    sparse::spmv_add(a, x, y, 0.5);
    return y;
  };
  const auto [serial, threaded] = at_both_thread_counts(run);
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

TEST(KernelDeterminism, Residual) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(120, 120);
  std::vector<double> x(static_cast<std::size_t>(a.rows()));
  std::vector<double> b(static_cast<std::size_t>(a.rows()));
  Rng rng(9);
  for (double& v : x) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (double& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  const auto run = [&] {
    std::vector<double> r(x.size(), 0.0);
    amg::residual(a, x, b, r);
    return r;
  };
  const auto [serial, threaded] = at_both_thread_counts(run);
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

class SmootherDeterminism
    : public ::testing::TestWithParam<amg::SmootherKind> {};

TEST_P(SmootherDeterminism, ThreeSweepsBitwiseIdentical) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(90, 90);
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<double> b(n);
  Rng rng(11);
  for (double& v : b) {
    v = rng.uniform(-1.0, 1.0);
  }
  amg::SmootherOptions opts;
  opts.kind = GetParam();
  opts.hybrid_blocks = 8;
  const auto run = [&] {
    std::vector<double> x(n, 0.0);
    std::vector<double> scratch(n, 0.0);
    for (int sweep = 0; sweep < 3; ++sweep) {
      amg::smooth(a, x, b, opts, scratch);
    }
    return x;
  };
  const auto [serial, threaded] = at_both_thread_counts(run);
  EXPECT_TRUE(bitwise_equal(serial, threaded));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SmootherDeterminism,
                         ::testing::Values(amg::SmootherKind::kJacobi,
                                           amg::SmootherKind::kL1Jacobi,
                                           amg::SmootherKind::kGaussSeidel,
                                           amg::SmootherKind::kHybridGs));

void expect_same_matrix(const sparse::CsrMatrix& a,
                        const sparse::CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_offsets(), b.row_offsets());
  EXPECT_EQ(a.col_indices(), b.col_indices());
  EXPECT_TRUE(bitwise_equal(a.values(), b.values()));
}

TEST(KernelDeterminism, SpgemmTwopass) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(60, 60);
  const auto [serial, threaded] =
      at_both_thread_counts([&] { return sparse::spgemm_twopass(a, a); });
  expect_same_matrix(serial, threaded);
}

TEST(KernelDeterminism, SpgemmSpa) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(60, 60);
  const auto [serial, threaded] =
      at_both_thread_counts([&] { return sparse::spgemm_spa(a, a); });
  expect_same_matrix(serial, threaded);
  // The two SpGEMM algorithms also still agree with each other.
  support::set_max_threads(4);
  const sparse::CsrMatrix two = sparse::spgemm_twopass(a, a);
  EXPECT_LT(testing::frobenius_distance(serial, two), 1e-12);
  support::set_max_threads(1);
}

/// rows x cols with up to `per_row` random entries per row; every 7th row
/// and the column band [band_lo, band_hi) stay empty.
sparse::CsrMatrix random_rect(std::int64_t rows, std::int64_t cols,
                              int per_row, std::int64_t band_lo,
                              std::int64_t band_hi, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<sparse::Triplet> t;
  for (std::int64_t r = 0; r < rows; ++r) {
    for (int k = 0; r % 7 != 0 && k < per_row; ++k) {
      const auto c = static_cast<std::int64_t>(
          rng.uniform(0.0, static_cast<double>(cols)));
      if (c < band_lo || c >= band_hi) {
        t.push_back({r, c, rng.uniform(-1.0, 1.0)});
      }
    }
  }
  return sparse::csr_from_triplets(rows, cols, t);
}

TEST(KernelDeterminism, SpgemmPlanSymbolic) {
  const sparse::CsrMatrix a = random_rect(2000, 600, 5, 0, 0, 61);
  const sparse::CsrMatrix b = random_rect(600, 900, 4, 300, 600, 62);
  const sparse::CsrMatrix b_no_cols(600, 0, std::vector<std::int64_t>(601, 0),
                                    {}, support::aligned_vector<double>{});
  for (const sparse::CsrMatrix* rhs : {&b, &b_no_cols}) {
    const auto plan_product = [&] {
      return sparse::SpgemmPlan(a, *rhs).numeric(a, *rhs);
    };
    const auto [serial, threaded] = at_both_thread_counts(plan_product);
    expect_same_matrix(serial, threaded);
    expect_same_matrix(serial, sparse::spgemm_spa(a, *rhs));
  }
}

TEST(Padded, SlotsStartOnCacheLines) {
  static_assert(sizeof(support::Padded<std::vector<int>>) %
                    support::kCacheLine ==
                0);
  static_assert(sizeof(support::Padded<std::int64_t>) == support::kCacheLine);
  const std::vector<support::Padded<std::vector<int>>> slots(5);
  for (const auto& slot : slots) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&slot) % support::kCacheLine,
              0u);
  }
}

TEST(KernelDeterminism, GalerkinProduct) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(50, 50);
  const sparse::CsrMatrix p = sparse::random_spd(a.rows(), 4, 77);
  const sparse::CsrMatrix r = sparse::transpose(p);
  const auto [serial, threaded] = at_both_thread_counts(
      [&] { return testing::galerkin_product(r, a, p); });
  expect_same_matrix(serial, threaded);
}

TEST(KernelDeterminism, KdTreeBatchQueries) {
  Rng rng(21);
  std::vector<mesh::Vec3> pts(5000);
  for (auto& p : pts) {
    p = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
         rng.uniform(-1.0, 1.0)};
  }
  std::vector<mesh::Vec3> queries(2000);
  for (auto& q : queries) {
    q = {rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
         rng.uniform(-1.2, 1.2)};
  }
  const coupler::KdTree tree(pts);
  const auto [serial, threaded] =
      at_both_thread_counts([&] { return tree.nearest_batch(queries); });
  EXPECT_EQ(serial, threaded);
  // The batch agrees with the one-at-a-time query path.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(serial[i], tree.nearest(queries[i])) << "query " << i;
  }
}

TEST(KernelDeterminism, IdwStencilsAndTransfer) {
  Rng rng(22);
  std::vector<mesh::Vec3> donors(3000);
  for (auto& p : donors) {
    p = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), 0.0};
  }
  std::vector<mesh::Vec3> targets(1500);
  for (auto& p : targets) {
    p = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0), 0.0};
  }
  std::vector<double> field(donors.size());
  for (double& v : field) {
    v = rng.uniform(-1.0, 1.0);
  }
  for (const int k : {1, 4}) {
    const auto run = [&] {
      const auto stencils = coupler::build_idw_stencils(donors, targets, k);
      std::vector<double> out(targets.size(), 0.0);
      coupler::apply_stencils(stencils, field, out);
      std::vector<std::vector<std::int64_t>> donor_ids;
      std::vector<std::vector<double>> weights;
      for (const auto& s : stencils) {
        donor_ids.push_back(s.donors);
        weights.push_back(s.weights);
      }
      return std::make_tuple(std::move(donor_ids), std::move(weights),
                             std::move(out));
    };
    const auto [serial, threaded] = at_both_thread_counts(run);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(threaded)) << "k=" << k;
    ASSERT_EQ(std::get<1>(serial).size(), std::get<1>(threaded).size());
    for (std::size_t i = 0; i < std::get<1>(serial).size(); ++i) {
      EXPECT_TRUE(bitwise_equal(std::get<1>(serial)[i],
                                std::get<1>(threaded)[i]))
          << "k=" << k << " stencil " << i;
    }
    EXPECT_TRUE(bitwise_equal(std::get<2>(serial), std::get<2>(threaded)))
        << "k=" << k;
  }
}

class PicDeterminism : public ::testing::TestWithParam<simpic::Boundary> {};

TEST_P(PicDeterminism, FiveStepsBitwiseIdentical) {
  // 12800 particles > one 8192-particle grain, so the multi-chunk deposit
  // reduction and the parallel push + compaction are both exercised.
  simpic::PicOptions opt;
  opt.cells = 64;
  opt.boundary = GetParam();
  const auto run = [&] {
    simpic::Pic pic(opt);
    pic.load_uniform(200, 0.1, 0.05);
    pic.run(5);
    return std::make_tuple(pic.positions(), pic.velocities(), pic.rho());
  };
  const auto [serial, threaded] = at_both_thread_counts(run);
  EXPECT_TRUE(bitwise_equal(std::get<0>(serial), std::get<0>(threaded)));
  EXPECT_TRUE(bitwise_equal(std::get<1>(serial), std::get<1>(threaded)));
  EXPECT_TRUE(bitwise_equal(std::get<2>(serial), std::get<2>(threaded)));
  EXPECT_GT(std::get<0>(serial).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Boundaries, PicDeterminism,
                         ::testing::Values(simpic::Boundary::kPeriodic,
                                           simpic::Boundary::kAbsorbing));

}  // namespace
}  // namespace cpx
