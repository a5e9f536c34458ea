// Tests for the AMG module: smoother convergence, aggregation invariants,
// hierarchy setup across all interpolation/smoother/cycle variants, and
// AMG-preconditioned CG beating plain CG — the numerical backbone of the
// pressure-solver surrogate.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>
#include <vector>

#include "amg/aggregation.hpp"
#include "amg/hierarchy.hpp"
#include "amg/pcg.hpp"
#include "amg/smoothers.hpp"
#include "mesh/mesh.hpp"
#include "reference_sparse.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::amg {
namespace {

double residual_norm(const sparse::CsrMatrix& a, std::span<const double> x,
                     std::span<const double> b) {
  std::vector<double> r(x.size());
  residual(a, x, b, r);
  double s = 0.0;
  for (double v : r) {
    s += v * v;
  }
  return std::sqrt(s);
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

class SmootherConvergence
    : public ::testing::TestWithParam<SmootherKind> {};

TEST_P(SmootherConvergence, ReducesResidualMonotonically) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(12, 12);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 1);
  std::vector<double> x(n, 0.0);
  std::vector<double> scratch(n);
  SmootherOptions opt;
  opt.kind = GetParam();
  double prev = residual_norm(a, x, b);
  for (int sweep = 0; sweep < 20; ++sweep) {
    smooth(a, x, b, opt, scratch);
    const double now = residual_norm(a, x, b);
    EXPECT_LE(now, prev * 1.0001) << "sweep " << sweep;
    prev = now;
  }
  EXPECT_LT(prev, 0.7 * residual_norm(a, std::vector<double>(n, 0.0), b));
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SmootherConvergence,
                         ::testing::Values(SmootherKind::kJacobi,
                                           SmootherKind::kGaussSeidel,
                                           SmootherKind::kHybridGs,
                                           SmootherKind::kL1Jacobi));

TEST(Smoother, GaussSeidelBeatsJacobiPerSweep) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(16, 16);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 2);
  std::vector<double> xj(n, 0.0);
  std::vector<double> xg(n, 0.0);
  std::vector<double> scratch(n);
  SmootherOptions jac{SmootherKind::kJacobi, 0.7, 8};
  SmootherOptions gs{SmootherKind::kGaussSeidel, 0.7, 8};
  for (int s = 0; s < 10; ++s) {
    smooth(a, xj, b, jac, scratch);
    smooth(a, xg, b, gs, scratch);
  }
  EXPECT_LT(residual_norm(a, xg, b), residual_norm(a, xj, b));
}

TEST(Smoother, HybridGsBetweenJacobiAndGs) {
  // With one block Hybrid GS *is* GS; with n blocks it approaches Jacobi.
  const sparse::CsrMatrix a = testing::laplacian_1d(64);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 3);
  std::vector<double> x_gs(n, 0.0);
  std::vector<double> x_hyb1(n, 0.0);
  std::vector<double> scratch(n);
  SmootherOptions gs{SmootherKind::kGaussSeidel, 1.0, 1};
  SmootherOptions hyb1{SmootherKind::kHybridGs, 1.0, 1};
  smooth(a, x_gs, b, gs, scratch);
  smooth(a, x_hyb1, b, hyb1, scratch);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x_gs[i], x_hyb1[i], 1e-14);
  }
}

/// Gauss-Seidel over rows [row_begin, row_end) as one branch per entry:
/// diagonal, in-block column (updated x) or any other column (the frozen
/// copy; x itself for plain GS). The split-triangle library kernel must
/// reproduce it bit for bit.
void reference_gs_block(const sparse::CsrMatrix& a, std::span<double> x,
                        std::span<const double> b, std::int64_t row_begin,
                        std::int64_t row_end, std::span<const double> x_old) {
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    double diag = 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::int64_t c = cols[i];
      if (c == r) {
        diag = vals[i];
      } else if (x_old.empty() || (c >= row_begin && c < row_end)) {
        sum += vals[i] * x[static_cast<std::size_t>(c)];
      } else {
        sum += vals[i] * x_old[static_cast<std::size_t>(c)];
      }
    }
    x[static_cast<std::size_t>(r)] =
        (b[static_cast<std::size_t>(r)] - sum) / diag;
  }
}

/// One reference sweep of kGaussSeidel or kHybridGs (frozen copy, then the
/// same block decomposition as the library).
void reference_smooth(const sparse::CsrMatrix& a, std::span<double> x,
                      std::span<const double> b, const SmootherOptions& opt) {
  const std::int64_t n = a.rows();
  if (opt.kind == SmootherKind::kGaussSeidel) {
    reference_gs_block(a, x, b, 0, n, {});
    return;
  }
  const std::vector<double> frozen(x.begin(), x.end());
  const std::int64_t blocks = std::min<std::int64_t>(opt.hybrid_blocks, n);
  for (std::int64_t blk = 0; blk < blocks; ++blk) {
    reference_gs_block(a, x, b, n * blk / blocks, n * (blk + 1) / blocks,
                       frozen);
  }
}

TEST(Smoother, HybridGsMatchesPerEntryReference) {
  const AmgHierarchy h(sparse::laplacian_3d(24, 24, 24), AmgOptions{});
  ASSERT_GE(h.num_levels(), 3);
  std::vector<sparse::CsrMatrix> mats;
  for (int l = 0; l < 3; ++l) {
    mats.push_back(h.level(l).a);
  }
  mats.push_back(sparse::random_spd(700, 5, 31));
  for (std::size_t m = 0; m < mats.size(); ++m) {
    const sparse::CsrMatrix& a = mats[m];
    const auto n = static_cast<std::size_t>(a.rows());
    const std::vector<double> b = random_vector(n, 40 + m);
    const std::vector<double> x0 = random_vector(n, 50 + m);
    std::vector<SmootherOptions> configs = {
        {SmootherKind::kGaussSeidel, 0.7, 8}};
    for (const int blocks : {1, 3, 8, static_cast<int>(n)}) {
      configs.push_back({SmootherKind::kHybridGs, 0.7, blocks});
    }
    std::vector<double> scratch(n);
    for (const SmootherOptions& opt : configs) {
      std::vector<double> x = x0;
      std::vector<double> x_ref = x0;
      for (int sweep = 0; sweep < 3; ++sweep) {
        smooth(a, x, b, opt, scratch);
        reference_smooth(a, x_ref, b, opt);
      }
      EXPECT_EQ(x, x_ref) << "matrix " << m << " kind "
                          << static_cast<int>(opt.kind) << " blocks "
                          << opt.hybrid_blocks;
    }
  }
}

TEST(Smoother, GaussSeidelRejectsMissingOrZeroDiagonal) {
  // Row 1 lacks its diagonal between two stored columns; row 2 stores
  // only a column left of it; row 1 of the last matrix stores a zero.
  const sparse::CsrMatrix gap(3, 3, {0, 2, 4, 5}, {0, 1, 0, 2, 2},
                              {2.0, -1.0, -1.0, -1.0, 2.0});
  const sparse::CsrMatrix short_row(3, 3, {0, 1, 3, 4}, {0, 1, 2, 1},
                                    {2.0, 2.0, -1.0, -1.0});
  const sparse::CsrMatrix zero(3, 3, {0, 1, 2, 3}, {0, 1, 2},
                               {2.0, 0.0, 2.0});
  const std::vector<double> b(3, 1.0);
  std::vector<double> scratch(3);
  for (const sparse::CsrMatrix* a : {&gap, &short_row, &zero}) {
    for (const SmootherOptions opt :
         {SmootherOptions{SmootherKind::kGaussSeidel, 0.7, 1},
          SmootherOptions{SmootherKind::kHybridGs, 0.7, 1},
          SmootherOptions{SmootherKind::kHybridGs, 0.7, 3}}) {
      std::vector<double> x(3, 0.0);
      EXPECT_THROW(smooth(*a, x, b, opt, scratch), CheckError);
    }
  }
}

TEST(Aggregation, StrengthGraphDropsWeakAndDiagonal) {
  // Anisotropic 2-point stencil: strong in x (-1), weak in y (-0.01).
  std::vector<sparse::Triplet> t;
  const auto id = [](std::int64_t i, std::int64_t j) { return j * 4 + i; };
  for (std::int64_t j = 0; j < 4; ++j) {
    for (std::int64_t i = 0; i < 4; ++i) {
      const std::int64_t c = id(i, j);
      t.push_back({c, c, 2.02});
      if (i > 0) {
        t.push_back({c, id(i - 1, j), -1.0});
      }
      if (i + 1 < 4) {
        t.push_back({c, id(i + 1, j), -1.0});
      }
      if (j > 0) {
        t.push_back({c, id(i, j - 1), -0.01});
      }
      if (j + 1 < 4) {
        t.push_back({c, id(i, j + 1), -0.01});
      }
    }
  }
  const sparse::CsrMatrix a = sparse::csr_from_triplets(16, 16, t);
  const sparse::CsrMatrix s = strength_graph(a, 0.25);
  for (std::int64_t r = 0; r < 16; ++r) {
    EXPECT_DOUBLE_EQ(s.at(r, r), 0.0);  // no diagonal
  }
  // Strong x-connections kept, weak y-connections dropped.
  EXPECT_NE(s.at(id(1, 0), id(0, 0)), 0.0);
  EXPECT_EQ(s.at(id(0, 1), id(0, 0)), 0.0);
}

TEST(Aggregation, EveryNodeAssignedExactlyOnce) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(6, 6, 6);
  const Aggregation agg = aggregate_greedy(strength_graph(a, 0.08));
  EXPECT_GT(agg.num_aggregates, 0);
  EXPECT_LT(agg.num_aggregates, a.rows());
  for (std::int32_t g : agg.aggregate_of) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, agg.num_aggregates);
  }
}

TEST(Aggregation, TentativeProlongatorPartitionsUnity) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(10, 10);
  const Aggregation agg = aggregate_greedy(strength_graph(a, 0.08));
  const sparse::CsrMatrix p = tentative_prolongator(agg, a.rows());
  // Each row has exactly one unit entry.
  for (std::int64_t r = 0; r < p.rows(); ++r) {
    ASSERT_EQ(p.row_cols(r).size(), 1u);
    EXPECT_DOUBLE_EQ(p.row_values(r)[0], 1.0);
  }
}

TEST(Aggregation, ExtendedInterpolationIsDenserThanSmoothed) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(12, 12);
  const Aggregation agg = aggregate_greedy(strength_graph(a, 0.08));
  const auto tentative =
      build_interpolation(a, agg, InterpKind::kTentative);
  const auto smoothed = build_interpolation(a, agg, InterpKind::kSmoothed);
  const auto extended = build_interpolation(a, agg, InterpKind::kExtended);
  EXPECT_GT(smoothed.nnz(), tentative.nnz());
  EXPECT_GT(extended.nnz(), smoothed.nnz());
}

using HierarchyParams = std::tuple<InterpKind, SmootherKind, CycleKind>;

class HierarchyVariants : public ::testing::TestWithParam<HierarchyParams> {};

TEST_P(HierarchyVariants, SolvesPoissonProblem) {
  const auto [interp, smoother, cycle] = GetParam();
  const sparse::CsrMatrix a = sparse::laplacian_2d(20, 20);
  AmgOptions opt;
  opt.interp = interp;
  opt.smoother.kind = smoother;
  opt.cycle = cycle;
  opt.coarse_size = 16;
  AmgHierarchy h(a, opt);
  EXPECT_GE(h.num_levels(), 2);

  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 5);
  std::vector<double> x(n, 0.0);
  // Budget sized for the slowest variant (tentative interpolation with
  // Jacobi smoothing); the better variants converge in a handful of cycles.
  const int cycles = h.solve(x, b, 1e-8, 200);
  EXPECT_LE(cycles, 200) << "did not converge";
  EXPECT_LT(residual_norm(a, x, b), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, HierarchyVariants,
    ::testing::Combine(::testing::Values(InterpKind::kTentative,
                                         InterpKind::kSmoothed,
                                         InterpKind::kExtended),
                       ::testing::Values(SmootherKind::kJacobi,
                                         SmootherKind::kHybridGs,
                                         SmootherKind::kGaussSeidel),
                       ::testing::Values(CycleKind::kV, CycleKind::kW,
                                         CycleKind::kK)));

TEST(Hierarchy, WCycleConvergesAtLeastAsFastAsVCycle) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(40, 40);
  AmgOptions v;
  v.cycle = CycleKind::kV;
  AmgOptions w;
  w.cycle = CycleKind::kW;
  AmgHierarchy hv(a, v);
  AmgHierarchy hw(a, w);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 21);
  std::vector<double> xv(n, 0.0);
  std::vector<double> xw(n, 0.0);
  const int cv = hv.solve(xv, b, 1e-8, 100);
  const int cw = hw.solve(xw, b, 1e-8, 100);
  EXPECT_LE(cw, cv);
}

TEST(Hierarchy, SpgemmChoiceDoesNotChangeResult) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(8, 8, 8);
  AmgOptions two;
  two.spgemm = SpgemmKind::kTwoPass;
  AmgOptions spa;
  spa.spgemm = SpgemmKind::kSpa;
  AmgHierarchy h_two(a, two);
  AmgHierarchy h_spa(a, spa);
  ASSERT_EQ(h_two.num_levels(), h_spa.num_levels());
  for (int l = 0; l < h_two.num_levels(); ++l) {
    EXPECT_NEAR(
        testing::frobenius_distance(h_two.level(l).a, h_spa.level(l).a), 0.0,
        1e-10);
  }
}

TEST(Hierarchy, OperatorComplexityIsModest) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(10, 10, 10);
  AmgOptions opt;
  opt.interp = InterpKind::kSmoothed;
  AmgHierarchy h(a, opt);
  EXPECT_GT(h.operator_complexity(), 1.0);
  EXPECT_LT(h.operator_complexity(), 3.5);
}

TEST(Hierarchy, SmoothedConvergesFasterThanTentative) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(30, 30);
  AmgOptions tent;
  tent.interp = InterpKind::kTentative;
  AmgOptions smoothed;
  smoothed.interp = InterpKind::kSmoothed;
  AmgHierarchy ht(a, tent);
  AmgHierarchy hs(a, smoothed);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 6);
  std::vector<double> xt(n, 0.0);
  std::vector<double> xs(n, 0.0);
  const int ct = ht.solve(xt, b, 1e-8, 100);
  const int cs = hs.solve(xs, b, 1e-8, 100);
  EXPECT_LT(cs, ct);
}

TEST(Aggregation, TruncationPreservesRowSumsAndSparsifies) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(14, 14);
  const Aggregation agg = aggregate_greedy(strength_graph(a, 0.08));
  const sparse::CsrMatrix p =
      build_interpolation(a, agg, InterpKind::kExtended);
  const sparse::CsrMatrix pt = truncate_prolongator(p, 0.15);
  EXPECT_LT(pt.nnz(), p.nnz());
  for (std::int64_t r = 0; r < p.rows(); ++r) {
    double before = 0.0;
    for (double v : p.row_values(r)) {
      before += v;
    }
    double after = 0.0;
    for (double v : pt.row_values(r)) {
      after += v;
    }
    EXPECT_NEAR(before, after, 1e-12) << "row " << r;
  }
  // threshold 0 is the identity.
  EXPECT_NEAR(testing::frobenius_distance(truncate_prolongator(p, 0.0), p),
              0.0, 1e-15);
}

TEST(Hierarchy, TruncationCutsOperatorComplexity) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(12, 12, 12);
  AmgOptions dense_opt;
  dense_opt.interp = InterpKind::kExtended;
  AmgOptions trunc_opt = dense_opt;
  trunc_opt.interp_truncation = 0.4;
  AmgHierarchy h_dense(a, dense_opt);
  AmgHierarchy h_trunc(a, trunc_opt);
  // Aggressive truncation cuts the stored hierarchy substantially (the
  // cost is a few extra cycles, checked below).
  EXPECT_LT(h_trunc.operator_complexity(),
            0.7 * h_dense.operator_complexity());

  // And the truncated hierarchy still solves the problem.
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 31);
  std::vector<double> x(n, 0.0);
  const int cycles = h_trunc.solve(x, b, 1e-8, 100);
  EXPECT_LE(cycles, 100);
}

/// Multiplies each diagonal entry by (1 + amplitude·u), u ∈ [0, 1): same
/// structure, still SPD (the diagonal only grows).
sparse::CsrMatrix perturb_diagonal(const sparse::CsrMatrix& a,
                                   double amplitude, std::uint64_t seed) {
  sparse::CsrMatrix out = a;
  Rng rng(seed);
  auto& vals = out.mutable_values();
  const auto& offsets = out.row_offsets();
  const auto& cols = out.col_indices();
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    for (std::int64_t k = offsets[static_cast<std::size_t>(r)];
         k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      if (cols[static_cast<std::size_t>(k)] == r) {
        vals[static_cast<std::size_t>(k)] *= 1.0 + amplitude * rng.uniform();
      }
    }
  }
  return out;
}

// Pressure-sized Poisson operators with default options. The strength
// threshold halves per level; with a fixed threshold level 1 stalled
// (13,824 -> 1,685 -> 1,498 rows at 24^3, operator complexity 6.9).
class HierarchyShape : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyShape, CoarsensEveryLevelAndStaysCheap) {
  const int n = GetParam();
  const sparse::CsrMatrix a = sparse::laplacian_3d(n, n, n);
  AmgHierarchy h(a, AmgOptions{});
  ASSERT_GE(h.num_levels(), 2);
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    EXPECT_GE(h.level(l).a.rows(), 4 * h.level(l + 1).a.rows())
        << "level " << l << " -> " << l + 1 << ": " << h.level(l).a.rows()
        << " -> " << h.level(l + 1).a.rows() << " rows";
  }
  EXPECT_LE(h.operator_complexity(), 2.0);

  // The pure Dirichlet Laplacian takes 14 (24^3) and 15 (32^3) iterations;
  // the pressure workload's coefficient change (diagonal scaled by up to
  // 1.2) takes 10.
  const auto rows = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(rows, 13);
  std::vector<double> x(rows, 0.0);
  PcgResult res = pcg(a, x, b, 1e-8, 100, make_amg_preconditioner(h));
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 16);

  const sparse::CsrMatrix a2 = perturb_diagonal(a, 0.2, 17);
  h.reset_values(a2);
  std::fill(x.begin(), x.end(), 0.0);
  res = pcg(a2, x, b, 1e-8, 100, make_amg_preconditioner(h));
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 12);
}

INSTANTIATE_TEST_SUITE_P(Laplacian3d, HierarchyShape,
                         ::testing::Values(24, 32));

class ResetValuesVariants : public ::testing::TestWithParam<InterpKind> {};

TEST_P(ResetValuesVariants, IdenticalValuesMatchFreshBuildExactly) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(24, 24);
  AmgOptions opt;
  opt.interp = GetParam();
  AmgHierarchy reused(a, opt);
  reused.reset_values(a);  // no-op numerically: same values
  const AmgHierarchy fresh(a, opt);

  ASSERT_EQ(reused.num_levels(), fresh.num_levels());
  for (int l = 0; l < reused.num_levels(); ++l) {
    // Element-wise == (not memcmp) so a ±0.0 sign difference, which
    // compares equal and is numerically irrelevant, does not fail.
    EXPECT_EQ(reused.level(l).a.values(), fresh.level(l).a.values())
        << "level " << l << " operator";
    EXPECT_EQ(reused.level(l).p.values(), fresh.level(l).p.values())
        << "level " << l << " prolongator";
    EXPECT_EQ(reused.level(l).r.values(), fresh.level(l).r.values())
        << "level " << l << " restriction";
  }

  // And the solves agree exactly, coarse direct solve included.
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 41);
  std::vector<double> x1(n, 0.0);
  std::vector<double> x2(n, 0.0);
  AmgHierarchy fresh_mut(a, opt);
  EXPECT_EQ(reused.solve(x1, b, 1e-10, 50),
            fresh_mut.solve(x2, b, 1e-10, 50));
  EXPECT_EQ(x1, x2);
}

INSTANTIATE_TEST_SUITE_P(AllInterps, ResetValuesVariants,
                         ::testing::Values(InterpKind::kTentative,
                                           InterpKind::kSmoothed,
                                           InterpKind::kExtended));

TEST(Hierarchy, ResetValuesConvergesOnPerturbedMatrix) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(10, 10, 10);
  AmgOptions opt;
  AmgHierarchy h(a, opt);

  const sparse::CsrMatrix a2 = perturb_diagonal(a, 0.3, 42);
  h.reset_values(a2);

  const auto n = static_cast<std::size_t>(a2.rows());
  const std::vector<double> b = random_vector(n, 43);
  std::vector<double> x(n, 0.0);
  const int cycles = h.solve(x, b, 1e-8, 100);
  EXPECT_LE(cycles, 100) << "did not converge after reset_values";
  EXPECT_LT(residual_norm(a2, x, b), 1e-6);

  // Same aggregation, same values: the refreshed Galerkin operators must
  // equal a fresh build only up to the (possibly different) aggregation a
  // fresh strength graph would pick — so check the level-0 operator, which
  // is a straight value copy, exactly.
  EXPECT_EQ(h.level(0).a.values(), a2.values());
}

TEST(Hierarchy, ResetValuesWithTruncationKeepsFrozenProlongator) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(8, 8, 8);
  AmgOptions opt;
  opt.interp = InterpKind::kExtended;
  opt.interp_truncation = 0.2;
  AmgHierarchy h(a, opt);
  std::vector<support::aligned_vector<double>> p_before;
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    p_before.push_back(h.level(l + 1).p.values());
  }

  const sparse::CsrMatrix a2 = perturb_diagonal(a, 0.25, 44);
  h.reset_values(a2);
  // Truncated P sparsity is value-dependent, so re-setup keeps P frozen.
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    EXPECT_EQ(h.level(l + 1).p.values(), p_before[static_cast<std::size_t>(l)])
        << "transition " << l;
  }

  const auto n = static_cast<std::size_t>(a2.rows());
  const std::vector<double> b = random_vector(n, 45);
  std::vector<double> x(n, 0.0);
  const int cycles = h.solve(x, b, 1e-8, 100);
  EXPECT_LE(cycles, 100);
  EXPECT_LT(residual_norm(a2, x, b), 1e-6);
}

TEST(Hierarchy, ResetValuesRejectsDifferentStructure) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(12, 12);
  AmgOptions opt;
  AmgHierarchy h(a, opt);
  const sparse::CsrMatrix wrong = sparse::laplacian_2d(13, 13);
  EXPECT_THROW(h.reset_values(wrong), CheckError);
}

TEST(Pcg, UnpreconditionedSolvesSmallSystem) {
  const sparse::CsrMatrix a = testing::laplacian_1d(50);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b(n, 1.0);
  std::vector<double> x(n, 0.0);
  const PcgResult res = pcg(a, x, b, 1e-10, 200);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(residual_norm(a, x, b), 1e-7);
}

TEST(Pcg, AmgPreconditionerCutsIterations) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(32, 32);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 9);

  std::vector<double> x_plain(n, 0.0);
  const PcgResult plain = pcg(a, x_plain, b, 1e-8, 2000);
  ASSERT_TRUE(plain.converged);

  AmgOptions opt;
  AmgHierarchy h(a, opt);
  std::vector<double> x_amg(n, 0.0);
  const PcgResult amg =
      pcg(a, x_amg, b, 1e-8, 2000, make_amg_preconditioner(h));
  ASSERT_TRUE(amg.converged);
  EXPECT_LT(amg.iterations, plain.iterations / 3)
      << "AMG should dramatically cut CG iterations";
}

TEST(Pcg, JacobiPreconditionerHelpsScaledSystem) {
  // Badly scaled diagonal: a Jacobi preconditioner, z = r / diag(A),
  // normalises it through pcg's preconditioner hook.
  std::vector<sparse::Triplet> t;
  for (std::int64_t i = 0; i < 100; ++i) {
    t.push_back({i, i, i % 2 == 0 ? 1.0 : 1000.0});
    if (i > 0) {
      t.push_back({i, i - 1, -0.1});
      t.push_back({i - 1, i, -0.1});
    }
  }
  const sparse::CsrMatrix a = sparse::csr_from_triplets(100, 100, t);
  std::vector<double> inv_diag(100);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    inv_diag[static_cast<std::size_t>(r)] = 1.0 / a.at(r, r);
  }
  const Preconditioner jacobi = [&inv_diag](std::span<double> z,
                                            std::span<const double> r) {
    for (std::size_t i = 0; i < z.size(); ++i) {
      z[i] = inv_diag[i] * r[i];
    }
  };
  const std::vector<double> b(100, 1.0);
  std::vector<double> x0(100, 0.0);
  std::vector<double> x1(100, 0.0);
  const PcgResult plain = pcg(a, x0, b, 1e-10, 500);
  const PcgResult jac = pcg(a, x1, b, 1e-10, 500, jacobi);
  EXPECT_TRUE(jac.converged);
  EXPECT_LE(jac.iterations, plain.iterations);
}

TEST(Pcg, PressureSolveIsPinnedBitwise) {
  // The pressure-resetup step on the 24^3 Poisson operator: a numeric
  // re-setup per coefficient set (every diagonal scaled by 1 + 0.2u),
  // then AMG-PCG to 1e-8 from a zero guess. Iteration counts and solution
  // bits were recorded before the V-cycle kernels were rewritten, and must
  // not move at any pool width or SIMD width.
  constexpr int kIterations[] = {10, 10, 10};
  constexpr std::uint64_t kDigest[] = {
      0x932e88a1f9a43782ULL, 0xd8c63d354b2ecde0ULL, 0x689f4715d4e79dbeULL};
  const sparse::CsrMatrix base = sparse::laplacian_3d(24, 24, 24);
  const auto n = static_cast<std::size_t>(base.rows());
  AmgHierarchy h(base, AmgOptions{});
  const Preconditioner precond = make_amg_preconditioner(h);
  PcgWorkspace workspace;
  workspace.resize(n);
  Rng rng(23);
  for (int k = 0; k < 3; ++k) {
    sparse::CsrMatrix a = base;
    auto& vals = a.mutable_values();
    for (std::int64_t r = 0; r < a.rows(); ++r) {
      for (std::int64_t e = a.row_offsets()[static_cast<std::size_t>(r)];
           e < a.row_offsets()[static_cast<std::size_t>(r) + 1]; ++e) {
        if (a.col_indices()[static_cast<std::size_t>(e)] == r) {
          vals[static_cast<std::size_t>(e)] *= 1.0 + 0.2 * rng.uniform();
        }
      }
    }
    std::vector<double> b(n);
    for (double& v : b) {
      v = rng.uniform() - 0.5;
    }
    h.reset_values(a);
    std::vector<double> x(n, 0.0);
    const PcgResult res =
        pcg(h.level(0).a, x, b, 1e-8, 200, precond, workspace);
    ASSERT_TRUE(res.converged) << "set " << k;
    std::uint64_t digest = 0;
    for (const double v : x) {
      digest = hash_mix(digest, std::bit_cast<std::uint64_t>(v));
    }
    EXPECT_EQ(res.iterations, kIterations[k]) << "set " << k;
    EXPECT_EQ(digest, kDigest[k]) << "set " << k << std::hex << " 0x" << digest;
  }
}

TEST(Pcg, ZeroRhsReturnsImmediately) {
  const sparse::CsrMatrix a = testing::laplacian_1d(10);
  std::vector<double> x(10, 0.0);
  const std::vector<double> b(10, 0.0);
  const PcgResult res = pcg(a, x, b, 1e-10, 10);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
}

/// Implicit conduction operator of a mesh: the graph Laplacian with face
/// weights area / centroid distance, plus `mass` times each cell's volume
/// on the diagonal (the backward-Euler term of a heat step).
sparse::CsrMatrix conduction_operator(const mesh::UnstructuredMesh& m,
                                      double mass) {
  std::vector<sparse::Triplet> t;
  for (mesh::CellId c = 0; c < m.num_cells(); ++c) {
    t.push_back({c, c, mass * m.volumes()[static_cast<std::size_t>(c)]});
  }
  for (const mesh::Edge& e : m.edges()) {
    const mesh::Vec3& ca = m.centroids()[static_cast<std::size_t>(e.a)];
    const mesh::Vec3& cb = m.centroids()[static_cast<std::size_t>(e.b)];
    const double dx = cb.x - ca.x;
    const double dy = cb.y - ca.y;
    const double dz = cb.z - ca.z;
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    const double w = e.area / dist;
    t.push_back({e.a, e.a, w});
    t.push_back({e.b, e.b, w});
    t.push_back({e.a, e.b, -w});
    t.push_back({e.b, e.a, -w});
  }
  return sparse::csr_from_triplets(m.num_cells(), m.num_cells(), t);
}

TEST(Pcg, AmgKeepsIterationsLowOnMeshConductionOperator) {
  // The reason the production solvers wrap CG in AMG: on an operator
  // assembled from an unstructured (jittered) mesh, the AMG-preconditioned
  // solve needs a small fraction of plain CG's iterations.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(14, 14, 14);
  const sparse::CsrMatrix a = conduction_operator(m, 1e-2);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 31);
  std::vector<double> x_plain(n, 0.0);
  const PcgResult plain = pcg(a, x_plain, b, 1e-8, 2000);
  ASSERT_TRUE(plain.converged);
  AmgHierarchy h(a, AmgOptions{});
  std::vector<double> x(n, 0.0);
  const PcgResult res = pcg(a, x, b, 1e-8, 200, make_amg_preconditioner(h));
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.iterations, 40);
  EXPECT_LT(res.iterations, plain.iterations / 3);
  const double bnorm = std::sqrt(std::inner_product(b.begin(), b.end(),
                                                    b.begin(), 0.0));
  EXPECT_LT(residual_norm(a, x, b), 1e-7 * bnorm);
}

TEST(Pcg, AmgSolvesAnisotropicAnnulusOperator) {
  // A blade-row passage: radial, azimuthal and axial face weights differ
  // by up to an order of magnitude and vary with radius.
  const mesh::UnstructuredMesh m =
      mesh::make_annulus_mesh(12, 24, 10, 1.0, 2.0, 30.0, 2.0);
  const sparse::CsrMatrix a = conduction_operator(m, 1e-2);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 32);
  std::vector<double> x_plain(n, 0.0);
  const PcgResult plain = pcg(a, x_plain, b, 1e-8, 5000);
  ASSERT_TRUE(plain.converged);
  AmgHierarchy h(a, AmgOptions{});
  std::vector<double> x(n, 0.0);
  const PcgResult res = pcg(a, x, b, 1e-8, 500, make_amg_preconditioner(h));
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.iterations, plain.iterations / 2);
  const double bnorm = std::sqrt(std::inner_product(b.begin(), b.end(),
                                                    b.begin(), 0.0));
  EXPECT_LT(residual_norm(a, x, b), 1e-7 * bnorm);
}

TEST(Pcg, WorkspaceOverloadMatchesAllocatingOverloadBitwise) {
  // Solver loops hold a PcgWorkspace; the result must be the one the
  // allocating overload gives, whatever the workspace held before.
  const sparse::CsrMatrix a = sparse::laplacian_3d(10, 10, 10);
  const auto n = static_cast<std::size_t>(a.rows());
  AmgHierarchy h(a, AmgOptions{});
  const Preconditioner precond = make_amg_preconditioner(h);
  PcgWorkspace workspace;
  workspace.resize(n);
  for (std::uint64_t seed : {41U, 42U}) {
    const std::vector<double> b = random_vector(n, seed);
    std::vector<double> x_alloc(n, 0.0);
    std::vector<double> x_ws(n, 0.0);
    const PcgResult r_alloc = pcg(a, x_alloc, b, 1e-9, 100, precond);
    const PcgResult r_ws = pcg(a, x_ws, b, 1e-9, 100, precond, workspace);
    ASSERT_TRUE(r_alloc.converged);
    EXPECT_EQ(r_ws.iterations, r_alloc.iterations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r_ws.relative_residual),
              std::bit_cast<std::uint64_t>(r_alloc.relative_residual));
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(x_ws[i]),
                std::bit_cast<std::uint64_t>(x_alloc[i]))
          << "seed " << seed << " entry " << i;
    }
  }
}

}  // namespace
}  // namespace cpx::amg
