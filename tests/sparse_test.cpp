// Tests for CSR matrices and the SpGEMM/renumbering kernels of the §IV-B
// optimisation study, including the property that optimised and baseline
// variants produce identical results.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "sparse/identity_prefix.hpp"
#include "reference_sparse.hpp"
#include "sparse/renumber.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::sparse {
namespace {

using testing::frobenius_distance;
using testing::galerkin_product;
using testing::identity_matrix;
using testing::laplacian_1d;

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  const std::vector<Triplet> t = {
      {1, 2, 1.0}, {0, 0, 2.0}, {1, 2, 0.5}, {1, 0, -1.0}};
  const CsrMatrix m = csr_from_triplets(2, 3, t);
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  m.validate();
}

TEST(Csr, RejectsOutOfRangeTriplets) {
  const std::vector<Triplet> t = {{0, 9, 1.0}};
  EXPECT_THROW(csr_from_triplets(2, 3, t), CheckError);
}

TEST(Csr, AtBinarySearchesTheRow) {
  // Row 0 spans first and last columns; row 1 is sparse in the middle;
  // row 2 is empty.
  const std::vector<Triplet> t = {
      {0, 0, 1.0}, {0, 3, 2.0}, {0, 7, 3.0}, {1, 2, -4.0}, {1, 5, 5.0}};
  const CsrMatrix m = csr_from_triplets(3, 8, t);
  // Hits, including the first and last stored column of a row.
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 3), 2.0);
  EXPECT_DOUBLE_EQ(m.at(0, 7), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -4.0);
  EXPECT_DOUBLE_EQ(m.at(1, 5), 5.0);
  // Misses: before the first entry, between entries, after the last entry,
  // and anywhere in an empty row.
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 4), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 6), 0.0);
  EXPECT_DOUBLE_EQ(m.at(1, 7), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 7), 0.0);
}

TEST(Csr, IdentityActsAsIdentity) {
  const CsrMatrix i = identity_matrix(5);
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y(5);
  spmv(i, x, y);
  EXPECT_EQ(x, y);
}

TEST(Spmv, MatchesDense) {
  const CsrMatrix a = laplacian_1d(4);
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y(4);
  spmv(a, x, y);
  // Tridiagonal [ -1 2 -1 ]: y0 = 2*1-2 = 0, y1 = -1+4-3 = 0, ...
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 5.0);
}

TEST(Spmv, AddAccumulates) {
  const CsrMatrix a = identity_matrix(3);
  const std::vector<double> x = {1.0, 1.0, 1.0};
  std::vector<double> y = {10.0, 20.0, 30.0};
  spmv_add(a, x, y, 2.0);
  EXPECT_DOUBLE_EQ(y[0], 21.0);
  EXPECT_DOUBLE_EQ(y[2], 61.0);
}

TEST(Transpose, InvolutionAndShape) {
  const CsrMatrix a = random_spd(50, 4, 7);
  const CsrMatrix at = transpose(a);
  EXPECT_EQ(at.rows(), a.cols());
  const CsrMatrix att = transpose(at);
  EXPECT_NEAR(frobenius_distance(a, att), 0.0, 1e-14);
}

TEST(Transpose, SymmetricMatrixIsFixed) {
  const CsrMatrix a = laplacian_2d(6, 5);
  EXPECT_NEAR(frobenius_distance(a, transpose(a)), 0.0, 1e-14);
}

class SpgemmEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SpgemmEquivalence, SpaMatchesTwoPass) {
  const int n = GetParam();
  const CsrMatrix a = random_spd(n, 3, static_cast<std::uint64_t>(n));
  const CsrMatrix b = random_spd(n, 4, static_cast<std::uint64_t>(n) + 1);
  const CsrMatrix ref = spgemm_twopass(a, b);
  const CsrMatrix opt = spgemm_spa(a, b);
  EXPECT_EQ(ref.nnz(), opt.nnz());
  EXPECT_NEAR(frobenius_distance(ref, opt), 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpgemmEquivalence,
                         ::testing::Values(1, 5, 32, 100, 333));

TEST(Spgemm, MultiplyByIdentityIsNoOp) {
  const CsrMatrix a = laplacian_2d(5, 5);
  const CsrMatrix i = identity_matrix(a.cols());
  EXPECT_NEAR(frobenius_distance(spgemm_spa(a, i), a), 0.0, 1e-14);
  EXPECT_NEAR(frobenius_distance(spgemm_twopass(i, a), a), 0.0, 1e-14);
}

TEST(Spgemm, KnownSmallProduct) {
  // A = [[1,2],[0,3]], B = [[4,0],[5,6]] -> AB = [[14,12],[15,18]].
  const std::vector<Triplet> ta = {{0, 0, 1}, {0, 1, 2}, {1, 1, 3}};
  const std::vector<Triplet> tb = {{0, 0, 4}, {1, 0, 5}, {1, 1, 6}};
  const CsrMatrix ab =
      spgemm_spa(csr_from_triplets(2, 2, ta), csr_from_triplets(2, 2, tb));
  EXPECT_DOUBLE_EQ(ab.at(0, 0), 14.0);
  EXPECT_DOUBLE_EQ(ab.at(0, 1), 12.0);
  EXPECT_DOUBLE_EQ(ab.at(1, 0), 15.0);
  EXPECT_DOUBLE_EQ(ab.at(1, 1), 18.0);
}

TEST(Spgemm, DimensionMismatchThrows) {
  const CsrMatrix a = laplacian_1d(4);
  const CsrMatrix b = laplacian_1d(5);
  EXPECT_THROW(spgemm_spa(a, b), CheckError);
}

TEST(Transpose, PermutationRefreshesValuesInPlace) {
  const CsrMatrix a = random_spd(120, 5, 11);
  CsrMatrix at = transpose(a);
  const auto perm = transpose_permutation(a, at);

  // New values over the same structure: numeric-only refresh must equal a
  // full transpose of the modified matrix.
  CsrMatrix a2 = a;
  for (double& v : a2.mutable_values()) {
    v *= 1.5;
  }
  transpose_numeric(a2, perm, at);
  const CsrMatrix reference = transpose(a2);
  EXPECT_TRUE(same_structure(at, reference));
  EXPECT_EQ(at.values(), reference.values());
}

TEST(Transpose, ParallelMatchesSerialOnTallMatrix) {
  // Enough rows to engage the chunked two-phase path regardless of the
  // thread count; rectangular so row/col confusion would be caught.
  std::vector<Triplet> t;
  Rng rng(13);
  for (std::int64_t r = 0; r < 9000; ++r) {
    for (int k = 0; k < 3; ++k) {
      t.push_back({r, static_cast<std::int64_t>(rng.uniform_index(40)),
                   rng.uniform(-1.0, 1.0)});
    }
  }
  const CsrMatrix a = csr_from_triplets(9000, 40, t);
  const CsrMatrix at = transpose(a);
  at.validate();
  EXPECT_EQ(at.rows(), 40);
  EXPECT_EQ(at.cols(), 9000);
  const CsrMatrix att = transpose(at);
  EXPECT_TRUE(same_structure(att, a));
  EXPECT_EQ(att.values(), a.values());
}

TEST(SameStructure, DetectsValueAndStructureDifferences) {
  const CsrMatrix a = laplacian_2d(6, 6);
  CsrMatrix b = a;
  for (double& v : b.mutable_values()) {
    v += 1.0;
  }
  EXPECT_TRUE(same_structure(a, b));  // values may differ
  EXPECT_TRUE(same_structure(a, a));
  EXPECT_FALSE(same_structure(a, laplacian_2d(6, 5)));
  EXPECT_FALSE(same_structure(a, identity_matrix(a.rows())));
}

TEST(SpgemmPlan, SymbolicMatchesProductStructure) {
  const CsrMatrix a = random_spd(200, 4, 17);
  const CsrMatrix b = random_spd(200, 5, 18);
  const CsrMatrix ref = spgemm_spa(a, b);
  const SpgemmPlan plan(a, b);
  EXPECT_EQ(plan.rows(), ref.rows());
  EXPECT_EQ(plan.cols(), ref.cols());
  EXPECT_EQ(plan.nnz(), ref.nnz());
  const CsrMatrix c = plan.numeric(a, b);
  EXPECT_TRUE(same_structure(c, ref));
  EXPECT_EQ(c.values(), ref.values());
}

TEST(SpgemmPlan, AdoptedStructureReproducesProduct) {
  const CsrMatrix a = random_spd(150, 4, 19);
  const CsrMatrix b = random_spd(150, 4, 20);
  const CsrMatrix ref = spgemm_spa(a, b);
  const SpgemmPlan plan(a, b, ref);  // adopt, no symbolic pass
  EXPECT_EQ(plan.nnz(), ref.nnz());
  EXPECT_GT(plan.flops(), 0);

  // numeric_into over new values with the same structure.
  CsrMatrix a2 = a;
  for (double& v : a2.mutable_values()) {
    v *= -0.5;
  }
  CsrMatrix c = ref;
  plan.numeric_into(a2, b, c);
  const CsrMatrix expected = spgemm_spa(a2, b);
  EXPECT_TRUE(same_structure(c, expected));
  EXPECT_EQ(c.values(), expected.values());
}

TEST(SpgemmPlan, RejectsMismatchedInputs) {
  const CsrMatrix a = laplacian_1d(10);
  const CsrMatrix b = laplacian_1d(10);
  const SpgemmPlan plan(a, b);
  const CsrMatrix wrong = laplacian_1d(9);
  EXPECT_THROW(plan.numeric(wrong, b), CheckError);
  EXPECT_THROW(SpgemmPlan{}.numeric(a, b), CheckError);
}

TEST(Galerkin, TripleProductShape) {
  const CsrMatrix a = laplacian_2d(8, 8);
  // Piecewise-constant P aggregating pairs of columns.
  std::vector<Triplet> pt;
  for (std::int64_t i = 0; i < 64; ++i) {
    pt.push_back({i, i / 2, 1.0});
  }
  const CsrMatrix p = csr_from_triplets(64, 32, pt);
  const CsrMatrix r = transpose(p);
  const CsrMatrix coarse = galerkin_product(r, a, p);
  EXPECT_EQ(coarse.rows(), 32);
  EXPECT_EQ(coarse.cols(), 32);
  // Galerkin preserves symmetry.
  EXPECT_NEAR(frobenius_distance(coarse, transpose(coarse)), 0.0, 1e-12);
}

TEST(Generators, Laplacian3dRowSums) {
  const CsrMatrix a = laplacian_3d(4, 4, 4);
  // Interior rows sum to zero; boundary rows are positive.
  double min_sum = 1e9;
  double max_sum = -1e9;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    double s = 0.0;
    for (double v : a.row_values(r)) {
      s += v;
    }
    min_sum = std::min(min_sum, s);
    max_sum = std::max(max_sum, s);
  }
  EXPECT_GE(min_sum, -1e-12);
  EXPECT_GT(max_sum, 0.0);
}

TEST(Generators, RandomSpdIsDiagonallyDominant) {
  const CsrMatrix a = random_spd(200, 5, 3);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    double diag = 0.0;
    double off = 0.0;
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (cols[i] == r) {
        diag = vals[i];
      } else {
        off += std::abs(vals[i]);
      }
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

class RenumberEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(RenumberEquivalence, HashMergeMatchesSort) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::int64_t> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(static_cast<std::int64_t>(rng.uniform_index(1200)) * 7 + 3);
  }
  const Renumbering a = renumber_sort(ids);
  const Renumbering b = renumber_hash_merge(ids, GetParam());
  EXPECT_EQ(a.locals_to_global, b.locals_to_global);
  EXPECT_EQ(a.renumbered, b.renumbered);
  // Round trip: renumbered entries map back to the original ids.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(a.locals_to_global[static_cast<std::size_t>(a.renumbered[i])],
              ids[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, RenumberEquivalence,
                         ::testing::Values(1, 2, 4, 7, 16));

TEST(IdentityPrefix, DetectsPrefixAndAppliesEquivalently) {
  // Interpolation with the first 5 coarse points injected directly.
  std::vector<Triplet> t;
  for (std::int64_t i = 0; i < 5; ++i) {
    t.push_back({i, i, 1.0});
  }
  for (std::int64_t i = 5; i < 12; ++i) {
    t.push_back({i, i % 5, 0.5});
    t.push_back({i, (i + 1) % 5, 0.5});
  }
  const CsrMatrix p = csr_from_triplets(12, 5, t);
  const IdentityPrefixMatrix ip = IdentityPrefixMatrix::from_csr(p);
  EXPECT_EQ(ip.identity_rows(), 5);
  EXPECT_EQ(ip.stored_nnz(), p.nnz() - 5);

  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> y_plain(12);
  std::vector<double> y_fast(12);
  spmv(p, x, y_plain);
  ip.apply(x, y_fast);
  for (std::size_t i = 0; i < y_plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(y_plain[i], y_fast[i]);
  }
  EXPECT_NEAR(frobenius_distance(ip.to_csr(), p), 0.0, 1e-14);
}

TEST(IdentityPrefix, NoPrefixDegeneratesToPlainCsr) {
  const CsrMatrix a = laplacian_1d(6);  // diagonal is 2.0, not a unit row
  const IdentityPrefixMatrix ip = IdentityPrefixMatrix::from_csr(a);
  EXPECT_EQ(ip.identity_rows(), 0);
  EXPECT_EQ(ip.stored_nnz(), a.nnz());
  const std::vector<double> x = {1, 2, 3, 4, 5, 6};
  std::vector<double> y(6);
  ip.apply(x, y);
  std::vector<double> want(6);
  spmv(a, x, want);
  EXPECT_EQ(y, want);
}

TEST(IdentityPrefix, WholeIdentityMatrix) {
  const CsrMatrix i = identity_matrix(7);
  const IdentityPrefixMatrix ip = IdentityPrefixMatrix::from_csr(i);
  EXPECT_EQ(ip.identity_rows(), 7);
  EXPECT_EQ(ip.stored_nnz(), 0);
  const std::vector<double> x = {1, 2, 3, 4, 5, 6, 7};
  std::vector<double> y(7);
  ip.apply(x, y);
  EXPECT_EQ(std::vector<double>(x.begin(), x.end()), y);
}

TEST(IdentityPrefix, RejectsInconsistentShapes) {
  EXPECT_THROW(
      IdentityPrefixMatrix(10, 5, identity_matrix(5)),
      CheckError);
}

TEST(Renumber, EmptyInput) {
  const Renumbering r = renumber_sort({});
  EXPECT_TRUE(r.locals_to_global.empty());
  EXPECT_TRUE(r.renumbered.empty());
  const Renumbering h = renumber_hash_merge({}, 4);
  EXPECT_TRUE(h.locals_to_global.empty());
}

}  // namespace
}  // namespace cpx::sparse
