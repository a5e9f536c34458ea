#pragma once
// Compressed-sparse-row matrices and the kernels the paper's §IV-B
// optimisation study targets: SpMV, SpGEMM (reference two-pass and
// optimised single-pass with a sparse accumulator), transpose, and the
// fixed-structure SpGEMM plan whose numeric passes re-form the Galerkin
// products R*A*P of an AMG re-setup.

#include <cstdint>
#include <span>
#include <vector>

#include "support/aligned.hpp"
#include "support/parallel.hpp"

namespace cpx::sparse {

struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double value = 0.0;
};

/// Tag for CSR storage produced by the library's own kernels (SpGEMM,
/// transpose, plan numeric passes): structure invariants hold by
/// construction, so the O(nnz) per-entry validation runs only when the
/// checking tier is at least check::Level::kDebug (the default in debug
/// builds; CPX_CHECK_LEVEL=debug opts a release build in). User-facing
/// constructors (csr_from_triplets, the untagged constructor) always
/// validate fully.
struct Trusted {};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  // Values are stored 64-byte aligned (support/aligned.hpp) for the SIMD
  // SpMV kernels; the aligned_vector overloads move, the std::vector
  // overload copies into aligned storage for callers that build values in
  // plain vectors.
  CsrMatrix(std::int64_t rows, std::int64_t cols,
            std::vector<std::int64_t> row_offsets,
            std::vector<std::int32_t> col_indices,
            support::aligned_vector<double> values);
  CsrMatrix(std::int64_t rows, std::int64_t cols,
            std::vector<std::int64_t> row_offsets,
            std::vector<std::int32_t> col_indices,
            support::aligned_vector<double> values, Trusted);
  CsrMatrix(std::int64_t rows, std::int64_t cols,
            std::vector<std::int64_t> row_offsets,
            std::vector<std::int32_t> col_indices,
            const std::vector<double>& values);
  // Braced value lists would convert equally well to either vector type,
  // so give them an overload that wins outright.
  CsrMatrix(std::int64_t rows, std::int64_t cols,
            std::vector<std::int64_t> row_offsets,
            std::vector<std::int32_t> col_indices,
            std::initializer_list<double> values)
      : CsrMatrix(rows, cols, std::move(row_offsets),
                  std::move(col_indices),
                  support::aligned_vector<double>(values.begin(),
                                                  values.end())) {}
  CsrMatrix(std::int64_t rows, std::int64_t cols,
            std::vector<std::int64_t> row_offsets,
            std::vector<std::int32_t> col_indices,
            std::initializer_list<double> values, Trusted)
      : CsrMatrix(rows, cols, std::move(row_offsets),
                  std::move(col_indices),
                  support::aligned_vector<double>(values.begin(),
                                                  values.end()),
                  Trusted{}) {}

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t nnz() const {
    return static_cast<std::int64_t>(values_.size());
  }

  const std::vector<std::int64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<std::int32_t>& col_indices() const { return col_indices_; }
  const support::aligned_vector<double>& values() const { return values_; }
  support::aligned_vector<double>& mutable_values() { return values_; }

  /// Row r as (cols, values) spans.
  std::span<const std::int32_t> row_cols(std::int64_t r) const;
  std::span<const double> row_values(std::int64_t r) const;

  /// Value at (r, c), 0 if not stored (binary search of the sorted row).
  double at(std::int64_t r, std::int64_t c) const;

  /// Checks offsets are monotone, columns in range and sorted per row.
  void validate() const;

 private:
  /// O(rows) shape/offset checks only (the Trusted construction path).
  void validate_shape() const;

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_offsets_;
  std::vector<std::int32_t> col_indices_;
  support::aligned_vector<double> values_;
};

/// Builds a CSR matrix from (possibly unsorted, duplicate) triplets;
/// duplicates are summed, rows end up sorted by column.
CsrMatrix csr_from_triplets(std::int64_t rows, std::int64_t cols,
                            std::span<const Triplet> triplets);

/// y = A x.
void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y);

/// y = A x + beta y.
void spmv_add(const CsrMatrix& a, std::span<const double> x,
              std::span<double> y, double beta);

/// Fused residual r = b − A·x in one sweep (vs spmv + subtract pass).
void spmv_residual(const CsrMatrix& a, std::span<const double> x,
                   std::span<const double> b, std::span<double> r);

/// Fused residual + reduction: computes r = b − A·x and returns ‖r‖² in
/// the same sweep — the residual-check kernel of the solve loops, one
/// read of A/x/b and one write of r instead of three vector passes. The
/// reduction uses the deterministic chunked combine of docs/parallelism.md.
double spmv_residual_norm2(const CsrMatrix& a, std::span<const double> x,
                           std::span<const double> b, std::span<double> r);

CsrMatrix transpose(const CsrMatrix& a);

/// True iff a and b have identical dimensions, row offsets, and column
/// indices (values may differ).
bool same_structure(const CsrMatrix& a, const CsrMatrix& b);

/// For fixed-structure transpose refreshes: perm[k] is the slot in
/// transpose(a) holding entry k of a, so a numeric-only transpose is
/// at.values[perm[k]] = a.values[k]. `at` must be transpose(a)'s structure.
std::vector<std::int64_t> transpose_permutation(const CsrMatrix& a,
                                                const CsrMatrix& at);

/// Numeric-only transpose over fixed structure using a permutation from
/// transpose_permutation. Allocation-free.
void transpose_numeric(const CsrMatrix& a,
                       std::span<const std::int64_t> perm, CsrMatrix& at);

/// Cached symbolic SpGEMM plan for products over fixed sparsity: holds the
/// output structure of A·B (offsets + columns) plus per-lane scatter
/// scratch, so repeated products where only values change pay the numeric
/// pass alone — the structure-reuse scheme the coupled workflow's
/// fixed-mesh pressure matrix enables (paper §IV-B task compaction, done
/// once instead of every step). Accumulation order per output entry
/// matches spgemm_spa/spgemm_twopass exactly, so numeric results are
/// bitwise identical to the from-scratch kernels at any thread count.
class SpgemmPlan {
 public:
  SpgemmPlan() = default;

  /// Plans A·B from the structure of spgemm_spa(a, b): one SPA pass, its
  /// values discarded. Off the hot path (tests, traced probes); AMG set-up
  /// adopts structures it has computed anyway through the form below.
  SpgemmPlan(const CsrMatrix& a, const CsrMatrix& b);

  /// Adopts the structure of an already-computed product C = A·B (no
  /// symbolic pass — free when the first product was computed anyway).
  SpgemmPlan(const CsrMatrix& a, const CsrMatrix& b, const CsrMatrix& c);

  bool empty() const { return rows_ == 0 && cols_ == 0; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t nnz() const {
    return row_offsets_.empty() ? 0 : row_offsets_.back();
  }
  /// Multiply-add count of one numeric pass (fixed by the structure).
  std::int64_t flops() const { return flops_; }

  /// Numeric pass into a freshly allocated matrix.
  CsrMatrix numeric(const CsrMatrix& a, const CsrMatrix& b) const;

  /// Numeric pass into an existing matrix with this plan's structure;
  /// allocation-free after the first call at the current pool width.
  void numeric_into(const CsrMatrix& a, const CsrMatrix& b,
                    CsrMatrix& c) const;

 private:
  void check_inputs(const CsrMatrix& a, const CsrMatrix& b) const;
  void fill_values(const CsrMatrix& a, const CsrMatrix& b,
                   const std::vector<std::int64_t>& offsets,
                   const std::vector<std::int32_t>& cols,
                   support::aligned_vector<double>& vals) const;

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;      ///< output columns (= B cols)
  std::int64_t inner_ = 0;     ///< inner dimension (= A cols = B rows)
  std::int64_t flops_ = 0;
  std::vector<std::int64_t> row_offsets_;
  std::vector<std::int32_t> col_indices_;
  // Per-lane dense accumulators (one double per output column), one
  // cache-line-padded slot per lane, sized serially for max_threads() lanes
  // on the first numeric pass at a pool width and reused (allocation-free)
  // after. The numeric pass accumulates each row into the dense array with
  // a single indirection, then gathers/clears exactly the planned columns —
  // no marker branch, no sort, no compaction. Mutable because reusing it
  // is an implementation detail of the const numeric passes.
  mutable std::vector<support::Padded<support::aligned_vector<double>>>
      lane_acc_;
};

/// Reference SpGEMM: symbolic pass sizes the output, numeric pass fills it
/// (the "input matrices read twice" baseline of §IV-B).
CsrMatrix spgemm_twopass(const CsrMatrix& a, const CsrMatrix& b);

/// Optimised SpGEMM: single pass with a dense sparse-accumulator (SPA)
/// giving O(1) access to any output element, rows built into per-row
/// scratch then compacted into contiguous storage (§IV-B optimisations 1-2).
CsrMatrix spgemm_spa(const CsrMatrix& a, const CsrMatrix& b);

}  // namespace cpx::sparse
