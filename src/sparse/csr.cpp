#include "sparse/csr.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace cpx::sparse {
namespace {

// Static-partition grains (docs/parallelism.md). Fixed constants so the
// chunk decomposition — and therefore every result — is independent of
// the thread count.
constexpr std::int64_t kRowGrain = 2048;     ///< SpMV-class row loops
constexpr std::int64_t kSpgemmGrain = 256;   ///< SpGEMM row passes

using support::simd::kWidth;

/// Fixed-lane tree dot of a row with at least simd::kReduceLanes entries,
/// bitwise identical at every pack width. Kept out of line so row_dot's
/// short-row chain stays small enough to inline into every row loop.
template <int W>
[[gnu::noinline]] double long_row_dot(const double* vals,
                                      const std::int32_t* cols,
                                      const double* x, std::int64_t k0,
                                      std::int64_t k1) {
  return support::simd::tree_reduce<W>(
      k0, k1,
      [&](std::int64_t k) {
        return support::simd::pack<W>::load(vals + k) *
               support::simd::pack<W>::gather(x, cols + k);
      },
      [&](std::int64_t k) { return vals[k] * x[cols[k]]; });
}

/// Width-invariant row dot product (docs/parallelism.md, determinism
/// tiers). Rows shorter than simd::kReduceLanes (the 7-point rows of the
/// fine pressure operator, the finest interpolation P) run the plain
/// serial chain inline in the caller's row loop, with no call; longer rows
/// (the coarse Galerkin operators) call long_row_dot. The branch depends
/// on the row length alone, never on the pack width, so results are
/// width-invariant either way.
template <int W>
inline double row_dot(const double* vals, const std::int32_t* cols,
                      const double* x, std::int64_t k0, std::int64_t k1) {
  if (k1 - k0 < support::simd::kReduceLanes) {
    double sum = 0.0;
    for (std::int64_t k = k0; k < k1; ++k) {
      sum += vals[k] * x[cols[k]];
    }
    return sum;
  }
  return long_row_dot<W>(vals, cols, x, k0, k1);
}

/// Roofline accounting shared by every SpMV variant: 2 flops per nonzero
/// plus `row_flops` per row; streamed bytes are values + column indices +
/// x gathers per nonzero plus `row_streams` dense vectors read or written
/// once per row (y for spmv; y read and written for spmv_add; b read and r
/// written for the residual kernels).
void account_spmv(const CsrMatrix& a, std::int64_t row_flops,
                  std::int64_t row_streams) {
  if (!support::metrics::enabled()) {
    return;
  }
  support::metrics::counter_add("sparse/spmv_nnz", a.nnz());
  support::metrics::counter_add("sparse/spmv_flops",
                                2 * a.nnz() + row_flops * a.rows());
  support::metrics::counter_add(
      "sparse/spmv_bytes",
      a.nnz() * static_cast<std::int64_t>(sizeof(double) +
                                          sizeof(std::int32_t) +
                                          sizeof(double)) +
          row_streams * a.rows() * static_cast<std::int64_t>(sizeof(double)));
}

}  // namespace

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols,
                     std::vector<std::int64_t> row_offsets,
                     std::vector<std::int32_t> col_indices,
                     support::aligned_vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  validate();
}

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols,
                     std::vector<std::int64_t> row_offsets,
                     std::vector<std::int32_t> col_indices,
                     const std::vector<double>& values)
    : CsrMatrix(rows, cols, std::move(row_offsets), std::move(col_indices),
                support::aligned_vector<double>(values.begin(),
                                                values.end())) {}

CsrMatrix::CsrMatrix(std::int64_t rows, std::int64_t cols,
                     std::vector<std::int64_t> row_offsets,
                     std::vector<std::int32_t> col_indices,
                     support::aligned_vector<double> values, Trusted)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  // Internally-built structure: the O(nnz) per-entry sweep ran inside
  // solve loops on every intermediate SpGEMM product, so it is gated on
  // the checking tier here (on by default in debug builds, opt-in via
  // CPX_CHECK_LEVEL=debug in release); the O(rows) shape invariants stay
  // always-on.
  validate_shape();
  if (check::deep()) {
    validate();
  }
}

std::span<const std::int32_t> CsrMatrix::row_cols(std::int64_t r) const {
  CPX_DCHECK(r >= 0 && r < rows_);
  const auto begin = static_cast<std::size_t>(
      row_offsets_[static_cast<std::size_t>(r)]);
  const auto end = static_cast<std::size_t>(
      row_offsets_[static_cast<std::size_t>(r) + 1]);
  return {col_indices_.data() + begin, end - begin};
}

std::span<const double> CsrMatrix::row_values(std::int64_t r) const {
  CPX_DCHECK(r >= 0 && r < rows_);
  const auto begin = static_cast<std::size_t>(
      row_offsets_[static_cast<std::size_t>(r)]);
  const auto end = static_cast<std::size_t>(
      row_offsets_[static_cast<std::size_t>(r) + 1]);
  return {values_.data() + begin, end - begin};
}

double CsrMatrix::at(std::int64_t r, std::int64_t c) const {
  const auto cols = row_cols(r);
  const auto vals = row_values(r);
  const auto it = std::lower_bound(cols.begin(), cols.end(),
                                   static_cast<std::int32_t>(c));
  if (it != cols.end() && *it == static_cast<std::int32_t>(c)) {
    return vals[static_cast<std::size_t>(it - cols.begin())];
  }
  return 0.0;
}

void CsrMatrix::validate_shape() const {
  CPX_CHECK_MSG(rows_ >= 0 && cols_ >= 0, "negative dimensions");
  CPX_CHECK_MSG(row_offsets_.size() == static_cast<std::size_t>(rows_) + 1,
                "row_offsets size " << row_offsets_.size() << " != rows+1");
  CPX_CHECK_MSG(row_offsets_.front() == 0, "row_offsets must start at 0");
  CPX_CHECK_MSG(
      row_offsets_.back() == static_cast<std::int64_t>(values_.size()),
      "row_offsets end != nnz");
  CPX_CHECK_MSG(col_indices_.size() == values_.size(),
                "col/value size mismatch");
  for (std::int64_t r = 0; r < rows_; ++r) {
    CPX_CHECK_MSG(row_offsets_[static_cast<std::size_t>(r)] <=
                      row_offsets_[static_cast<std::size_t>(r) + 1],
                  "non-monotone row_offsets at row " << r);
  }
}

void CsrMatrix::validate() const {
  validate_shape();
  for (std::int64_t r = 0; r < rows_; ++r) {
    const auto cols = row_cols(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      CPX_CHECK_MSG(cols[i] >= 0 && cols[i] < cols_,
                    "column out of range at row " << r);
      if (i > 0) {
        CPX_CHECK_MSG(cols[i - 1] < cols[i],
                      "columns not strictly sorted at row " << r);
      }
    }
  }
}

CsrMatrix csr_from_triplets(std::int64_t rows, std::int64_t cols,
                            std::span<const Triplet> triplets) {
  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<std::int32_t> out_cols;
  support::aligned_vector<double> out_vals;
  out_cols.reserve(sorted.size());
  out_vals.reserve(sorted.size());
  for (std::size_t i = 0; i < sorted.size();) {
    const Triplet& t = sorted[i];
    CPX_REQUIRE(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                "csr_from_triplets: entry (" << t.row << "," << t.col
                                             << ") out of range");
    double sum = 0.0;
    std::size_t j = i;
    while (j < sorted.size() && sorted[j].row == t.row &&
           sorted[j].col == t.col) {
      sum += sorted[j].value;
      ++j;
    }
    out_cols.push_back(static_cast<std::int32_t>(t.col));
    out_vals.push_back(sum);
    ++offsets[static_cast<std::size_t>(t.row) + 1];
    i = j;
  }
  for (std::size_t r = 1; r <= static_cast<std::size_t>(rows); ++r) {
    offsets[r] += offsets[r - 1];
  }
  return CsrMatrix(rows, cols, std::move(offsets), std::move(out_cols),
                   std::move(out_vals));
}

void spmv(const CsrMatrix& a, std::span<const double> x,
          std::span<double> y) {
  CPX_REQUIRE(x.size() == static_cast<std::size_t>(a.cols()),
              "spmv: x size mismatch");
  CPX_REQUIRE(y.size() == static_cast<std::size_t>(a.rows()),
              "spmv: y size mismatch");
  CPX_METRICS_SCOPE("sparse/spmv");
  account_spmv(a, 0, 1);
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* cols = a.col_indices().data();
  const double* vals = a.values().data();
  const double* px = x.data();
  double* py = y.data();
  support::parallel_for(
      0, a.rows(), kRowGrain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          py[r] = row_dot<kWidth>(vals, cols, px, offsets[r], offsets[r + 1]);
        }
      });
}

void spmv_add(const CsrMatrix& a, std::span<const double> x,
              std::span<double> y, double beta) {
  CPX_REQUIRE(x.size() == static_cast<std::size_t>(a.cols()),
              "spmv_add: x size mismatch");
  CPX_REQUIRE(y.size() == static_cast<std::size_t>(a.rows()),
              "spmv_add: y size mismatch");
  CPX_METRICS_SCOPE("sparse/spmv");
  account_spmv(a, 2, 2);
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* cols = a.col_indices().data();
  const double* vals = a.values().data();
  const double* px = x.data();
  double* py = y.data();
  support::parallel_for(
      0, a.rows(), kRowGrain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const double sum =
              row_dot<kWidth>(vals, cols, px, offsets[r], offsets[r + 1]);
          py[r] = sum + beta * py[r];
        }
      });
}

void spmv_residual(const CsrMatrix& a, std::span<const double> x,
                   std::span<const double> b, std::span<double> r) {
  CPX_REQUIRE(x.size() == static_cast<std::size_t>(a.cols()),
              "spmv_residual: x size mismatch");
  CPX_REQUIRE(b.size() == static_cast<std::size_t>(a.rows()) &&
                  r.size() == b.size(),
              "spmv_residual: b/r size mismatch");
  CPX_METRICS_SCOPE("sparse/spmv");
  account_spmv(a, 1, 2);
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* cols = a.col_indices().data();
  const double* vals = a.values().data();
  const double* px = x.data();
  const double* pb = b.data();
  double* pr = r.data();
  support::parallel_for(
      0, a.rows(), kRowGrain, [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t row = r0; row < r1; ++row) {
          const double sum =
              row_dot<kWidth>(vals, cols, px, offsets[row], offsets[row + 1]);
          pr[row] = pb[row] - sum;
        }
      });
}

double spmv_residual_norm2(const CsrMatrix& a, std::span<const double> x,
                           std::span<const double> b, std::span<double> r) {
  CPX_REQUIRE(x.size() == static_cast<std::size_t>(a.cols()),
              "spmv_residual_norm2: x size mismatch");
  CPX_REQUIRE(b.size() == static_cast<std::size_t>(a.rows()) &&
                  r.size() == b.size(),
              "spmv_residual_norm2: b/r size mismatch");
  CPX_METRICS_SCOPE("sparse/spmv");
  account_spmv(a, 3, 2);
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* cols = a.col_indices().data();
  const double* vals = a.values().data();
  const double* px = x.data();
  const double* pb = b.data();
  double* pr = r.data();
  // Fusing the norm into the SpMV sweep is the point of this kernel, so it
  // cannot route through blas1. Row sums vectorize via row_dot; the
  // cross-row res*res accumulation stays a serial scalar chain inside the
  // chunk — width-invariant by construction, and thread-invariant because
  // the kRowGrain decomposition is fixed.
  return support::parallel_reduce(  // cpx-lint: allow(reduce)
      0, a.rows(), kRowGrain, 0.0, [&](std::int64_t r0, std::int64_t r1) {
        double partial = 0.0;
        for (std::int64_t row = r0; row < r1; ++row) {
          const double sum =
              row_dot<kWidth>(vals, cols, px, offsets[row], offsets[row + 1]);
          const double res = pb[row] - sum;
          pr[row] = res;
          partial += res * res;
        }
        return partial;
      });
}

namespace {

/// Serial transpose core (also the small-matrix path of the parallel one).
CsrMatrix transpose_serial(const CsrMatrix& a) {
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(a.cols()) + 1,
                                    0);
  for (std::int32_t c : a.col_indices()) {
    ++offsets[static_cast<std::size_t>(c) + 1];
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<std::int32_t> cols(a.values().size());
  support::aligned_vector<double> vals(a.values().size());
  std::vector<std::int64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const auto rc = a.row_cols(r);
    const auto rv = a.row_values(r);
    for (std::size_t i = 0; i < rc.size(); ++i) {
      const auto slot = static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(rc[i])]++);
      cols[slot] = static_cast<std::int32_t>(r);
      vals[slot] = rv[i];
    }
  }
  return CsrMatrix(a.cols(), a.rows(), std::move(offsets), std::move(cols),
                   std::move(vals), Trusted{});
}

}  // namespace

CsrMatrix transpose(const CsrMatrix& a) {
  CPX_METRICS_SCOPE("sparse/transpose");
  if (support::metrics::enabled()) {
    support::metrics::counter_add("sparse/transpose_nnz", a.nnz());
  }
  // Two-phase chunked transpose: per-chunk column histograms, a serial
  // chunk-order prefix giving each chunk its starting cursor per column,
  // then a parallel scatter. Entries within an output row keep ascending
  // source-row order (each chunk covers a contiguous row range and chunks
  // are prefixed in order), so the result is byte-identical to the serial
  // scan — transpose has no floating-point accumulation, which is why the
  // chunk count may depend on the thread count without breaking the
  // determinism contract. The histogram memory is nchunks*cols, so the
  // chunk count is capped independently of the row grain.
  const std::int64_t rows = a.rows();
  const std::int64_t cols_n = a.cols();
  const std::int64_t max_chunks =
      std::min<std::int64_t>(4 * support::max_threads(), 64);
  const std::int64_t grain =
      std::max<std::int64_t>(kRowGrain, (rows + max_chunks - 1) / max_chunks);
  const std::int64_t nchunks = support::num_chunks(0, rows, grain);
  if (nchunks <= 1 || cols_n == 0) {
    return transpose_serial(a);
  }

  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(nchunks * cols_n), 0);
  support::parallel_chunks(0, rows, grain, [&](std::int64_t chunk,
                                               std::int64_t r0,
                                               std::int64_t r1, int) {
    std::int64_t* count = counts.data() + chunk * cols_n;
    for (std::int64_t r = r0; r < r1; ++r) {
      for (std::int32_t c : a.row_cols(r)) {
        ++count[c];
      }
    }
  });

  // Column offsets plus per-chunk starting cursors, both from one serial
  // chunk-order scan of the histograms.
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(cols_n) + 1, 0);
  for (std::int64_t c = 0; c < cols_n; ++c) {
    std::int64_t total = 0;
    for (std::int64_t chunk = 0; chunk < nchunks; ++chunk) {
      const std::int64_t n = counts[static_cast<std::size_t>(
          chunk * cols_n + c)];
      counts[static_cast<std::size_t>(chunk * cols_n + c)] = total;
      total += n;
    }
    offsets[static_cast<std::size_t>(c) + 1] = total;
  }
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }

  std::vector<std::int32_t> out_cols(a.values().size());
  support::aligned_vector<double> out_vals(a.values().size());
  support::parallel_chunks(0, rows, grain, [&](std::int64_t chunk,
                                               std::int64_t r0,
                                               std::int64_t r1, int) {
    std::int64_t* cursor = counts.data() + chunk * cols_n;
    for (std::int64_t r = r0; r < r1; ++r) {
      const auto rc = a.row_cols(r);
      const auto rv = a.row_values(r);
      for (std::size_t i = 0; i < rc.size(); ++i) {
        const auto c = static_cast<std::size_t>(rc[i]);
        const auto slot = static_cast<std::size_t>(
            offsets[c] + cursor[c]++);
        out_cols[slot] = static_cast<std::int32_t>(r);
        out_vals[slot] = rv[i];
      }
    }
  });
  return CsrMatrix(a.cols(), a.rows(), std::move(offsets),
                   std::move(out_cols), std::move(out_vals), Trusted{});
}

bool same_structure(const CsrMatrix& a, const CsrMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_offsets() == b.row_offsets() &&
         a.col_indices() == b.col_indices();
}

std::vector<std::int64_t> transpose_permutation(const CsrMatrix& a,
                                                const CsrMatrix& at) {
  CPX_REQUIRE(at.rows() == a.cols() && at.cols() == a.rows() &&
                  at.nnz() == a.nnz(),
              "transpose_permutation: shape mismatch");
  std::vector<std::int64_t> cursor(at.row_offsets().begin(),
                                   at.row_offsets().end() - 1);
  std::vector<std::int64_t> perm(static_cast<std::size_t>(a.nnz()));
  std::int64_t k = 0;
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int32_t c : a.row_cols(r)) {
      perm[static_cast<std::size_t>(k++)] =
          cursor[static_cast<std::size_t>(c)]++;
    }
  }
  return perm;
}

void transpose_numeric(const CsrMatrix& a,
                       std::span<const std::int64_t> perm, CsrMatrix& at) {
  CPX_REQUIRE(perm.size() == static_cast<std::size_t>(a.nnz()) &&
                  at.nnz() == a.nnz(),
              "transpose_numeric: size mismatch");
  const auto& src = a.values();
  auto& dst = at.mutable_values();
  support::parallel_for(0, a.nnz(), kRowGrain, [&](std::int64_t k0,
                                                   std::int64_t k1) {
    for (std::int64_t k = k0; k < k1; ++k) {
      dst[static_cast<std::size_t>(perm[static_cast<std::size_t>(k)])] =
          src[static_cast<std::size_t>(k)];
    }
  });
}

namespace {

/// Multiply-add count of A·B: Σ over entries (r,k) of A of nnz(B row k).
/// O(nnz(A)); used for the sparse/spgemm_flops counter.
std::int64_t spgemm_flop_count(const CsrMatrix& a, const CsrMatrix& b) {
  const auto& boff = b.row_offsets();
  std::int64_t flops = 0;
  for (std::int32_t ak : a.col_indices()) {
    flops += boff[static_cast<std::size_t>(ak) + 1] -
             boff[static_cast<std::size_t>(ak)];
  }
  return flops;
}

/// One lane's SpGEMM scratch, held in a support::Padded slot and sized
/// serially before the region. marker[c] is the last output row that
/// touched column c; row ids are unique, so it needs no reset between rows
/// or chunks.
struct SpgemmLane {
  std::vector<std::int64_t> marker;
  std::vector<std::int64_t> position;  ///< twopass: slot of column c
  std::vector<double> spa;             ///< SPA: accumulated value of c
  std::vector<std::int32_t> row_cols;  ///< SPA: columns of the current row
};

/// One chunk's SPA output rows, compacted in chunk order afterwards.
struct SpgemmChunk {
  std::vector<std::int32_t> cols;
  std::vector<double> vals;
};

}  // namespace

CsrMatrix spgemm_twopass(const CsrMatrix& a, const CsrMatrix& b) {
  CPX_REQUIRE(a.cols() == b.rows(), "spgemm: inner dimension mismatch");
  CPX_METRICS_SCOPE("sparse/spgemm_twopass");
  if (support::metrics::enabled()) {
    support::metrics::counter_add("sparse/spgemm_flops",
                                  spgemm_flop_count(a, b));
  }
  const std::int64_t m = a.rows();
  const std::int64_t n = b.cols();

  std::vector<support::Padded<SpgemmLane>> lanes(
      static_cast<std::size_t>(support::max_threads()));
  for (auto& lane : lanes) {
    lane.value.marker.assign(static_cast<std::size_t>(n), -1);
    lane.value.position.assign(static_cast<std::size_t>(n), 0);
  }

  // Symbolic pass: count distinct columns per output row using a marker
  // array (reads both inputs once, discards the structure). Row-parallel.
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(m) + 1, 0);
  support::parallel_chunks(0, m, kSpgemmGrain, [&](std::int64_t,
                                                   std::int64_t r0,
                                                   std::int64_t r1,
                                                   int lane) {
    auto& marker = lanes[static_cast<std::size_t>(lane)].value.marker;
    for (std::int64_t r = r0; r < r1; ++r) {
      std::int64_t count = 0;
      for (std::int32_t ak : a.row_cols(r)) {
        for (std::int32_t bk : b.row_cols(ak)) {
          if (marker[static_cast<std::size_t>(bk)] != r) {
            marker[static_cast<std::size_t>(bk)] = r;
            ++count;
          }
        }
      }
      offsets[static_cast<std::size_t>(r) + 1] = count;
    }
  });
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }

  // Numeric pass: re-read both inputs, accumulate values. Each row fills
  // its own pre-sized output slice, so rows are independent and the values
  // are bitwise identical at any thread count.
  const auto nnz = static_cast<std::size_t>(offsets.back());
  std::vector<std::int32_t> cols(nnz);
  support::aligned_vector<double> vals(nnz);
  for (auto& lane : lanes) {
    std::fill(lane.value.marker.begin(), lane.value.marker.end(), -1);
  }
  support::parallel_chunks(0, m, kSpgemmGrain, [&](std::int64_t,
                                                   std::int64_t r0,
                                                   std::int64_t r1,
                                                   int lane) {
    auto& marker = lanes[static_cast<std::size_t>(lane)].value.marker;
    auto& position = lanes[static_cast<std::size_t>(lane)].value.position;
    for (std::int64_t r = r0; r < r1; ++r) {
      const auto row_begin = offsets[static_cast<std::size_t>(r)];
      std::int64_t cursor = row_begin;
      const auto ac = a.row_cols(r);
      const auto av = a.row_values(r);
      for (std::size_t i = 0; i < ac.size(); ++i) {
        const std::int32_t ak = ac[i];
        const double aval = av[i];
        const auto bc = b.row_cols(ak);
        const auto bv = b.row_values(ak);
        for (std::size_t j = 0; j < bc.size(); ++j) {
          const std::int32_t c = bc[j];
          if (marker[static_cast<std::size_t>(c)] != r) {
            marker[static_cast<std::size_t>(c)] = r;
            position[static_cast<std::size_t>(c)] = cursor;
            cols[static_cast<std::size_t>(cursor)] = c;
            vals[static_cast<std::size_t>(cursor)] = aval * bv[j];
            ++cursor;
          } else {
            vals[static_cast<std::size_t>(
                position[static_cast<std::size_t>(c)])] += aval * bv[j];
          }
        }
      }
      // Sort the row's columns (values follow).
      const auto row_end = cursor;
      std::vector<std::pair<std::int32_t, double>> row;
      row.reserve(static_cast<std::size_t>(row_end - row_begin));
      for (std::int64_t k = row_begin; k < row_end; ++k) {
        row.emplace_back(cols[static_cast<std::size_t>(k)],
                         vals[static_cast<std::size_t>(k)]);
      }
      std::sort(row.begin(), row.end());
      for (std::int64_t k = row_begin; k < row_end; ++k) {
        cols[static_cast<std::size_t>(k)] =
            row[static_cast<std::size_t>(k - row_begin)].first;
        vals[static_cast<std::size_t>(k)] =
            row[static_cast<std::size_t>(k - row_begin)].second;
      }
    }
  });
  return CsrMatrix(m, n, std::move(offsets), std::move(cols),
                   std::move(vals), Trusted{});
}

CsrMatrix spgemm_spa(const CsrMatrix& a, const CsrMatrix& b) {
  CPX_REQUIRE(a.cols() == b.rows(), "spgemm: inner dimension mismatch");
  CPX_METRICS_SCOPE("sparse/spgemm_spa");
  if (support::metrics::enabled()) {
    support::metrics::counter_add("sparse/spgemm_flops",
                                  spgemm_flop_count(a, b));
  }
  const std::int64_t m = a.rows();
  const std::int64_t n = b.cols();

  // Single pass: dense sparse accumulator gives O(1) scatter into the
  // current output row. Each chunk of rows builds into its own growable
  // arrays which are compacted into contiguous storage afterwards — the
  // paper's "large chunk of memory per task, compacted at the end" scheme.
  // The chunk decomposition is thread-count independent and chunks are
  // concatenated in order, so the result is identical to the serial pass.
  std::vector<support::Padded<SpgemmLane>> lanes(
      static_cast<std::size_t>(support::max_threads()));
  std::vector<support::Padded<SpgemmChunk>> outs(
      static_cast<std::size_t>(support::num_chunks(0, m, kSpgemmGrain)));
  std::vector<std::int64_t> offsets(static_cast<std::size_t>(m) + 1, 0);
  // Lanes are sized after the outputs are allocated: sizing them first
  // raised the pressure-resetup peak RSS by 0.85 MiB (glibc heap placement).
  for (auto& lane : lanes) {
    lane.value.spa.assign(static_cast<std::size_t>(n), 0.0);
    lane.value.marker.assign(static_cast<std::size_t>(n), -1);
  }
  support::parallel_chunks(0, m, kSpgemmGrain, [&](std::int64_t chunk,
                                                   std::int64_t r0,
                                                   std::int64_t r1,
                                                   int lane) {
    SpgemmLane& s = lanes[static_cast<std::size_t>(lane)].value;
    SpgemmChunk& out = outs[static_cast<std::size_t>(chunk)].value;
    for (std::int64_t r = r0; r < r1; ++r) {
      s.row_cols.clear();
      const auto ac = a.row_cols(r);
      const auto av = a.row_values(r);
      for (std::size_t i = 0; i < ac.size(); ++i) {
        const std::int32_t ak = ac[i];
        const double aval = av[i];
        const auto bc = b.row_cols(ak);
        const auto bv = b.row_values(ak);
        for (std::size_t j = 0; j < bc.size(); ++j) {
          const std::int32_t c = bc[j];
          if (s.marker[static_cast<std::size_t>(c)] != r) {
            s.marker[static_cast<std::size_t>(c)] = r;
            s.spa[static_cast<std::size_t>(c)] = aval * bv[j];
            s.row_cols.push_back(c);
          } else {
            s.spa[static_cast<std::size_t>(c)] += aval * bv[j];
          }
        }
      }
      std::sort(s.row_cols.begin(), s.row_cols.end());
      for (std::int32_t c : s.row_cols) {
        out.cols.push_back(c);
        out.vals.push_back(s.spa[static_cast<std::size_t>(c)]);
      }
      offsets[static_cast<std::size_t>(r) + 1] =
          static_cast<std::int64_t>(s.row_cols.size());
    }
  });

  for (std::size_t i = 1; i < offsets.size(); ++i) {
    offsets[i] += offsets[i - 1];
  }
  std::vector<std::int32_t> cols;
  support::aligned_vector<double> vals;
  cols.reserve(static_cast<std::size_t>(offsets.back()));
  vals.reserve(static_cast<std::size_t>(offsets.back()));
  for (const auto& out : outs) {  // compaction, in chunk order
    cols.insert(cols.end(), out.value.cols.begin(), out.value.cols.end());
    vals.insert(vals.end(), out.value.vals.begin(), out.value.vals.end());
  }
  return CsrMatrix(m, n, std::move(offsets), std::move(cols),
                   std::move(vals), Trusted{});
}

SpgemmPlan::SpgemmPlan(const CsrMatrix& a, const CsrMatrix& b)
    : SpgemmPlan(a, b, spgemm_spa(a, b)) {}

SpgemmPlan::SpgemmPlan(const CsrMatrix& a, const CsrMatrix& b,
                       const CsrMatrix& c)
    : rows_(a.rows()),
      cols_(b.cols()),
      inner_(a.cols()),
      flops_(spgemm_flop_count(a, b)),
      row_offsets_(c.row_offsets()),
      col_indices_(c.col_indices()) {
  CPX_REQUIRE(a.cols() == b.rows(),
              "SpgemmPlan: inner dimension mismatch");
  CPX_REQUIRE(c.rows() == a.rows() && c.cols() == b.cols(),
              "SpgemmPlan: product shape mismatch");
}

void SpgemmPlan::check_inputs(const CsrMatrix& a, const CsrMatrix& b) const {
  CPX_REQUIRE(!empty(), "SpgemmPlan: numeric pass on an empty plan");
  CPX_REQUIRE(a.rows() == rows_ && a.cols() == inner_ &&
                  b.rows() == inner_ && b.cols() == cols_,
              "SpgemmPlan: input shapes do not match the planned product");
}

void SpgemmPlan::fill_values(const CsrMatrix& a, const CsrMatrix& b,
                             const std::vector<std::int64_t>& offsets,
                             const std::vector<std::int32_t>& cols,
                             support::aligned_vector<double>& vals) const {
  CPX_METRICS_SCOPE("sparse/spgemm_numeric");
  if (support::metrics::enabled()) {
    support::metrics::counter_add("sparse/spgemm_flops", flops_);
  }
  // Every lane's accumulator is sized serially, before the parallel region:
  // chunks are claimed dynamically, so a lane that sat out the first call
  // would otherwise allocate on a later, warm one. Sizing zero-fills; the
  // gather below clears every entry it reads, so it stays zero between rows.
  const auto lanes = static_cast<std::size_t>(support::max_threads());
  if (lane_acc_.size() < lanes) {
    // cpx-lint: allow(solve-alloc) — serial first-call sizing (SolverAllocations.SteadyStateResetValuesAllocatesNothing)
    lane_acc_.resize(lanes);
  }
  for (auto& acc : lane_acc_) {
    if (acc.value.size() < static_cast<std::size_t>(cols_)) {
      // cpx-lint: allow(solve-alloc) — serial first-call sizing (SolverAllocations.SteadyStateResetValuesAllocatesNothing)
      acc.value.assign(static_cast<std::size_t>(cols_), 0.0);
    }
  }
  support::parallel_chunks(0, rows_, kSpgemmGrain, [&](std::int64_t,
                                                       std::int64_t r0,
                                                       std::int64_t r1,
                                                       int lane) {
    auto& acc = lane_acc_[static_cast<std::size_t>(lane)].value;
    for (std::int64_t r = r0; r < r1; ++r) {
      // Accumulate the row into the dense array (per output entry in A-row
      // order — the accumulation order of spgemm_spa/spgemm_twopass, so
      // values match the from-scratch kernels), then gather the planned
      // columns into the output slice and clear exactly what was touched
      // (the plan's columns are precisely the union of the B-row supports).
      const auto ac = a.row_cols(r);
      const auto av = a.row_values(r);
      for (std::size_t i = 0; i < ac.size(); ++i) {
        const double aval = av[i];
        const auto bc = b.row_cols(ac[i]);
        const auto bv = b.row_values(ac[i]);
        for (std::size_t j = 0; j < bc.size(); ++j) {
          acc[static_cast<std::size_t>(bc[j])] += aval * bv[j];
        }
      }
      const auto lo = static_cast<std::size_t>(
          offsets[static_cast<std::size_t>(r)]);
      const auto hi = static_cast<std::size_t>(
          offsets[static_cast<std::size_t>(r) + 1]);
      for (std::size_t k = lo; k < hi; ++k) {
        const auto c = static_cast<std::size_t>(cols[k]);
        vals[k] = acc[c];
        acc[c] = 0.0;
      }
    }
  });
}

CsrMatrix SpgemmPlan::numeric(const CsrMatrix& a, const CsrMatrix& b) const {
  check_inputs(a, b);
  std::vector<std::int64_t> offsets = row_offsets_;
  std::vector<std::int32_t> cols = col_indices_;
  support::aligned_vector<double> vals(col_indices_.size());
  fill_values(a, b, row_offsets_, col_indices_, vals);
  return CsrMatrix(rows_, cols_, std::move(offsets), std::move(cols),
                   std::move(vals), Trusted{});
}

void SpgemmPlan::numeric_into(const CsrMatrix& a, const CsrMatrix& b,
                              CsrMatrix& c) const {
  check_inputs(a, b);
  CPX_REQUIRE(c.rows() == rows_ && c.cols() == cols_ && c.nnz() == nnz(),
              "SpgemmPlan::numeric_into: output structure mismatch");
  fill_values(a, b, row_offsets_, col_indices_, c.mutable_values());
}

}  // namespace cpx::sparse
