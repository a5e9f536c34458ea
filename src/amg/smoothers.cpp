#include "amg/smoothers.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace cpx::amg {
namespace {

constexpr std::int64_t kSmootherGrain = 2048;  ///< rows per task

template <int W>
void jacobi_sweep(const sparse::CsrMatrix& a, std::span<double> x,
                  std::span<const double> b, double omega, bool l1,
                  std::span<double> scratch) {
  const std::int64_t n = a.rows();
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* colidx = a.col_indices().data();
  const double* vals = a.values().data();
  const double* px = x.data();
  const double* pb = b.data();
  double* ps = scratch.data();
  // Row-parallel: every row reads the frozen x and writes scratch[r] only,
  // so the sweep is bitwise identical at any thread count. Short rows keep
  // the historical branchy loop (identical at every pack width because it
  // is scalar); long rows vectorize the row dot and the l1 |a_ij| sum with
  // the fixed-lane tree and recover the off-diagonal parts by subtracting
  // the diagonal term. The short/long branch depends on the row length
  // alone, never on the pack width, so bits are width-invariant.
  support::parallel_for(0, n, kSmootherGrain, [&](std::int64_t r0,
                                                  std::int64_t r1) {
    for (std::int64_t r = r0; r < r1; ++r) {
      const std::int64_t k0 = offsets[r];
      const std::int64_t k1 = offsets[r + 1];
      double diag = 0.0;
      double off_abs = 0.0;
      double sum = 0.0;
      if (k1 - k0 < support::simd::kReduceLanes) {
        for (std::int64_t k = k0; k < k1; ++k) {
          if (colidx[k] == r) {
            diag = vals[k];
          } else {
            sum += vals[k] * px[colidx[k]];
            off_abs += std::abs(vals[k]);
          }
        }
      } else {
        for (std::int64_t k = k0; k < k1; ++k) {
          if (colidx[k] == r) {
            diag = vals[k];
            break;
          }
        }
        const double rowdot = support::simd::tree_reduce<W>(
            k0, k1,
            [&](std::int64_t k) {
              return support::simd::pack<W>::load(vals + k) *
                     support::simd::pack<W>::gather(px, colidx + k);
            },
            [&](std::int64_t k) { return vals[k] * px[colidx[k]]; });
        sum = rowdot - diag * px[r];
        if (l1) {
          const double abs_all = support::simd::tree_reduce<W>(
              k0, k1,
              [&](std::int64_t k) {
                return support::simd::abs(
                    support::simd::pack<W>::load(vals + k));
              },
              [&](std::int64_t k) { return std::abs(vals[k]); });
          off_abs = abs_all - std::abs(diag);
        }
      }
      const double d = l1 ? diag + off_abs : diag;
      CPX_CHECK_MSG(d != 0.0, "jacobi: zero (l1-)diagonal at row " << r);
      const double x_new = (pb[r] - sum) / d;
      ps[r] = px[r] + omega * (x_new - px[r]);
    }
  });
  support::parallel_for(0, n, kSmootherGrain, [&](std::int64_t r0,
                                                  std::int64_t r1) {
    std::copy(scratch.begin() + r0, scratch.begin() + r1, x.begin() + r0);
  });
}

/// Gauss-Seidel over rows [row_begin, row_end), split at the diagonal as
/// smoothers.hpp describes. Hybrid GS passes the sweep's frozen copy of x
/// as `frozen`; plain GS passes x itself with row_begin = 0. Rows are
/// column-sorted (CsrMatrix::validate), so the two loops add the terms in
/// column order.
void gs_block(const sparse::CsrMatrix& a, std::span<double> x,
              std::span<const double> b, std::int64_t row_begin,
              std::int64_t row_end, const double* frozen) {
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* cols = a.col_indices().data();
  const double* vals = a.values().data();
  double* px = x.data();
  const double* pb = b.data();
  for (std::int64_t r = row_begin; r < row_end; ++r) {
    const std::int64_t k1 = offsets[r + 1];
    std::int64_t k = offsets[r];
    double sum = 0.0;
    for (; k < k1 && cols[k] < r; ++k) {
      const std::int64_t c = cols[k];
      const double* src = c >= row_begin ? px : frozen;
      sum += vals[k] * src[c];
    }
    CPX_CHECK_MSG(k < k1 && cols[k] == r && vals[k] != 0.0,
                  "gauss-seidel: zero or missing diagonal at row " << r);
    const double diag = vals[k];
    for (++k; k < k1; ++k) {
      sum += vals[k] * frozen[cols[k]];
    }
    px[r] = (pb[r] - sum) / diag;
  }
}

}  // namespace

void smooth(const sparse::CsrMatrix& a, std::span<double> x,
            std::span<const double> b, const SmootherOptions& options,
            std::span<double> scratch) {
  const std::int64_t n = a.rows();
  CPX_REQUIRE(x.size() == static_cast<std::size_t>(n) &&
                  b.size() == static_cast<std::size_t>(n),
              "smooth: vector size mismatch");
  CPX_REQUIRE(scratch.size() >= static_cast<std::size_t>(n),
              "smooth: scratch too small");
  CPX_METRICS_SCOPE("amg/smooth");
  if (support::metrics::enabled()) {
    // Roofline accounting (docs/observability.md): one multiply-add per
    // nonzero plus the per-row relaxation update; streamed bytes cover
    // values + column indices + x gathers + b reads + scratch/x writes.
    support::metrics::counter_add("amg/smooth_flops", 2 * a.nnz() + 5 * n);
    support::metrics::counter_add(
        "amg/smooth_bytes",
        a.nnz() * static_cast<std::int64_t>(sizeof(double) +
                                            sizeof(std::int32_t) +
                                            sizeof(double)) +
            4 * n * static_cast<std::int64_t>(sizeof(double)));
  }
  switch (options.kind) {
    case SmootherKind::kJacobi:
      jacobi_sweep<support::simd::kWidth>(a, x, b, options.jacobi_omega,
                                          /*l1=*/false, scratch);
      return;
    case SmootherKind::kL1Jacobi:
      jacobi_sweep<support::simd::kWidth>(a, x, b, options.jacobi_omega,
                                          /*l1=*/true, scratch);
      return;
    case SmootherKind::kGaussSeidel:
      gs_block(a, x, b, 0, n, x.data());
      return;
    case SmootherKind::kHybridGs: {
      // Freeze x for the inter-block (Jacobi) coupling, then sweep each
      // block with GS. Blocks only read the frozen copy outside their own
      // row range, so they are independent: each block is one task on the
      // thread pool — "Gauss-Seidel within a task, Jacobi across tasks" —
      // and the result is bitwise identical at any thread count because
      // the block decomposition depends on hybrid_blocks alone.
      CPX_REQUIRE(options.hybrid_blocks >= 1, "smooth: bad hybrid_blocks");
      std::copy(x.begin(), x.begin() + n, scratch.begin());
      const double* frozen = scratch.data();
      const std::int64_t blocks =
          std::min<std::int64_t>(options.hybrid_blocks, std::max<std::int64_t>(n, 1));
      support::parallel_for(0, blocks, 1, [&](std::int64_t blk0,
                                              std::int64_t blk1) {
        for (std::int64_t blk = blk0; blk < blk1; ++blk) {
          const std::int64_t lo = n * blk / blocks;
          const std::int64_t hi = n * (blk + 1) / blocks;
          gs_block(a, x, b, lo, hi, frozen);
        }
      });
      return;
    }
  }
  CPX_CHECK_MSG(false, "smooth: unknown smoother kind");
}

void residual(const sparse::CsrMatrix& a, std::span<const double> x,
              std::span<const double> b, std::span<double> r) {
  CPX_REQUIRE(r.size() == static_cast<std::size_t>(a.rows()),
              "residual: size mismatch");
  sparse::spmv_residual(a, x, b, r);
}

}  // namespace cpx::amg
