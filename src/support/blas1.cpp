#include "support/blas1.hpp"

#include <cmath>
#include <cstdint>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace cpx::support::blas1 {
namespace {

// Fixed reduction grain (docs/parallelism.md): the partial-sum
// decomposition — and therefore every bit of the result — depends on the
// vector length alone, never on the thread count. Within a chunk the
// kernels run on simd::pack lanes; reductions use the fixed-lane tree of
// simd::tree_reduce, so bits equal each kernel's width-1 spelling
// (tests/simd_test.cpp).
constexpr std::int64_t kBlasGrain = 4096;

using simd::kWidth;
using Pack = simd::pack<kWidth>;

/// Roofline accounting (docs/observability.md): flop and streamed-byte
/// totals for one kernel invocation, fed to bench/roofline via the
/// metrics counter layer. Streaming model: every operand read or written
/// once, 8 bytes per double.
inline void account(std::int64_t flops, std::int64_t bytes) {
  if (metrics::enabled()) {
    metrics::counter_add("blas1/flops", flops);
    metrics::counter_add("blas1/bytes", bytes);
  }
}

}  // namespace

double sum(std::span<const double> a) {
  const auto n = static_cast<std::int64_t>(a.size());
  account(n, 8 * n);
  const double* pa = a.data();
  return parallel_reduce(
      0, n, kBlasGrain, 0.0, [&](std::int64_t lo, std::int64_t hi) {
        return simd::tree_reduce<kWidth>(
            lo, hi,
            [&](std::int64_t i) { return Pack::load(pa + i); },
            [&](std::int64_t i) { return pa[i]; });
      });
}

double dot(std::span<const double> a, std::span<const double> b) {
  CPX_REQUIRE(a.size() == b.size(), "blas1::dot: size mismatch");
  const auto n = static_cast<std::int64_t>(a.size());
  account(2 * n, 16 * n);
  const double* pa = a.data();
  const double* pb = b.data();
  return parallel_reduce(
      0, n, kBlasGrain, 0.0, [&](std::int64_t lo, std::int64_t hi) {
        return simd::tree_reduce<kWidth>(
            lo, hi,
            [&](std::int64_t i) {
              return Pack::load(pa + i) * Pack::load(pb + i);
            },
            [&](std::int64_t i) { return pa[i] * pb[i]; });
      });
}

double norm2_squared(std::span<const double> a) {
  const auto n = static_cast<std::int64_t>(a.size());
  account(2 * n, 8 * n);
  const double* pa = a.data();
  return parallel_reduce(
      0, n, kBlasGrain, 0.0, [&](std::int64_t lo, std::int64_t hi) {
        return simd::tree_reduce<kWidth>(
            lo, hi,
            [&](std::int64_t i) {
              const auto v = Pack::load(pa + i);
              return v * v;
            },
            [&](std::int64_t i) {
              const double v = pa[i];
              return v * v;
            });
      });
}

double norm2(std::span<const double> a) { return std::sqrt(norm2_squared(a)); }

void axpy2(double alpha, std::span<const double> p,
           std::span<const double> ap, std::span<double> x,
           std::span<double> r) {
  const auto n = static_cast<std::int64_t>(x.size());
  CPX_REQUIRE(p.size() == x.size() && ap.size() == x.size() &&
                  r.size() == x.size(),
              "blas1::axpy2: size mismatch");
  account(4 * n, 48 * n);
  const double* pp = p.data();
  const double* pap = ap.data();
  double* px = x.data();
  double* pr = r.data();
  parallel_for(0, n, kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
    const auto va = Pack::broadcast(alpha);
    std::int64_t i = lo;
    for (; i + kWidth <= hi; i += kWidth) {
      (Pack::load(px + i) + va * Pack::load(pp + i)).store(px + i);
      (Pack::load(pr + i) - va * Pack::load(pap + i)).store(pr + i);
    }
    for (; i < hi; ++i) {
      px[i] += alpha * pp[i];
      pr[i] -= alpha * pap[i];
    }
  });
}

double axpy2_norm2(double alpha, std::span<const double> p,
                   std::span<const double> ap, std::span<double> x,
                   std::span<double> r) {
  const auto n = static_cast<std::int64_t>(x.size());
  CPX_REQUIRE(p.size() == x.size() && ap.size() == x.size() &&
                  r.size() == x.size(),
              "blas1::axpy2_norm2: size mismatch");
  account(6 * n, 48 * n);
  const double* pp = p.data();
  const double* pap = ap.data();
  double* px = x.data();
  double* pr = r.data();
  return parallel_reduce(
      0, n, kBlasGrain, 0.0, [&](std::int64_t lo, std::int64_t hi) {
        const auto va = Pack::broadcast(alpha);
        // tree_reduce terms carry the fused update as a side effect;
        // the x/r expressions match axpy2's exactly, so the fused and
        // unfused sequences stay bitwise identical (blas1_test).
        return simd::tree_reduce<kWidth>(
            lo, hi,
            [&](std::int64_t i) {
              (Pack::load(px + i) + va * Pack::load(pp + i)).store(px + i);
              const auto rv = Pack::load(pr + i) - va * Pack::load(pap + i);
              rv.store(pr + i);
              return rv * rv;
            },
            [&](std::int64_t i) {
              px[i] += alpha * pp[i];
              const double rv = pr[i] - alpha * pap[i];
              pr[i] = rv;
              return rv * rv;
            });
      });
}

double dot_diff(std::span<const double> z, std::span<const double> a,
                std::span<const double> b) {
  const auto n = static_cast<std::int64_t>(z.size());
  CPX_REQUIRE(a.size() == z.size() && b.size() == z.size(),
              "blas1::dot_diff: size mismatch");
  account(3 * n, 24 * n);
  const double* pz = z.data();
  const double* pa = a.data();
  const double* pb = b.data();
  return parallel_reduce(
      0, n, kBlasGrain, 0.0, [&](std::int64_t lo, std::int64_t hi) {
        return simd::tree_reduce<kWidth>(
            lo, hi,
            [&](std::int64_t i) {
              return Pack::load(pz + i) *
                     (Pack::load(pa + i) - Pack::load(pb + i));
            },
            [&](std::int64_t i) { return pz[i] * (pa[i] - pb[i]); });
      });
}

void xpby(std::span<const double> x, double beta, std::span<double> y) {
  CPX_REQUIRE(x.size() == y.size(), "blas1::xpby: size mismatch");
  const auto n = static_cast<std::int64_t>(x.size());
  account(2 * n, 24 * n);
  const double* px = x.data();
  double* py = y.data();
  parallel_for(0, n, kBlasGrain, [&](std::int64_t lo, std::int64_t hi) {
    const auto vb = Pack::broadcast(beta);
    std::int64_t i = lo;
    for (; i + kWidth <= hi; i += kWidth) {
      (Pack::load(px + i) + vb * Pack::load(py + i)).store(py + i);
    }
    for (; i < hi; ++i) {
      py[i] = px[i] + beta * py[i];
    }
  });
}

}  // namespace cpx::support::blas1
