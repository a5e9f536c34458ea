// Bitwise checks of the SIMD kernel layer (docs/parallelism.md, "SIMD
// determinism"). Every kernel runs the one compiled pack width
// simd::kWidth, and reductions go through the fixed-lane tree
// (simd::tree_reduce / tree_combine), so each kernel's bits equal a
// test-local width-1 spelling of it: tree_reduce<1>, or the serial chain
// the kernels keep for rows and stencils shorter than kReduceLanes. The
// kernel is checked against that reference at threads {1, 4, 16}.
// SIMPIC push and deposit have no pack path; their reference is the
// single-thread run.
//
// Also proves the vectorized solve path stays allocation-free: this file
// replaces global operator new/delete with counting versions (so it must
// remain a standalone test binary, like tests/solver_alloc_test.cpp), and
// the aligned overloads ARE counted — aligned_vector storage cannot hide
// heap traffic from the audit.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/pcg.hpp"
#include "amg/smoothers.hpp"
#include "cpx/interpolation.hpp"
#include "simpic/pic.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/aligned.hpp"
#include "support/blas1.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace {

std::atomic<std::size_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) {
    return p;
  }
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cpx {
namespace {

namespace simd = support::simd;

constexpr int kThreadCounts[] = {1, 4, 16};

/// Restores the thread count a test changed.
struct ThreadCountGuard {
  int threads = support::max_threads();
  ~ThreadCountGuard() { support::set_max_threads(threads); }
};

support::aligned_vector<double> random_vector(std::size_t n,
                                              std::uint64_t seed) {
  Rng rng(seed);
  support::aligned_vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

/// Runs `fn` (which returns every output of one kernel invocation,
/// flattened into one vector) at every thread count and asserts each run
/// is bit-identical to `reference` (for a pack kernel, its width-1
/// spelling).
void expect_matches_reference(const std::string& kernel,
                              const std::vector<double>& reference,
                              const std::function<std::vector<double>()>& fn) {
  ThreadCountGuard guard;
  ASSERT_FALSE(reference.empty()) << kernel;
  for (const int threads : kThreadCounts) {
    support::set_max_threads(threads);
    EXPECT_TRUE(bitwise_equal(reference, fn()))
        << kernel << " diverges from its reference at " << threads
        << " threads";
  }
}

/// The fixed-lane tree over [lo, hi) at width 1. `term(i)` is element i's
/// term; it is called once per element, in ascending order.
template <typename Term>
double tree1(std::int64_t lo, std::int64_t hi, Term&& term) {
  return simd::tree_reduce<1>(
      lo, hi,
      [&](std::int64_t i) { return simd::pack<1>::broadcast(term(i)); },
      term);
}

/// A row or stencil sum as the kernels spell it: a serial chain below
/// kReduceLanes terms, the fixed-lane tree from there on.
template <typename Term>
double split_sum(std::int64_t lo, std::int64_t hi, Term&& term) {
  if (hi - lo >= simd::kReduceLanes) {
    return tree1(lo, hi, term);
  }
  double sum = 0.0;
  for (std::int64_t i = lo; i < hi; ++i) {
    sum += term(i);
  }
  return sum;
}

/// One (l1-)Jacobi sweep from `x`, as amg::smooth spells it at width 1.
std::vector<double> jacobi_reference(const sparse::CsrMatrix& a,
                                     const std::vector<double>& x,
                                     const double* b, double omega, bool l1) {
  const std::int64_t* offsets = a.row_offsets().data();
  const std::int32_t* cols = a.col_indices().data();
  const double* vals = a.values().data();
  const double* px = x.data();
  std::vector<double> out(x.size());
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const std::int64_t k0 = offsets[r];
    const std::int64_t k1 = offsets[r + 1];
    double diag = 0.0;
    double off_abs = 0.0;
    double sum = 0.0;
    if (k1 - k0 < simd::kReduceLanes) {
      for (std::int64_t k = k0; k < k1; ++k) {
        if (cols[k] == r) {
          diag = vals[k];
        } else {
          sum += vals[k] * px[cols[k]];
          off_abs += std::abs(vals[k]);
        }
      }
    } else {
      for (std::int64_t k = k0; k < k1; ++k) {
        if (cols[k] == r) {
          diag = vals[k];
          break;
        }
      }
      sum = tree1(k0, k1,
                  [&](std::int64_t k) { return vals[k] * px[cols[k]]; }) -
            diag * px[r];
      off_abs = tree1(k0, k1,
                      [&](std::int64_t k) { return std::abs(vals[k]); }) -
                std::abs(diag);
    }
    const double d = l1 ? diag + off_abs : diag;
    const double x_new = (b[r] - sum) / d;
    out[static_cast<std::size_t>(r)] = px[r] + omega * (x_new - px[r]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// pack<W> primitives
// ---------------------------------------------------------------------------

template <int W>
void pack_roundtrip() {
  double src[W], dst[W];
  for (int j = 0; j < W; ++j) {
    src[j] = 1.0 + j;
    dst[j] = -1.0;
  }
  simd::pack<W>::load(src).store(dst);
  for (int j = 0; j < W; ++j) {
    EXPECT_EQ(dst[j], src[j]);
  }
}

TEST(SimdPack, LoadStoreRoundTripsAtEveryWidth) {
  pack_roundtrip<1>();
  pack_roundtrip<2>();
  pack_roundtrip<4>();
  pack_roundtrip<8>();
}

TEST(SimdPack, PartialLoadZeroFillsAndPartialStoreLeavesTail) {
  const double src[4] = {1.0, 2.0, 3.0, 4.0};
  const auto p = simd::pack<4>::load_partial(src, 3);
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[2], 3.0);
  EXPECT_EQ(p[3], 0.0);  // masked lane

  double dst[4] = {-1.0, -1.0, -1.0, -1.0};
  p.store_partial(dst, 2);
  EXPECT_EQ(dst[0], 1.0);
  EXPECT_EQ(dst[1], 2.0);
  EXPECT_EQ(dst[2], -1.0);  // untouched past n
  EXPECT_EQ(dst[3], -1.0);
}

TEST(SimdPack, GatherReadsThroughIndices) {
  const double base[6] = {10.0, 11.0, 12.0, 13.0, 14.0, 15.0};
  const std::int32_t idx[4] = {5, 0, 3, 3};
  const auto p = simd::pack<4>::gather(base, idx);
  EXPECT_EQ(p[0], 15.0);
  EXPECT_EQ(p[1], 10.0);
  EXPECT_EQ(p[2], 13.0);
  EXPECT_EQ(p[3], 13.0);
}

TEST(SimdPack, ArithmeticAbsAndFmaMatchScalarBits) {
  const double a[4] = {1.5, -2.25, 3.0, -0.5};
  const double b[4] = {0.25, 4.0, -1.125, 8.0};
  const double c[4] = {-1.0, 0.5, 2.0, -3.5};
  const auto pa = simd::pack<4>::load(a);
  const auto pb = simd::pack<4>::load(b);
  const auto pc = simd::pack<4>::load(c);
  const auto sum = pa + pb;
  const auto prod = pa * pb;
  const auto quot = pa / pb;
  const auto mabs = simd::abs(pc);
  const auto fused = simd::fma(pa, pb, pc);
  for (int j = 0; j < 4; ++j) {
    EXPECT_EQ(sum[j], a[j] + b[j]);
    EXPECT_EQ(prod[j], a[j] * b[j]);
    EXPECT_EQ(quot[j], a[j] / b[j]);
    EXPECT_EQ(mabs[j], std::abs(c[j]));
    // fma() is mul-then-add by contract (no contraction), so its bits are
    // exactly those of the two-operation scalar expression.
    EXPECT_EQ(fused[j], a[j] * b[j] + c[j]);
  }
}

TEST(SimdTree, CombineUsesTheOneFixedTree) {
  const double l[simd::kReduceLanes] = {0.1, 0.2, 0.3, 0.4,
                                        0.5, 0.6, 0.7, 0.8};
  const double expected =
      ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(simd::tree_combine(l)),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(SimdTree, TreeReduceIsWidthInvariantIncludingTails) {
  // 37 elements: full kReduceLanes blocks plus a 5-element tail, so every
  // width exercises both the pack loop and the scalar tail path.
  const auto data = random_vector(37, 99);
  const auto reduce_at = [&](auto width_tag) {
    constexpr int kW = decltype(width_tag)::value;
    return simd::tree_reduce<kW>(
        0, static_cast<std::int64_t>(data.size()),
        [&](std::int64_t i) {
          return simd::pack<kW>::load(data.data() + i);
        },
        [&](std::int64_t i) { return data[static_cast<std::size_t>(i)]; });
  };
  const double ref = reduce_at(std::integral_constant<int, 1>{});
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
            std::bit_cast<std::uint64_t>(
                reduce_at(std::integral_constant<int, 2>{})));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
            std::bit_cast<std::uint64_t>(
                reduce_at(std::integral_constant<int, 4>{})));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ref),
            std::bit_cast<std::uint64_t>(
                reduce_at(std::integral_constant<int, 8>{})));
}

// ---------------------------------------------------------------------------
// Each kernel family against its width-1 spelling
// ---------------------------------------------------------------------------

TEST(SimdReference, Blas1ReductionsMatchTheWidthOneTree) {
  // 1027 = 128 * 8 + 3: whole lane blocks plus a ragged tail, inside one
  // blas1 chunk, so one tree is the whole reduction.
  constexpr std::int64_t n = 1027;
  const auto a = random_vector(n, 1);
  const auto b = random_vector(n, 2);
  const auto z = random_vector(n, 3);
  const double* pa = a.data();
  const double* pb = b.data();
  const double* pz = z.data();
  expect_matches_reference(
      "blas1/sum", {tree1(0, n, [&](std::int64_t i) { return pa[i]; })},
      [&] { return std::vector<double>{support::blas1::sum(a)}; });
  expect_matches_reference(
      "blas1/dot",
      {tree1(0, n, [&](std::int64_t i) { return pa[i] * pb[i]; })},
      [&] { return std::vector<double>{support::blas1::dot(a, b)}; });
  expect_matches_reference(
      "blas1/norm2_squared",
      {tree1(0, n, [&](std::int64_t i) { return pa[i] * pa[i]; })},
      [&] { return std::vector<double>{support::blas1::norm2_squared(a)}; });
  expect_matches_reference(
      "blas1/dot_diff",
      {tree1(0, n, [&](std::int64_t i) { return pz[i] * (pa[i] - pb[i]); })},
      [&] {
        return std::vector<double>{support::blas1::dot_diff(z, a, b)};
      });
}

TEST(SimdReference, Blas1FusedAxpyNormMatchesTheWidthOneTree) {
  constexpr std::int64_t n = 1027;
  constexpr double alpha = 0.37;
  const auto p = random_vector(n, 4);
  const auto ap = random_vector(n, 5);
  const auto x0 = random_vector(n, 6);
  const auto r0 = random_vector(n, 7);
  std::vector<double> reference(x0.begin(), x0.end());
  reference.insert(reference.end(), r0.begin(), r0.end());
  double* rx = reference.data();
  double* rr = rx + n;
  const double* pp = p.data();
  const double* pap = ap.data();
  reference.push_back(tree1(0, n, [&](std::int64_t i) {
    rx[i] += alpha * pp[i];
    const double rv = rr[i] - alpha * pap[i];
    rr[i] = rv;
    return rv * rv;
  }));
  expect_matches_reference("blas1/axpy2_norm2", reference, [&] {
    auto x = x0;
    auto r = r0;
    const double nrm = support::blas1::axpy2_norm2(alpha, p, ap, x, r);
    std::vector<double> out(x.begin(), x.end());
    out.insert(out.end(), r.begin(), r.end());
    out.push_back(nrm);
    return out;
  });
}

TEST(SimdReference, SpmvMatchesTheWidthOneRowSumOnShortAndLongRows) {
  // 7-point rows stay below kReduceLanes (serial chain); random_spd(..., 16)
  // rows exceed it (gather + tree). Both span more than one row chunk.
  const sparse::CsrMatrix narrow = sparse::laplacian_3d(16, 16, 16);
  const sparse::CsrMatrix wide = sparse::random_spd(4500, 16, 13);
  for (const sparse::CsrMatrix* m : {&narrow, &wide}) {
    const auto x = random_vector(static_cast<std::size_t>(m->cols()), 8);
    const std::int64_t* offsets = m->row_offsets().data();
    const std::int32_t* cols = m->col_indices().data();
    const double* vals = m->values().data();
    const double* px = x.data();
    std::vector<double> reference;
    for (std::int64_t r = 0; r < m->rows(); ++r) {
      reference.push_back(
          split_sum(offsets[r], offsets[r + 1],
                    [&](std::int64_t k) { return vals[k] * px[cols[k]]; }));
    }
    expect_matches_reference("sparse/spmv", reference, [&] {
      support::aligned_vector<double> y(static_cast<std::size_t>(m->rows()),
                                        0.0);
      sparse::spmv(*m, x, y);
      return std::vector<double>(y.begin(), y.end());
    });
  }
}

TEST(SimdReference, JacobiSmoothersMatchTheWidthOneSweep) {
  const sparse::CsrMatrix narrow = sparse::laplacian_3d(16, 16, 16);
  const sparse::CsrMatrix wide = sparse::random_spd(4500, 16, 17);
  for (const sparse::CsrMatrix* m : {&narrow, &wide}) {
    const auto n = static_cast<std::size_t>(m->rows());
    const auto b = random_vector(n, 9);
    for (const amg::SmootherKind kind :
         {amg::SmootherKind::kJacobi, amg::SmootherKind::kL1Jacobi}) {
      amg::SmootherOptions sopts;
      sopts.kind = kind;
      const bool l1 = kind == amg::SmootherKind::kL1Jacobi;
      std::vector<double> reference(n, 0.0);
      for (int sweep = 0; sweep < 2; ++sweep) {  // the second from warm x
        reference =
            jacobi_reference(*m, reference, b.data(), sopts.jacobi_omega, l1);
      }
      expect_matches_reference("amg/smooth", reference, [&] {
        support::aligned_vector<double> x(n, 0.0);
        support::aligned_vector<double> scratch(n, 0.0);
        amg::smooth(*m, x, b, sopts, scratch);
        amg::smooth(*m, x, b, sopts, scratch);
        return std::vector<double>(x.begin(), x.end());
      });
    }
  }
}

TEST(SimdMatrix, SimpicPushAndDepositAreBitwiseInvariant) {
  // SIMPIC has no pack path, so its only axis is the thread count: the
  // single-thread run is the reference. 64 cells x 320 particles = 20480
  // particles, three 8192-particle chunks with a ragged last one, so the
  // parallel push and the chunked deposit reduction both run.
  const auto run = [] {
    simpic::PicOptions popts;
    popts.cells = 64;
    popts.boundary = simpic::Boundary::kPeriodic;
    simpic::Pic pic(popts);  // counter-based RNG: identical initial state
    pic.load_uniform(320, 0.1, 0.05);
    pic.deposit();
    pic.solve_field();
    pic.push();
    pic.deposit();  // re-deposit after the push: covers both kernels
    std::vector<double> out(pic.positions().begin(), pic.positions().end());
    out.insert(out.end(), pic.velocities().begin(), pic.velocities().end());
    out.insert(out.end(), pic.rho().begin(), pic.rho().end());
    return out;
  };
  std::vector<double> reference;
  {
    ThreadCountGuard guard;
    support::set_max_threads(1);
    reference = run();
  }
  expect_matches_reference("simpic/push+deposit", reference, run);
}

TEST(SimdReference, IdwApplyMatchesTheWidthOneStencilSum) {
  Rng rng(23);
  std::vector<mesh::Vec3> donors(257);
  std::vector<mesh::Vec3> targets(1100);
  for (auto& p : donors) {
    p = {rng.uniform(), rng.uniform(), rng.uniform()};
  }
  for (auto& p : targets) {
    p = {rng.uniform(), rng.uniform(), rng.uniform()};
  }
  const auto donor_field = random_vector(donors.size(), 10);
  const double* pf = donor_field.data();
  // k = 4 keeps the short-stencil serial chain; k = 12 >= kReduceLanes
  // takes the tree.
  for (const int k : {4, 12}) {
    const auto stencils = coupler::build_idw_stencils(donors, targets, k);
    std::vector<double> reference;
    for (const coupler::Stencil& s : stencils) {
      const double* pw = s.weights.data();
      const std::int64_t* pd = s.donors.data();
      reference.push_back(split_sum(
          0, k, [&](std::int64_t j) { return pw[j] * pf[pd[j]]; }));
    }
    expect_matches_reference("coupler/interpolate", reference, [&] {
      support::aligned_vector<double> target_field(targets.size(), 0.0);
      coupler::apply_stencils(stencils, donor_field, target_field);
      return std::vector<double>(target_field.begin(), target_field.end());
    });
  }
}

// ---------------------------------------------------------------------------
// Allocation-free vectorized solve
// ---------------------------------------------------------------------------

TEST(SimdAlloc, VectorizedSteadyStateSolveAllocatesNothing) {
  ThreadCountGuard guard;
  support::set_max_threads(4);

  const sparse::CsrMatrix a = sparse::laplacian_3d(12, 12, 12);
  const auto n = static_cast<std::size_t>(a.rows());
  const auto b = random_vector(n, 11);
  support::aligned_vector<double> x(n, 0.0);

  amg::AmgOptions opt;
  amg::AmgHierarchy hierarchy(a, opt);
  const amg::Preconditioner precond =
      amg::make_amg_preconditioner(hierarchy);
  amg::PcgWorkspace workspace;

  // Warm-up sizes every aligned workspace at full width.
  amg::PcgResult warm = amg::pcg(a, x, b, 1e-8, 50, precond, workspace);
  ASSERT_TRUE(warm.converged);

  std::fill(x.begin(), x.end(), 0.0);
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  amg::PcgResult res = amg::pcg(a, x, b, 1e-8, 50, precond, workspace);
  const std::size_t allocs =
      g_allocation_count.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(allocs, 0u)
      << "steady-state vectorized PCG made " << allocs
      << " heap allocations (aligned overloads are counted too)";
}

}  // namespace
}  // namespace cpx
