#pragma once
// Portable fixed-width SIMD shim for the hot kernel layers (blas1, sparse
// SpMV, AMG smoothers, coupler IDW). The SIMPIC push and deposit are plain
// scalar loops: a per-particle gather/scatter leaves a pack only a few
// elementwise operations, and the lane round-trips made them slower than
// the scalar loop (docs/parallelism.md). Dependency-free:
// pack<W> maps to GCC/Clang vector extensions where available and to a
// plain array + loops everywhere else, so the scalar fallback compiles on
// any C++20 compiler. No intrinsics headers, no -march requirements.
//
// Width model
// -----------
// Every kernel runs one compiled width, kWidth = 8 doubles: bench/roofline
// measured each pack path faster than its width-1 spelling (docs/
// observability.md), so there is no scalar switch. pack<W> and
// tree_reduce<W> stay templates: tests/simd_test.cpp spells each kernel
// at W = 1 as its reference and compares bit for bit.
//
// Determinism (docs/parallelism.md, "SIMD determinism")
// ------------------------------------------------------
// Elementwise kernels may vectorize freely inside the existing
// fixed-grain chunks — IEEE arithmetic is elementwise, so lane grouping
// cannot change bits. Reductions MUST go through tree_reduce /
// tree_combine below: partial sums are accumulated into kReduceLanes
// virtual lanes (element i of a chunk goes to lane (i - lo) % kReduceLanes
// in ascending order) and combined with one fixed binary tree. Because
// every supported width divides kReduceLanes, the per-lane addition
// chains and the final combine are IDENTICAL for every width — including
// width 1 — so kernel bits equal the width-1 spelling at every
// CPX_THREADS setting. There is deliberately no lane-order horizontal
// sum: its rounding would change with the width.
//
// FP contract note: fma() and all kernel code spell multiply-add as
// `a * b + c` in both the pack and the scalar paths. The default build
// targets baseline x86-64 / no FMA ISA, so no contraction happens and
// scalar and pack paths round identically; a toolchain that contracts
// would contract both paths alike, and the width-1 reference tests would
// flag any divergence.

#include <cmath>
#include <cstdint>
#include <cstring>

namespace cpx::support::simd {

/// The pack width every kernel runs (doubles per pack) and the virtual-
/// lane count of the deterministic reduction tier. Equal on purpose: every
/// supported width divides kReduceLanes, so lane assignment is
/// width-invariant.
inline constexpr int kWidth = 8;
inline constexpr int kReduceLanes = 8;

/// The compiled pack width, as cpxbench reports it.
constexpr int active_width() { return kWidth; }

#if defined(__GNUC__) || defined(__clang__)
#define CPX_PACK_VECTOR_EXT 1
namespace detail {
template <int W>
struct VecOf;
template <>
struct VecOf<1> {
  typedef double type __attribute__((vector_size(8)));
};
template <>
struct VecOf<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct VecOf<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct VecOf<8> {
  typedef double type __attribute__((vector_size(64)));
};
}  // namespace detail
#endif

/// Fixed-width pack of W doubles. Loads/stores are memcpy-based, so they
/// are valid (and UBSan-clean) at ANY source alignment; aligned_vector
/// storage makes them fast, not correct.
template <int W>
struct pack {
  static_assert(W == 1 || W == 2 || W == 4 || W == 8,
                "pack width must be 1, 2, 4 or 8");

#if defined(CPX_PACK_VECTOR_EXT)
  using vec = typename detail::VecOf<W>::type;
  vec v;
#else
  double v[W];
#endif

  static pack broadcast(double x) {
    pack r;
    for (int j = 0; j < W; ++j) {
      r.v[j] = x;
    }
    return r;
  }

  static pack zero() { return broadcast(0.0); }

  static pack load(const double* p) {
    pack r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  void store(double* p) const { std::memcpy(p, &v, sizeof(v)); }

  /// Masked load of the first n lanes (n < W); remaining lanes are 0.
  static pack load_partial(const double* p, int n) {
    pack r = zero();
    for (int j = 0; j < n && j < W; ++j) {
      r.v[j] = p[j];
    }
    return r;
  }

  /// Masked store of the first n lanes (n < W).
  void store_partial(double* p, int n) const {
    for (int j = 0; j < n && j < W; ++j) {
      p[j] = v[j];
    }
  }

  /// Indexed gather: lane j reads base[idx[j]].
  template <typename Index>
  static pack gather(const double* base, const Index* idx) {
    pack r;
    for (int j = 0; j < W; ++j) {
      r.v[j] = base[idx[j]];
    }
    return r;
  }

  double operator[](int lane) const { return v[lane]; }

  // Operands pass by const reference: over-aligned vector types passed
  // by value trip GCC's psABI notes on baseline targets.
#if defined(CPX_PACK_VECTOR_EXT)
  friend pack operator+(const pack& a, const pack& b) {
    pack r;
    r.v = a.v + b.v;
    return r;
  }
  friend pack operator-(const pack& a, const pack& b) {
    pack r;
    r.v = a.v - b.v;
    return r;
  }
  friend pack operator*(const pack& a, const pack& b) {
    pack r;
    r.v = a.v * b.v;
    return r;
  }
  friend pack operator/(const pack& a, const pack& b) {
    pack r;
    r.v = a.v / b.v;
    return r;
  }
#else
  friend pack operator+(const pack& a, const pack& b) {
    pack r;
    for (int j = 0; j < W; ++j) {
      r.v[j] = a.v[j] + b.v[j];
    }
    return r;
  }
  friend pack operator-(const pack& a, const pack& b) {
    pack r;
    for (int j = 0; j < W; ++j) {
      r.v[j] = a.v[j] - b.v[j];
    }
    return r;
  }
  friend pack operator*(const pack& a, const pack& b) {
    pack r;
    for (int j = 0; j < W; ++j) {
      r.v[j] = a.v[j] * b.v[j];
    }
    return r;
  }
  friend pack operator/(const pack& a, const pack& b) {
    pack r;
    for (int j = 0; j < W; ++j) {
      r.v[j] = a.v[j] / b.v[j];
    }
    return r;
  }
#endif
};

/// Lane-wise |x|, bit-identical to std::abs applied per lane.
template <int W>
inline pack<W> abs(const pack<W>& a) {
  pack<W> r;
  for (int j = 0; j < W; ++j) {
    r.v[j] = std::abs(a.v[j]);
  }
  return r;
}

/// Multiply-add, deliberately spelled mul-then-add (see header note on
/// contraction) so the pack and scalar paths round identically.
template <int W>
inline pack<W> fma(const pack<W>& a, const pack<W>& b, const pack<W>& c) {
  return a * b + c;
}

/// The one fixed combine tree of the deterministic reduction tier:
/// ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7)). Never reassociate.
inline double tree_combine(const double (&l)[kReduceLanes]) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// Width-invariant chunk-local reduction over [lo, hi):
///
///   * element i contributes to virtual lane (i - lo) % kReduceLanes, in
///     ascending i order within its lane;
///   * lanes are combined with tree_combine.
///
/// pack_term(i) returns the W term values for elements [i, i+W) as a
/// pack (it may also perform elementwise side effects, e.g. the fused
/// axpy store); scalar_term(i) returns the term for one tail element and
/// must spell the SAME arithmetic expression. Because W divides
/// kReduceLanes, pack p's lane j IS virtual lane p*W+j and the per-lane
/// addition chains match the width-1 instantiation bit for bit.
template <int W, typename PackTerm, typename ScalarTerm>
inline double tree_reduce(std::int64_t lo, std::int64_t hi,
                          PackTerm&& pack_term, ScalarTerm&& scalar_term) {
  constexpr int kPacks = kReduceLanes / W;
  pack<W> acc[kPacks];
  for (int p = 0; p < kPacks; ++p) {
    acc[p] = pack<W>::zero();
  }
  std::int64_t i = lo;
  for (; i + kReduceLanes <= hi; i += kReduceLanes) {
    for (int p = 0; p < kPacks; ++p) {
      acc[p] = acc[p] + pack_term(i + p * W);
    }
  }
  double lanes[kReduceLanes];
  for (int p = 0; p < kPacks; ++p) {
    for (int j = 0; j < W; ++j) {
      lanes[p * W + j] = acc[p][j];
    }
  }
  for (; i < hi; ++i) {
    lanes[(i - lo) % kReduceLanes] += scalar_term(i);
  }
  return tree_combine(lanes);
}

}  // namespace cpx::support::simd
