#pragma once
// 64-byte-aligned storage for the SIMD kernel layer (docs/parallelism.md,
// "SIMD determinism"). Hot SoA arrays — SIMPIC particle/field arrays,
// spray positions, CSR value arrays, blas1/PCG workspaces — are held in
// aligned_vector<T> so simd::pack loads start on cache-line boundaries and
// never straddle a line for any supported lane width. The kernels
// themselves stay correct for arbitrary alignment (pack loads are memcpy
// based), so aligned storage is a performance contract, not a correctness
// one: code handed a plain std::vector still works.

#include <cstddef>
#include <new>
#include <vector>

namespace cpx::support {

/// One cache line; also the widest pack (8 doubles) at natural alignment.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal allocator returning kCacheLineBytes-aligned blocks via the
/// C++17 aligned operator new. Stateless, so all instances are equal and
/// vectors with this allocator move in O(1) like plain std::vector.
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    // The allocator layer is the one sanctioned home for raw allocation:
    // storage obtained here is always owned by a container.
    // cpx-lint: allow(naked-new)
    void* p = ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes});
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t) noexcept {
    // cpx-lint: allow(naked-new)
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

/// std::vector whose data() is 64-byte aligned.
template <typename T>
using aligned_vector = std::vector<T, AlignedAllocator<T>>;

}  // namespace cpx::support
