// Allocation-count regression for the checkpoint hot path: the ckpt::Writer
// staging buffer is reused across snapshots (begin() clears but keeps
// capacity), so once a first snapshot has sized it, re-serialising state of
// the same shape must perform ZERO heap allocations. Enforced by replacing
// global operator new/delete with counting versions, exactly like
// tests/solver_alloc_test.cpp.
//
// This file must stay a standalone test binary: the global operator
// new/delete replacement below applies to the whole process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

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

namespace cpx::ckpt {
namespace {

/// Allocations performed by fn().
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  fn();
  return g_allocation_count.load(std::memory_order_relaxed) - before;
}

TEST(CkptAllocations, WarmWriterReuseAllocatesNothing) {
  Writer w;
  const std::vector<double> field(4096, 1.5);
  const std::vector<std::int64_t> ids(512, 7);
  const auto emit = [&] {
    w.begin();
    w.begin_section("sim/cluster");
    w.put_u32(16);
    w.put_f64_span(field);
    w.put_i64_span(ids);
    w.end_section();
    w.begin_section("spray/cloud");
    w.put_u64(123);
    w.put_f64_span(field);
    w.put_str("a-section-name-too-long-for-sso");
    w.end_section();
    w.finish();
  };

  emit();  // warm-up: sizes the staging buffer once
  const std::size_t warm_size = w.bytes().size();
  const std::size_t allocs = allocations_during([&] {
    for (int i = 0; i < 8; ++i) {
      emit();
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "warm snapshot writes made " << allocs << " heap allocations";
  EXPECT_EQ(w.bytes().size(), warm_size);
}

TEST(CkptAllocations, WarmClusterSnapshotAllocatesNothing) {
  cpx::sim::Cluster cluster(cpx::sim::MachineModel::archer2(), 32);
  const auto rgn = cluster.region("warm");
  for (cpx::sim::Rank r = 0; r < 32; ++r) {
    cluster.compute_seconds(r, 0.25, rgn);
  }
  const cpx::sim::Message msg[] = {{0, 17, 4096}};
  cluster.exchange(cluster.make_schedule(msg), rgn);

  Writer w;
  const auto emit = [&] {
    w.begin();
    cluster.serialize(w);
    w.finish();
  };
  emit();  // warm-up
  const std::size_t allocs = allocations_during([&] {
    for (int i = 0; i < 8; ++i) {
      emit();
    }
  });
  EXPECT_EQ(allocs, 0u) << "warm cluster snapshot made " << allocs
                        << " heap allocations";
}

}  // namespace
}  // namespace cpx::ckpt
