// Allocation-count regression for the coupled workflow's warm path: once
// a first density step has interned every region, bound every instance to
// the cluster (exchange schedules, per-rank compute seconds) and sized
// every scratch buffer, a further CoupledSimulation::run(1) must perform
// ZERO heap allocations — with split-phase overlap off and on. Enforced by
// replacing global operator new/delete with counting versions, exactly
// like tests/solver_alloc_test.cpp. It also proves that reshaping a
// virtual cluster to no more ranks than it has held allocates nothing.
//
// This file must stay a standalone test binary: the global operator
// new/delete replacement below applies to the whole process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"

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

namespace cpx::workflow {
namespace {

/// Allocations performed by fn().
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  fn();
  return g_allocation_count.load(std::memory_order_relaxed) - before;
}

/// A small allocation of the Fig 9 case with the thermal casing: every
/// app kind (MG-CFD rows, the SIMPIC combustor proxy, the thermal casing)
/// and every coupler kind (sliding planes each step, steady interfaces
/// every 20 and 50 steps), spread over several 128-core nodes.
RankAssignment small_assignment(const EngineCase& ec) {
  RankAssignment ra;
  for (const InstanceSpec& spec : ec.instances) {
    ra.app_ranks.push_back(spec.kind == AppKind::kSimpic    ? 96
                           : spec.kind == AppKind::kThermal ? 12
                                                            : 24);
  }
  ra.cu_ranks.assign(ec.couplers.size(), 2);
  return ra;
}

void expect_warm_steps_allocate_nothing(bool overlap) {
  const EngineCase ec = hpc_combustor_hpt_with_casing(true);
  CoupledSimulation sim(ec, sim::MachineModel::archer2(),
                        small_assignment(ec));
  sim.set_overlap_enabled(overlap);
  sim.run(1);  // warm-up: step 0 fires every coupler once

  // Cover both steady cadences (20 and 50 density steps).
  constexpr int kSteps = 60;
  std::size_t total = 0;
  std::size_t worst = 0;
  int worst_step = -1;
  for (int s = 0; s < kSteps; ++s) {
    const std::size_t allocs = allocations_during([&] { sim.run(1); });
    total += allocs;
    if (allocs > worst) {
      worst = allocs;
      worst_step = sim.density_steps_run() - 1;
    }
  }
  EXPECT_EQ(total, 0u) << "overlap=" << overlap << ": " << kSteps
                       << " warm run(1) calls made " << total
                       << " heap allocations (worst: " << worst
                       << " in step " << worst_step << ")";
}

TEST(WorkflowAllocations, WarmDensityStepAllocatesNothing) {
  expect_warm_steps_allocate_nothing(/*overlap=*/false);
}

TEST(WorkflowAllocations, WarmOverlappedDensityStepAllocatesNothing) {
  expect_warm_steps_allocate_nothing(/*overlap=*/true);
}

TEST(WorkflowAllocations, ReshapingToFewerRanksAllocatesNothing) {
  // A perfmodel sweep visits its largest core count first, so every later
  // reshape fits in the memory the cluster already holds.
  sim::Cluster cluster(sim::MachineModel::archer2(), 4096);
  cluster.enable_tracing();
  const sim::RegionId region = cluster.region("x");
  cluster.compute_seconds({0, 4096}, 1e-3, region);
  for (const int ranks : {4096, 1000, 2500, 1, 4000}) {
    EXPECT_EQ(allocations_during([&] { cluster.reshape(ranks); }), 0u)
        << ranks << " ranks";
    cluster.compute_seconds({0, ranks}, 1e-3, region);
  }
}

}  // namespace
}  // namespace cpx::workflow
