// Allocation-count regression for the allocation-free solve path: after a
// warm-up solve sizes every workspace (PcgWorkspace, AMG per-level scratch,
// SpgemmPlan lane accumulators, coarse Cholesky buffers), steady-state
// PCG iterations, multigrid cycles, and numeric re-setup must perform ZERO
// heap allocations. Enforced by replacing global operator new/delete with
// counting versions — any vector growth or hidden temporary inside the hot
// loops shows up as a nonzero delta.
//
// This file must stay a standalone test binary: the global operator
// new/delete replacement below applies to the whole process.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/pcg.hpp"
#include "comm/communicator.hpp"
#include "comm/exchange_plan.hpp"
#include "cpx/unit.hpp"
#include "mesh/mesh.hpp"
#include "mgcfd/distributed.hpp"
#include "mgcfd/instance.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "simpic/distributed.hpp"
#include "simpic/pic.hpp"
#include "sparse/generators.hpp"
#include "spray/instance.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "thermal/instance.hpp"

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

namespace cpx::amg {
namespace {

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

/// Allocations performed by fn().
template <typename Fn>
std::size_t allocations_during(Fn&& fn) {
  const std::size_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  fn();
  return g_allocation_count.load(std::memory_order_relaxed) - before;
}

TEST(SolverAllocations, SteadyStatePcgAndCycleAllocateNothing) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(12, 12, 12);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 1);
  std::vector<double> x(n, 0.0);

  AmgOptions opt;
  AmgHierarchy hierarchy(a, opt);
  const Preconditioner precond = make_amg_preconditioner(hierarchy);
  PcgWorkspace workspace;

  // Warm-up: sizes the PCG workspace and any lazily-sized solver scratch.
  PcgResult warm = pcg(a, x, b, 1e-8, 50, precond, workspace);
  ASSERT_TRUE(warm.converged);

  // Steady state: the same solve again must not touch the heap.
  std::fill(x.begin(), x.end(), 0.0);
  PcgResult res;
  const std::size_t pcg_allocs = allocations_during(
      [&] { res = pcg(a, x, b, 1e-8, 50, precond, workspace); });
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(pcg_allocs, 0u)
      << "steady-state PCG made " << pcg_allocs << " heap allocations";

  // A bare multigrid cycle on the pre-sized hierarchy is allocation-free
  // too (V, plus the W/K scratch paths are covered by their own sizing).
  const std::size_t cycle_allocs =
      allocations_during([&] { hierarchy.cycle(x, b); });
  EXPECT_EQ(cycle_allocs, 0u)
      << "steady-state cycle made " << cycle_allocs << " heap allocations";
}

TEST(SolverAllocations, SteadyStateResetValuesAllocatesNothing) {
  const sparse::CsrMatrix a = sparse::laplacian_3d(10, 10, 10);
  AmgOptions opt;
  AmgHierarchy hierarchy(a, opt);

  // First re-setup warms the SpGEMM plan lane accumulators and the dense
  // Cholesky staging buffers; after that, re-setup is allocation-free.
  hierarchy.reset_values(a);
  const std::size_t resetup_allocs =
      allocations_during([&] { hierarchy.reset_values(a); });
  EXPECT_EQ(resetup_allocs, 0u)
      << "steady-state reset_values made " << resetup_allocs
      << " heap allocations";
}

TEST(SolverAllocations, WAndKCyclesAllocateNothingAfterSetup) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(32, 32);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::vector<double> b = random_vector(n, 2);
  std::vector<double> x(n, 0.0);

  for (const CycleKind kind : {CycleKind::kW, CycleKind::kK}) {
    AmgOptions opt;
    opt.cycle = kind;
    AmgHierarchy hierarchy(a, opt);
    hierarchy.cycle(x, b);  // warm-up (scratch is pre-sized, but be safe)
    const std::size_t allocs =
        allocations_during([&] { hierarchy.cycle(x, b); });
    EXPECT_EQ(allocs, 0u) << "cycle kind "
                          << (kind == CycleKind::kW ? "W" : "K") << " made "
                          << allocs << " heap allocations";
  }
}

TEST(SolverAllocations, WarmExchangePlanExecuteAllocatesNothing) {
  constexpr int kRanks = 8;
  constexpr std::int32_t kSlots = 6;
  auto comm = cpx::comm::Communicator::world(kRanks);
  cpx::comm::ExchangePlan plan;
  for (int r = 0; r < kRanks; ++r) {
    // Bidirectional ring: two channels per rank pair.
    const int next = (r + 1) % kRanks;
    plan.add_channel(r, next, {0, 1}, {kSlots - 2, kSlots - 1});
    plan.add_channel(next, r, {2, 3}, {kSlots - 4, kSlots - 3});
  }
  plan.finalize(sizeof(double));
  std::vector<std::vector<double>> data(
      kRanks, std::vector<double>(kSlots, 1.0));
  const auto rank_data = [&](cpx::comm::Rank r) {
    return std::as_writable_bytes(
        std::span<double>(data[static_cast<std::size_t>(r)]));
  };

  // Warm-up: sizes the plan staging buffers, the communicator's buffer
  // pool, and the transfer log's capacity.
  plan.execute(comm, rank_data);
  comm.clear_transfers();

  const std::size_t allocs = allocations_during([&] {
    for (int i = 0; i < 16; ++i) {
      plan.execute(comm, rank_data);
      comm.clear_transfers();
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "warm plan exchange made " << allocs << " heap allocations";
}

TEST(SolverAllocations, WarmClusterOverlapWindowAllocatesNothing) {
  cpx::sim::Cluster cluster(cpx::sim::MachineModel::archer2(), 16);
  const auto region = cluster.region("overlap");
  std::vector<cpx::sim::Message> msgs;
  for (int r = 0; r < 16; ++r) {
    msgs.push_back({r, (r + 5) % 16, 4096});
  }

  const cpx::sim::ExchangeSchedule schedule = cluster.make_schedule(msgs);
  const std::vector<double> window(16, 1e-6);

  // Warm-up: sizes the arrival buffer.
  cluster.exchange(schedule, region, {});

  const std::size_t allocs = allocations_during([&] {
    for (int i = 0; i < 16; ++i) {
      cluster.exchange(schedule, region, {{0, 16}, window, region});
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "warm overlap window made " << allocs << " heap allocations";
}

TEST(SolverAllocations, WarmMixedSizeExchangesAllocateNothing) {
  // One cluster alternates a small and a large exchange, synchronous and
  // overlapped, scheduled and (synchronous only) by message list: the
  // arrival buffer they share keeps its capacity when the small exchange
  // shrinks it, so after the first round nothing allocates.
  constexpr int kRanks = 300;
  cpx::sim::Cluster cluster(cpx::sim::MachineModel::archer2(), kRanks);
  const auto region = cluster.region("mixed");
  std::vector<cpx::sim::Message> small;
  std::vector<cpx::sim::Message> large;
  for (int r = 0; r < kRanks; ++r) {
    if (r % 30 == 0) {
      small.push_back({r, (r + 131) % kRanks, 512});
    }
    large.push_back({r, (r + 1) % kRanks, 8192});
    large.push_back({r, (r + kRanks - 1) % kRanks, 8192});
  }
  const cpx::sim::ExchangeSchedule small_schedule =
      cluster.make_schedule(small);
  const cpx::sim::ExchangeSchedule large_schedule =
      cluster.make_schedule(large);
  const std::vector<double> window = {1e-6};
  const auto round = [&] {
    for (const auto* msgs : {&small, &large}) {
      cluster.exchange(*msgs, region);
    }
    for (const auto* schedule : {&small_schedule, &large_schedule}) {
      cluster.exchange(*schedule, region);
      cluster.exchange(*schedule, region, {{0, 1}, window, region});
    }
  };

  round();  // sizes the scratch schedule and the arrival buffer
  const std::size_t allocs = allocations_during([&] {
    for (int i = 0; i < 8; ++i) {
      round();
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "warm mixed-size exchanges made " << allocs << " heap allocations";
}

// Regression for a gap the call-graph-aware analyzer (tools/cpxcheck rule
// `solve-alloc`) found and the per-file lint could not: parallel_reduce
// heap-allocated a fresh partials vector on every call once a range
// exceeded its 512-chunk stack buffer, i.e. every BLAS-1 reduction on a
// long-enough vector allocated on the solve path. The partials buffer is
// now persistent per-thread scratch: after one warm call, wide reductions
// are allocation-free.
TEST(SolverAllocations, WideParallelReduceAllocatesNothingWhenWarm) {
  constexpr std::int64_t kN = 1 << 20;
  constexpr std::int64_t kGrain = 256;  // ~4096 chunks >> 512 stack slots
  std::vector<double> v(static_cast<std::size_t>(kN), 0.5);

  const auto sum_chunks = [&](std::int64_t lo, std::int64_t hi) {
    double s = 0.0;
    for (std::int64_t i = lo; i < hi; ++i) {
      s += v[static_cast<std::size_t>(i)];
    }
    return s;
  };

  // Warm-up sizes the thread-local partials scratch.
  const double warm =
      support::parallel_reduce(0, kN, kGrain, 0.0, sum_chunks);
  EXPECT_DOUBLE_EQ(warm, 0.5 * static_cast<double>(kN));

  double total = 0.0;
  const std::size_t allocs = allocations_during([&] {
    for (int rep = 0; rep < 4; ++rep) {
      total = support::parallel_reduce(0, kN, kGrain, 0.0, sum_chunks);
    }
  });
  EXPECT_DOUBLE_EQ(total, 0.5 * static_cast<double>(kN));
  EXPECT_EQ(allocs, 0u)
      << "warm wide parallel_reduce made " << allocs << " heap allocations";
}

TEST(SolverAllocations, WarmDistributedEulerStepAllocatesNothing) {
  // A warm DistributedSolver::step() — halo exchange, one ascending edge
  // pass per part, update, residual allreduce — touches no heap, with and
  // without a co-simulating cluster, at pool widths 1 and 4.
  const cpx::mesh::UnstructuredMesh m =
      cpx::mesh::make_annulus_mesh(6, 24, 8, 1.0, 2.0, 30.0, 1.0);
  cpx::mgcfd::EulerOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 0.4;
  const int width = support::max_threads();
  for (const int threads : {1, 4}) {
    support::set_max_threads(threads);
    for (const bool with_cluster : {false, true}) {
      cpx::mgcfd::DistributedSolver dist(m, 4, opt);
      cpx::sim::Cluster cluster(cpx::sim::MachineModel::archer2(), 4);
      if (with_cluster) {
        dist.attach_cluster(&cluster);
      }
      dist.set_uniform(cpx::mgcfd::freestream(0.4, 1.0, 1.0, {0, 0, 1}));
      dist.run(2);  // warm-up: comm buffer pool, transfer log, cluster
      const std::size_t allocs = allocations_during([&] { dist.run(4); });
      EXPECT_EQ(allocs, 0u)
          << "warm DistributedSolver::step made " << allocs
          << " heap allocations (threads=" << threads
          << " cluster=" << with_cluster << ")";
    }
  }
  support::set_max_threads(width);
}

TEST(SolverAllocations, WarmPicStepAllocatesNothing) {
  // A warm simpic::Pic::step() — chunked deposit with its partial grids,
  // field solve, in-place push and, with absorbing walls, the keep flags
  // and in-place compaction — touches no heap, for both boundaries at
  // pool widths 1 and 4. 16,384 particles span two deposit chunks.
  const int width = support::max_threads();
  for (const int threads : {1, 4}) {
    support::set_max_threads(threads);
    for (const auto boundary : {cpx::simpic::Boundary::kPeriodic,
                                cpx::simpic::Boundary::kAbsorbing}) {
      cpx::simpic::PicOptions opts;
      opts.cells = 64;
      opts.boundary = boundary;
      cpx::simpic::Pic pic(opts);
      pic.load_uniform(256, 0.1, 0.05);
      const std::int64_t loaded = pic.num_particles();
      pic.run(2);  // warm-up: deposit partials and keep flags
      const std::size_t allocs = allocations_during([&] { pic.run(4); });
      EXPECT_EQ(allocs, 0u)
          << "warm Pic::step made " << allocs << " heap allocations (threads="
          << threads << " absorbing="
          << (boundary == cpx::simpic::Boundary::kAbsorbing) << ")";
      if (boundary == cpx::simpic::Boundary::kAbsorbing) {
        EXPECT_LT(pic.num_particles(), loaded)
            << "no particle was absorbed, so the compaction never ran";
      } else {
        EXPECT_EQ(pic.num_particles(), loaded);
      }
    }
  }
  support::set_max_threads(width);
}

TEST(SolverAllocations, WarmDistributedPicStepAllocatesNothing) {
  // A warm simpic::DistributedPic::step() — deposit and boundary merge,
  // the pipelined Thomas solve, the push and the particle migration that
  // Communicator::deliver hands to each rank — touches no heap, with and
  // without a co-simulated cluster. A hot plasma migrates particles on
  // every step, so the warm-up already sized the migration packs, the
  // comm buffer pool and the rank arrays.
  for (const bool with_cluster : {false, true}) {
    cpx::simpic::PicOptions opts;
    opts.cells = 64;
    opts.boundary = cpx::simpic::Boundary::kAbsorbing;
    cpx::simpic::DistributedPic dist(opts, 4);
    cpx::sim::Cluster cluster(cpx::sim::MachineModel::archer2(), 4);
    if (with_cluster) {
      dist.attach_cluster(&cluster);
    }
    dist.load_uniform(64, /*v_thermal=*/1.5);
    dist.run(4);  // warm-up, migrating on every step
    std::int64_t migrations = 0;
    const std::size_t allocs = allocations_during([&] {
      for (int s = 0; s < 4; ++s) {
        dist.step();
        migrations += dist.last_migrations();
      }
    });
    EXPECT_GT(migrations, 0) << "no particle migrated while measured";
    EXPECT_EQ(allocs, 0u)
        << "warm DistributedPic::step made " << allocs
        << " heap allocations (cluster=" << with_cluster << ")";
  }
}

TEST(SolverAllocations, WarmBoundInstancesAllocateNothing) {
  // Once bound to a cluster, the analytic instances charge schedules
  // built at bind: a coupler-unit exchange (synchronous and overlapped),
  // each spray strategy and a thermal step touch no heap.
  cpx::sim::Cluster cluster(cpx::sim::MachineModel::archer2(), 600);
  cpx::mgcfd::Instance side_a("a", 8'000'000, {0, 128});
  cpx::mgcfd::Instance side_b("b", 8'000'000, {128, 256});
  cpx::coupler::CouplerUnit cu("cu", {}, {256, 300}, side_a, side_b);
  cpx::spray::InstanceConfig spatial;
  spatial.strategy = cpx::spray::Strategy::kSpatial;
  cpx::spray::InstanceConfig balanced;
  balanced.strategy = cpx::spray::Strategy::kBalanced;
  cpx::spray::InstanceConfig async;
  async.strategy = cpx::spray::Strategy::kAsyncTask;
  cpx::spray::Instance spray_spatial("spatial", spatial, {300, 400});
  cpx::spray::Instance spray_balanced("balanced", balanced, {400, 464});
  cpx::spray::Instance spray_async("async", async, {464, 528});
  cpx::thermal::Instance casing("casing", 1'000'000, {528, 600});
  cpx::sim::App* apps[] = {&spray_spatial, &spray_balanced, &spray_async,
                           &casing};
  const auto round = [&] {
    for (const bool overlap : {false, true}) {
      cu.set_overlap(overlap);
      cu.exchange(cluster);
    }
    for (cpx::sim::App* app : apps) {
      app->step(cluster);
    }
  };

  round();  // binds every instance and sizes the cluster's scratch
  const std::size_t allocs = allocations_during([&] {
    for (int i = 0; i < 4; ++i) {
      round();
    }
  });
  EXPECT_EQ(allocs, 0u) << "warm bound instances made " << allocs
                        << " heap allocations";
}

}  // namespace
}  // namespace cpx::amg
