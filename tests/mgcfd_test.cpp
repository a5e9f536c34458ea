// Tests for the MG-CFD proxy: real Euler finite-volume numerics (free-
// stream preservation, conservation, positivity, multigrid convergence)
// and the performance instance (measured-vs-analytic agreement, scaling
// shape on the virtual cluster, the charges of its halo-overlap mode).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "mesh/partition.hpp"
#include "mgcfd/distributed.hpp"
#include "mgcfd/euler.hpp"
#include "mgcfd/flux.hpp"
#include "mgcfd/instance.hpp"
#include "perfmodel/sweep.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::mgcfd {
namespace {

TEST(Euler, PressureAndSoundSpeed) {
  const State u = freestream(0.5, 1.0, 1.0);
  EXPECT_NEAR(pressure(u), 1.0, 1e-12);
  EXPECT_NEAR(sound_speed(u), std::sqrt(1.4), 1e-12);
}

std::size_t differing_bits(const State& a, const State& b) {
  std::size_t n = 0;
  for (int k = 0; k < 5; ++k) {
    n += std::bit_cast<std::uint64_t>(a[k]) !=
         std::bit_cast<std::uint64_t>(b[k]);
  }
  return n;
}

TEST(Flux, PrimitiveFormMatchesStateForm) {
  // The kernel reads cached primitives; built instead from pressure() and
  // sound_speed() per call (the state form), every flux must carry the
  // same bits. A third of the states have p <= 0, which exercises the
  // sound speed's max(p, 1e-300) clamp.
  const auto ref_physical_flux = [](const State& u, const mesh::Vec3& n) {
    const double rho = u[0];
    const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / rho;
    const double p = pressure(u);
    return State{rho * vn, u[1] * vn + p * n.x, u[2] * vn + p * n.y,
                 u[3] * vn + p * n.z, (u[4] + p) * vn};
  };
  const auto ref_normal_speed = [](const State& u, const mesh::Vec3& n) {
    const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / u[0];
    return std::abs(vn) + sound_speed(u);
  };
  Rng rng(17);
  const auto random_state = [&rng](bool nonpositive_pressure) {
    State u;
    u[0] = rng.uniform(0.1, 3.0);
    for (int k = 1; k < 4; ++k) {
      u[k] = rng.uniform(-2.0, 2.0);
    }
    const double ke = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
    u[4] = nonpositive_pressure ? ke * rng.uniform(0.0, 1.0)
                                : ke + rng.uniform(0.1, 5.0);
    return u;
  };
  int clamped = 0;
  for (int i = 0; i < 3000; ++i) {
    const State ua = random_state(i % 3 == 0);
    const State ub = random_state(i % 5 == 0);
    const mesh::Vec3 n{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
    const double dissipation = rng.uniform(0.5, 1.5);
    const Primitives wa = primitives(ua);
    const Primitives wb = primitives(ub);
    clamped += pressure(ua) <= 0.0;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wa.p),
              std::bit_cast<std::uint64_t>(pressure(ua)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wa.c),
              std::bit_cast<std::uint64_t>(sound_speed(ua)));
    const State fa = ref_physical_flux(ua, n);
    const State fb = ref_physical_flux(ub, n);
    ASSERT_EQ(differing_bits(physical_flux(ua, wa, n), fa), 0U);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(normal_speed(ua, wa, n)),
              std::bit_cast<std::uint64_t>(ref_normal_speed(ua, n)));
    const double smax = std::max(ref_normal_speed(ua, n),
                                 ref_normal_speed(ub, n));
    State want;
    for (int k = 0; k < 5; ++k) {
      want[k] = 0.5 * (fa[k] + fb[k]) -
                0.5 * dissipation * smax * (ub[k] - ua[k]);
    }
    ASSERT_EQ(differing_bits(rusanov_flux(ua, wa, ub, wb, n, dissipation),
                             want),
              0U)
        << "state " << i;
  }
  EXPECT_EQ(clamped, 1000);
}

TEST(Euler, FreestreamIsExactFixedPoint) {
  // Rusanov flux of two identical states along any normal cancels in the
  // residual: a uniform flow must not change at all.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  EulerOptions opt;
  opt.mg_levels = 1;
  EulerSolver solver(m, opt);
  const State inf = freestream(0.5);
  solver.set_uniform(inf);
  const double res = solver.run(5);
  EXPECT_LT(res, 1e-12);
  for (const State& u : solver.solution()) {
    for (int k = 0; k < 5; ++k) {
      EXPECT_NEAR(u[k], inf[k], 1e-12);
    }
  }
}

TEST(Euler, MassIsConservedOnPeriodicMesh) {
  // The flux form is antisymmetric per edge, so on a boundary-free
  // (periodic) mesh total mass is conserved to round-off.
  const mesh::UnstructuredMesh m =
      mesh::make_box_mesh(5, 5, 5, 42, /*periodic=*/true);
  EulerOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 0.3;
  opt.local_time_stepping = false;  // conservation needs a global dt
  EulerSolver solver(m, opt);
  solver.set_uniform(freestream(0.3));
  // Perturb a few cells.
  auto& u = solver.mutable_solution();
  u[10][0] *= 1.05;
  u[40][4] *= 1.02;
  const double mass0 = solver.total_mass();
  solver.run(20);
  EXPECT_NEAR(solver.total_mass(), mass0, 1e-9 * mass0);
}

TEST(Euler, PerturbationDecaysTowardsUniform) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  EulerOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 0.4;
  EulerSolver solver(m, opt);
  solver.set_uniform(freestream(0.4));
  auto& u = solver.mutable_solution();
  for (std::size_t c = 0; c < u.size(); c += 7) {
    u[c][0] *= 1.03;  // density bumps
  }
  std::vector<State> res(u.size());
  solver.compute_residual(0, res);
  double norm0 = 0.0;
  for (const State& r : res) {
    for (double v : r) {
      norm0 += v * v;
    }
  }
  const double final_res = solver.run(200);
  EXPECT_LT(final_res * final_res, 0.25 * norm0);
}

TEST(Euler, DensityStaysPositive) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(5, 5, 5);
  EulerOptions opt;
  opt.mg_levels = 2;
  opt.cfl = 0.8;
  EulerSolver solver(m, opt);
  solver.set_uniform(freestream(0.8));
  auto& u = solver.mutable_solution();
  u[0][0] = 0.1;  // strong density dip
  solver.run(50);
  for (const State& s : solver.solution()) {
    EXPECT_GT(s[0], 0.0);
    EXPECT_GT(pressure(s), 0.0);
  }
}

TEST(Euler, MultigridConvergesFasterPerSweepBudget) {
  // A V-cycle does ~1.875x the fine-sweep work of a plain step but damps
  // long-wavelength error far better; compare residual at equal cycles.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(12, 12, 4);
  EulerOptions single;
  single.mg_levels = 1;
  EulerOptions multi;
  multi.mg_levels = 3;
  EulerSolver s1(m, single);
  EulerSolver s3(m, multi);
  const State inf = freestream(0.4);
  s1.set_uniform(inf);
  s3.set_uniform(inf);
  // Long-wavelength density perturbation (hard for a single grid).
  for (EulerSolver* s : {&s1, &s3}) {
    auto& u = s->mutable_solution();
    for (std::int64_t c = 0; c < m.num_cells(); ++c) {
      const double x = m.centroids()[static_cast<std::size_t>(c)].x;
      u[static_cast<std::size_t>(c)][0] =
          inf[0] * (1.0 + 0.05 * std::sin(x / 12.0 * 3.14159));
    }
  }
  const double r1 = s1.run(30);
  const double r3 = s3.run(30);
  EXPECT_LT(r3, r1);
}

TEST(Instance, AnalyticMatchesMeasuredModeAtSmallScale) {
  // Build the same nominal problem both ways and compare per-step virtual
  // time: the analytic partition statistics must track a real RCB
  // partitioning within a modest tolerance.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(40, 40, 25);
  const int p = 16;
  const mesh::Partitioning part = mesh::partition_rcb(m, p);

  sim::Cluster c1(sim::MachineModel::archer2(), p);
  Instance measured("measured", m, part, {0, p});
  measured.step(c1);
  const double t_measured = c1.max_clock();

  sim::Cluster c2(sim::MachineModel::archer2(), p);
  Instance analytic("analytic", m.num_cells(), {0, p});
  analytic.step(c2);
  const double t_analytic = c2.max_clock();

  EXPECT_NEAR(t_analytic, t_measured, 0.2 * t_measured);
}

TEST(Instance, StepTimeScalesDownWithRanks) {
  auto machine = sim::MachineModel::archer2();
  const std::vector<int> cores = {100, 400, 1600};
  const auto pts = perfmodel::measure_scaling(
      [](sim::RankRange r) {
        return std::make_unique<Instance>("m", 24'000'000, r);
      },
      machine, cores, 2);
  EXPECT_GT(pts[0].seconds, pts[1].seconds);
  EXPECT_GT(pts[1].seconds, pts[2].seconds);
  // Strong scaling is good but not perfect at this size.
  const double pe = (pts[0].seconds * 100.0) / (pts[2].seconds * 1600.0);
  EXPECT_GT(pe, 0.55);
  EXPECT_LT(pe, 1.01);
}

TEST(Instance, LargerMeshTakesProportionallyLonger) {
  auto machine = sim::MachineModel::archer2();
  sim::Cluster ca(machine, 200);
  sim::Cluster cb(machine, 200);
  Instance small("s", 24'000'000, {0, 200});
  Instance large("l", 150'000'000, {0, 200});
  small.step(ca);
  large.step(cb);
  const double ratio = cb.max_clock() / ca.max_clock();
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 8.0);  // 150/24 = 6.25 plus surface effects
}

TEST(Instance, ProfileSplitsComputeAndComm) {
  sim::Cluster c(sim::MachineModel::archer2(), 64);
  Instance inst("row", 8'000'000, {0, 64});
  inst.step(c);
  const sim::RegionId flux = c.profile().find_region("row/flux");
  const sim::RegionId halo = c.profile().find_region("row/halo");
  ASSERT_GE(flux, 0);
  ASSERT_GE(halo, 0);
  EXPECT_GT(c.profile().mean_over_ranks(flux, 0, 64).compute, 0.0);
  EXPECT_GT(c.profile().mean_over_ranks(halo, 0, 64).comm, 0.0);
}

TEST(Instance, OverlapPlacesTheSameFluxComputeAndNeverSlowsTheStep) {
  // Overlap is modelled on the performance instance alone: the split-phase
  // step charges each rank's interior share of the sweeps inside the halo
  // window and the boundary share after it. Both modes charge each rank
  // the same flux compute; only the overlapped one hides comm time, and
  // its schedule is never slower than the synchronous one.
  struct Machine {
    const char* label;
    sim::MachineModel model;
  };
  for (const Machine& machine :
       {Machine{"archer2", sim::MachineModel::archer2()},
        Machine{"slow_network", sim::MachineModel::slow_network()}}) {
    for (const std::int64_t cells :
         {std::int64_t{2'000'000}, std::int64_t{24'000'000},
          std::int64_t{150'000'000}}) {
      for (const int p : {16, 128, 512, 2048}) {
        sim::Cluster sync(machine.model, p);
        sim::Cluster over(machine.model, p);
        Instance sync_row("row", cells, {0, p});
        Instance over_row("row", cells, {0, p});
        over_row.set_overlap(true);
        for (int s = 0; s < 2; ++s) {
          sync_row.step(sync);
          over_row.step(over);
        }
        const std::string where = std::string(machine.label) + " cells=" +
                                  std::to_string(cells) +
                                  " ranks=" + std::to_string(p);
        const sim::RegionId sync_flux = sync.profile().find_region("row/flux");
        const sim::RegionId over_flux = over.profile().find_region("row/flux");
        ASSERT_GE(sync_flux, 0);
        ASSERT_GE(over_flux, 0);
        for (sim::Rank r = 0; r < p; ++r) {
          const double want = sync.profile().rank_region(r, sync_flux).compute;
          const double got = over.profile().rank_region(r, over_flux).compute;
          ASSERT_GT(want, 0.0) << where << " rank " << r;
          ASSERT_NEAR(got, want, 1e-12 * want) << where << " rank " << r;
        }
        const sim::RankRange ranks{0, p};
        EXPECT_EQ(sync.comm_hidden_seconds(ranks), 0.0) << where;
        EXPECT_GT(over.comm_hidden_seconds(ranks), 0.0) << where;
        EXPECT_LE(over.max_clock(), sync.max_clock()) << where;
      }
    }
  }
}

TEST(Euler, Rk3StableWhereForwardEulerIsNot) {
  // SSP-RK3's stability region covers CFL numbers where the single-stage
  // scheme diverges: after the same number of steps from a perturbed
  // state, RK3's residual keeps shrinking while forward Euler's grows
  // until its density stops being finite, which run() reports as NaN.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  const auto run_with = [&](TimeIntegration integration) {
    EulerOptions opt;
    opt.mg_levels = 1;
    opt.cfl = 3.0;  // beyond forward Euler's stability limit, inside RK3's
    opt.integration = integration;
    EulerSolver solver(m, opt);
    solver.set_uniform(freestream(0.5));
    auto& u = solver.mutable_solution();
    for (std::size_t c = 0; c < u.size(); c += 5) {
      u[c][0] *= 1.02;
    }
    const double first = solver.run(1);
    const double last = solver.run(60);
    return last / first;
  };
  EXPECT_LT(run_with(TimeIntegration::kSsprk3), 0.5);
  const double fe = run_with(TimeIntegration::kForwardEuler);
  EXPECT_FALSE(fe < 1.0);  // diverged: grows or becomes NaN
  EXPECT_TRUE(std::isnan(fe));
}

TEST(Euler, Rk3PreservesFreestreamExactly) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(5, 5, 5);
  EulerOptions opt;
  opt.mg_levels = 1;
  opt.integration = TimeIntegration::kSsprk3;
  EulerSolver solver(m, opt);
  const State inf = freestream(0.4);
  solver.set_uniform(inf);
  solver.run(5);
  for (const State& u : solver.solution()) {
    for (int k = 0; k < 5; ++k) {
      EXPECT_NEAR(u[k], inf[k], 1e-12);
    }
  }
}

class DistributedVsSequential : public ::testing::TestWithParam<int> {};

TEST_P(DistributedVsSequential, SameSolutionAsSequential) {
  // The partitioned solver with real halo exchange must reproduce the
  // sequential solver's solution bit for bit: both solvers evaluate the
  // shared flux kernel (mgcfd/flux.hpp) and every cell sums its edges in
  // ascending edge order. The returned norms are not compared: the
  // allreduce combines per-rank partial sums.
  const int parts = GetParam();
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 0.5;

  EulerSolver seq(m, opt);
  const State inf = freestream(0.4);
  seq.set_uniform(inf);
  State bump = inf;
  bump[0] *= 1.05;
  seq.mutable_solution()[100] = bump;
  seq.run(15);
  const auto& want = seq.solution();

  DistributedSolver dist(m, parts, opt);
  dist.set_uniform(inf);
  dist.set_cell(100, bump);  // the same perturbation
  dist.run(15);
  const auto got = dist.gather_solution();
  ASSERT_EQ(got.size(), want.size());
  std::size_t differing = 0;
  for (std::size_t c = 0; c < want.size(); ++c) {
    differing += differing_bits(got[c], want[c]);
  }
  EXPECT_EQ(differing, 0U) << "parts=" << parts;
}

TEST_P(DistributedVsSequential, DivergenceReturnsNaN) {
  // Divergence is a defined outcome of the distributed step too: the step
  // whose update leaves a non-finite density returns NaN (the same step
  // as the sequential solver's), run() stops there, and a further step's
  // primitive refresh flags the state and returns NaN before a flux reads
  // it, with no DCHECK tripped. With a cluster attached, a diverged step
  // leaves the virtual clock finite and stepping again does not throw.
  // Forward Euler at CFL 3 diverges (Euler.Rk3StableWhereForwardEulerIsNot).
  const int parts = GetParam();
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 3.0;
  const State inf = freestream(0.5);
  EulerSolver seq(m, opt);
  seq.set_uniform(inf);
  for (std::size_t c = 0; c < seq.solution().size(); c += 5) {
    seq.mutable_solution()[c][0] *= 1.02;
  }
  const State start = seq.solution()[0];
  int seq_steps = 0;
  while (seq_steps < 200 && !std::isnan(seq.run(1))) {
    ++seq_steps;
  }
  ASSERT_LT(seq_steps, 200) << "the sequential run did not diverge";

  for (const bool with_cluster : {false, true}) {
    DistributedSolver dist(m, parts, opt);
    sim::Cluster cluster(sim::MachineModel::archer2(), parts);
    if (with_cluster) {
      dist.attach_cluster(&cluster);
    }
    dist.set_uniform(inf);
    for (mesh::CellId c = 0; c < m.num_cells(); c += 5) {
      dist.set_cell(c, start);
    }
    int steps = 0;
    while (steps < 200 && !std::isnan(dist.step())) {
      ++steps;
    }
    EXPECT_EQ(steps, seq_steps)
        << "parts=" << parts << " cluster=" << with_cluster;
    // Stepping again neither throws nor leaves a non-finite clock.
    for (int again = 0; again < 2; ++again) {
      EXPECT_TRUE(std::isnan(dist.step()));
    }
    EXPECT_TRUE(std::isnan(dist.run(3)));
    EXPECT_TRUE(std::isfinite(cluster.max_clock()));
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, DistributedVsSequential,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Distributed, HaloBytesMatchCutSurface) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(10, 10, 10);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  // Halo traffic equals the total send-list size times the state size,
  // reported through the shared comm/bytes accounting (the plan knows the
  // per-step payload; the communicator counts what actually moved).
  EXPECT_GT(dist.halo_bytes_per_exchange(), 0u);
  EXPECT_EQ(dist.halo_bytes_per_exchange() % sizeof(State), 0u);
  const std::int64_t before = dist.comm_stats().bytes;
  dist.step();
  const std::int64_t moved = dist.comm_stats().bytes - before;
  // One step = one halo exchange plus the 8-byte-per-rank allreduce.
  EXPECT_EQ(moved, static_cast<std::int64_t>(dist.halo_bytes_per_exchange()) +
                       4 * static_cast<std::int64_t>(sizeof(double)));
  // A single part exchanges no halo payload (only its allreduce entry).
  DistributedSolver solo(m, 1, opt);
  solo.set_uniform(freestream(0.3));
  solo.step();
  EXPECT_EQ(solo.halo_bytes_per_exchange(), 0u);
  EXPECT_EQ(solo.comm_stats().bytes,
            static_cast<std::int64_t>(sizeof(double)));
}

TEST(Distributed, CoSimulationChargesTheCluster) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(10, 10, 10);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  dist.attach_cluster(&cluster);
  dist.run(3);
  EXPECT_GT(cluster.max_clock(), 0.0);
  const sim::RegionId halo = cluster.profile().find_region("dist_mgcfd/halo");
  ASSERT_GE(halo, 0);
  EXPECT_GT(cluster.profile().mean_over_ranks(halo, 0, 4).comm, 0.0);
}

TEST(Distributed, FreestreamFixedPointSurvivesPartitioning) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  EulerOptions opt;
  DistributedSolver dist(m, 5, opt);
  const State inf = freestream(0.6);
  dist.set_uniform(inf);
  const double res = dist.run(5);
  EXPECT_LT(res, 1e-12);
}

TEST(Distributed, SolutionIsPinnedBitwise) {
  // The distributed solution is an output that must never move: a density
  // and energy pulse on a small annulus row, 4 parts, 10 steps, with a
  // co-simulating cluster attached, which pins the virtual clock, each
  // rank's halo comm time and the bound schedule's traffic too.
  const mesh::UnstructuredMesh m =
      mesh::make_annulus_mesh(6, 24, 8, 1.0, 2.0, 30.0, 1.0, 5);
  EulerOptions opt;
  opt.mg_levels = 1;
  opt.cfl = 0.4;
  const State inf = freestream(0.4, 1.0, 1.0, {0, 0, 1});
  constexpr std::uint64_t kSolutionDigest = 0x7557f84be2e41fbfULL;
  constexpr std::uint64_t kClockBits = 0x3f46f7212a5c02d3ULL;
  constexpr std::uint64_t kHaloCommBits[] = {
      0x3eff75104d551d5eULL, 0x3eff75104d551d5eULL, 0x3f0040bfe3b03e37ULL,
      0x3f02ca5d05ea7ab3ULL};
  DistributedSolver dist(m, 4, opt);
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  dist.attach_cluster(&cluster);
  dist.set_uniform(inf);
  for (mesh::CellId c = 0; c < m.num_cells(); c += 7) {
    State bumped = inf;
    bumped[0] *= 1.08;
    bumped[4] *= 1.08;
    dist.set_cell(c, bumped);
  }
  dist.run(10);
  std::uint64_t h = 0;
  for (const State& u : dist.gather_solution()) {
    for (const double v : u) {
      h = hash_mix(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  EXPECT_EQ(h, kSolutionDigest);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cluster.max_clock()), kClockBits);
  const sim::RegionId halo = cluster.profile().find_region("dist_mgcfd/halo");
  ASSERT_GE(halo, 0);
  for (sim::Rank r = 0; r < 4; ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  cluster.profile().rank_region(r, halo).comm),
              kHaloCommBits[r])
        << "rank " << r;
  }
  EXPECT_EQ(cluster.comm_bytes({0, 4}), 233520u);
  EXPECT_EQ(cluster.comm_messages({0, 4}), 160);
}

/// Everything one cluster was charged, compared bit for bit.
void expect_same_charges(const sim::Cluster& a, const sim::Cluster& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_EQ(a.profile().num_regions(), b.profile().num_regions());
  for (sim::Rank r = 0; r < a.num_ranks(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.clock(r)),
              std::bit_cast<std::uint64_t>(b.clock(r)))
        << "rank " << r;
    EXPECT_EQ(a.comm_bytes(r), b.comm_bytes(r)) << "rank " << r;
    EXPECT_EQ(a.comm_messages(r), b.comm_messages(r)) << "rank " << r;
    const auto regions = static_cast<sim::RegionId>(a.profile().num_regions());
    for (sim::RegionId g = 0; g < regions; ++g) {
      const sim::RegionTimes ta = a.profile().rank_region(r, g);
      const sim::RegionTimes tb = b.profile().rank_region(r, g);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ta.comm),
                std::bit_cast<std::uint64_t>(tb.comm))
          << "rank " << r << " region " << g;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ta.compute),
                std::bit_cast<std::uint64_t>(tb.compute))
          << "rank " << r << " region " << g;
    }
  }
}

TEST(Distributed, ReattachingRebindsTheHaloSchedule) {
  // The halo schedule is valid only on the cluster that built it, so a
  // re-attach rebinds it: a step on B after a step on A charges B exactly
  // what a solver only ever attached to B is charged. A step charges the
  // same whatever the state, and a detached step charges nothing.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster a(sim::MachineModel::archer2(), 6);
  sim::Cluster b(sim::MachineModel::slow_network(), 4);
  dist.attach_cluster(&a);
  dist.step();
  dist.attach_cluster(&b);
  EXPECT_NO_THROW(dist.step());
  dist.attach_cluster(nullptr);
  dist.step();
  EXPECT_GT(b.max_clock(), 0.0);

  DistributedSolver only_b(m, 4, opt);
  only_b.set_uniform(freestream(0.3));
  sim::Cluster b_ref(sim::MachineModel::slow_network(), 4);
  only_b.attach_cluster(&b_ref);
  only_b.step();
  expect_same_charges(b, b_ref);
}

TEST(Distributed, DetachedStepChargesNothing) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  dist.attach_cluster(&cluster);
  dist.step();
  const double clock = cluster.max_clock();
  const std::int64_t messages = cluster.comm_messages({0, 4});
  const std::size_t bytes = cluster.comm_bytes({0, 4});
  EXPECT_GT(messages, 0);
  dist.attach_cluster(nullptr);
  EXPECT_NO_THROW(dist.step());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cluster.max_clock()),
            std::bit_cast<std::uint64_t>(clock));
  EXPECT_EQ(cluster.comm_messages({0, 4}), messages);
  EXPECT_EQ(cluster.comm_bytes({0, 4}), bytes);
}

TEST(Distributed, TooSmallClusterIsRefusedAndLeavesTheSolverDetached) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster small(sim::MachineModel::archer2(), 2);
  EXPECT_THROW(dist.attach_cluster(&small), CheckError);
  EXPECT_NO_THROW(dist.step());
  EXPECT_EQ(small.max_clock(), 0.0);
  EXPECT_EQ(small.comm_messages({0, 2}), 0);
  EXPECT_EQ(small.comm_bytes({0, 2}), 0u);
}

TEST(Instance, RejectsBadConstruction) {
  EXPECT_THROW(Instance("x", 10, {0, 100}), CheckError);
  EXPECT_THROW(Instance("x", 1000, {0, 0}), CheckError);
}

}  // namespace
}  // namespace cpx::mgcfd
