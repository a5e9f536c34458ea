// Tests for the thermal-casing substrate (§VI extension): physical
// properties of the implicit conduction solver (energy conservation,
// maximum principle, equilibration, steady states with Dirichlet walls and
// sources) and the performance instance's scaling behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "mesh/mesh.hpp"
#include "perfmodel/sweep.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "thermal/instance.hpp"
#include "thermal/solver.hpp"

namespace cpx::thermal {
namespace {

TEST(ThermalSolver, UniformTemperatureIsSteady) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  ThermalSolver solver(m, {});
  solver.set_uniform(300.0);
  solver.run(10);
  for (double t : solver.temperature()) {
    EXPECT_NEAR(t, 300.0, 1e-8);
  }
}

TEST(ThermalSolver, EnergyConservedWithoutSourcesOrWalls) {
  // Pure conduction with no Dirichlet cells: implicit Euler conserves
  // total thermal energy exactly (row sums of K are zero).
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(5, 5, 5);
  ThermalSolver solver(m, {});
  solver.set_uniform(100.0);
  solver.set_cell(31, 500.0);  // hot spot
  const double e0 = solver.total_energy();
  solver.run(20);
  EXPECT_NEAR(solver.total_energy(), e0, 1e-6 * e0);
}

TEST(ThermalSolver, MaximumPrinciple) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(5, 5, 5);
  ThermalSolver solver(m, {});
  solver.set_uniform(100.0);
  solver.set_cell(10, 900.0);
  solver.set_cell(60, 10.0);
  solver.run(30);
  for (double t : solver.temperature()) {
    EXPECT_GE(t, 10.0 - 1e-9);
    EXPECT_LE(t, 900.0 + 1e-9);
  }
}

TEST(ThermalSolver, HotSpotEquilibrates) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  ThermalOptions opt;
  opt.dt = 1.0;
  ThermalSolver solver(m, opt);
  solver.set_uniform(0.0);
  solver.set_cell(0, 216.0);
  solver.run(400);
  // All energy spreads evenly: mean = 216/216 = 1 per unit-volume cell.
  for (double t : solver.temperature()) {
    EXPECT_NEAR(t, 1.0, 0.05);
  }
}

TEST(ThermalSolver, DirichletWallDrivesSteadyGradient) {
  // 1-D rod: x=0 wall hot, x=end wall cold -> linear steady profile.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(20, 1, 1);
  ThermalOptions opt;
  opt.dt = 10.0;
  ThermalSolver solver(m, opt);
  solver.set_uniform(0.0);
  solver.set_cell(0, 100.0);
  solver.fix_cell(0);
  solver.set_cell(19, 0.0);
  solver.fix_cell(19);
  const int steps = solver.solve_steady(1e-8, 500);
  EXPECT_LE(steps, 500);
  const auto& t = solver.temperature();
  // Linear in cell index between the pinned ends.
  for (int i = 1; i < 19; ++i) {
    const double expected = 100.0 * (19.0 - i) / 19.0;
    EXPECT_NEAR(t[static_cast<std::size_t>(i)], expected, 1.5)
        << "cell " << i;
  }
  // Monotone decreasing along the rod.
  for (int i = 0; i < 19; ++i) {
    EXPECT_GE(t[static_cast<std::size_t>(i)],
              t[static_cast<std::size_t>(i) + 1] - 1e-9);
  }
}

TEST(ThermalSolver, SourceBalancesSinkAtSteadyState) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 1);
  ThermalOptions opt;
  opt.dt = 5.0;
  ThermalSolver solver(m, opt);
  solver.set_uniform(0.0);
  solver.fix_cell(0);  // heat sink at T = 0
  solver.set_source(63, 2.0);
  const int steps = solver.solve_steady(1e-9, 1000);
  EXPECT_LE(steps, 1000);
  // With a source and a sink, the source cell is the hottest.
  const auto& t = solver.temperature();
  const double hottest = *std::max_element(t.begin(), t.end());
  EXPECT_DOUBLE_EQ(hottest, t[63]);
  EXPECT_GT(hottest, 0.0);
}

TEST(ThermalSolver, StepReportsCgIterations) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  ThermalSolver solver(m, {});
  solver.set_uniform(1.0);
  solver.set_cell(100, 10.0);
  const int iters = solver.step();
  EXPECT_GE(iters, 1);
  EXPECT_LT(iters, 100);  // AMG-preconditioned CG converges fast
}

TEST(ThermalInstance, ScalesWellAtModerateCoreCounts) {
  const auto machine = sim::MachineModel::archer2();
  const std::vector<int> cores = {100, 400, 1600};
  const auto pts = perfmodel::measure_scaling(
      [](sim::RankRange r) {
        return std::make_unique<Instance>("casing", 40'000'000, r);
      },
      machine, cores, 2);
  const double pe = (pts[0].seconds * 100.0) / (pts[2].seconds * 1600.0);
  EXPECT_GT(pe, 0.5);
  EXPECT_LE(pe, 1.01);
}

TEST(ThermalInstance, CollectivesDegradeScalingEventually) {
  const auto machine = sim::MachineModel::archer2();
  const std::vector<int> cores = {100, 12800};
  const auto pts = perfmodel::measure_scaling(
      [](sim::RankRange r) {
        return std::make_unique<Instance>("casing", 40'000'000, r);
      },
      machine, cores, 2);
  const double pe = (pts[0].seconds * 100.0) / (pts[1].seconds * 12800.0);
  EXPECT_LT(pe, 0.75);  // per-iteration allreduces bite at high p
}

TEST(ThermalInstance, ProfileHasSpmvAndDotRegions) {
  sim::Cluster cluster(sim::MachineModel::archer2(), 64);
  Instance inst("casing", 10'000'000, {0, 64});
  inst.step(cluster);
  EXPECT_GE(cluster.profile().find_region("casing/spmv"), 0);
  EXPECT_GE(cluster.profile().find_region("casing/dot"), 0);
  EXPECT_GT(cluster.max_clock(), 0.0);
}

TEST(ThermalInstance, VirtualTimeAndTrafficArePinnedBitwise) {
  // Two steps of a 200-rank casing at ranks [5, 205) of a 210-rank
  // cluster: clock, traffic and hidden-comm bits are outputs that must
  // never move. Literals recorded when the halo list was rebuilt every
  // step.
  sim::Cluster cluster(sim::MachineModel::archer2(), 210);
  Instance inst("casing", 2'000'000, {5, 205});
  inst.step(cluster);
  inst.step(cluster);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cluster.max_clock()),
            0x3f98f67a0b939d1cULL)
      << std::hexfloat << cluster.max_clock();
  EXPECT_EQ(cluster.comm_bytes({5, 205}), 61'264'172U);
  EXPECT_EQ(cluster.comm_messages({5, 205}), 1'596);
  EXPECT_EQ(cluster.comm_bytes({0, 210}), 61'264'172U);
  EXPECT_EQ(cluster.comm_messages({0, 210}), 1'596);
  EXPECT_EQ(cluster.comm_hidden_seconds({0, 210}), 0.0);
}

TEST(ThermalSolver, RejectsBadInputs) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(3, 3, 3);
  ThermalOptions bad;
  bad.dt = 0.0;
  EXPECT_THROW(ThermalSolver(m, bad), CheckError);
  ThermalSolver ok(m, {});
  EXPECT_THROW(ok.set_cell(999, 1.0), CheckError);
  EXPECT_THROW(ok.fix_cell(-1), CheckError);
}

}  // namespace
}  // namespace cpx::thermal
