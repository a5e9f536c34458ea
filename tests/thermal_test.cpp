// Tests for the thermal-casing performance instance (§VI extension): its
// scaling behaviour, profile regions and pinned virtual time and traffic.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "perfmodel/sweep.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "thermal/instance.hpp"

namespace cpx::thermal {
namespace {

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

TEST(ThermalInstance, RejectsBadConstruction) {
  EXPECT_THROW(Instance("casing", 1000, {3, 3}), CheckError);
  EXPECT_THROW(Instance("casing", 7, {0, 8}), CheckError);
  EXPECT_NO_THROW(Instance("casing", 8, {0, 8}));
}

TEST(ThermalInstance, SingleRankSolveChargesNoCommunication) {
  // One rank has no halo neighbours and nothing to reduce across: the
  // solve is all SpMV compute.
  sim::Cluster cluster(sim::MachineModel::archer2(), 1);
  Instance inst("casing", 100'000, {0, 1});
  inst.step(cluster);
  EXPECT_GT(cluster.max_clock(), 0.0);
  EXPECT_EQ(cluster.comm_bytes({0, 1}), 0U);
  EXPECT_EQ(cluster.comm_messages({0, 1}), 0);
}

TEST(ThermalInstance, SingleRankTimeIsLinearInCgIterations) {
  // Every per-iteration cost (flops, bytes, kernel launches) is folded
  // over the CG iterations, so doubling them doubles the solve.
  const auto solve_seconds = [](int iterations) {
    sim::Cluster cluster(sim::MachineModel::archer2(), 1);
    WorkModel work;
    work.cg_iterations = iterations;
    Instance inst("casing", 250'000, {0, 1}, work);
    inst.step(cluster);
    return cluster.max_clock();
  };
  const double t25 = solve_seconds(25);
  ASSERT_GT(t25, 0.0);
  EXPECT_NEAR(solve_seconds(50), 2.0 * t25, 1e-12 * t25);
  EXPECT_NEAR(solve_seconds(5), 0.2 * t25, 1e-12 * t25);
}

}  // namespace
}  // namespace cpx::thermal
