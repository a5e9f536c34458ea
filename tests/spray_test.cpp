// Tests for the spray module: injector-profile sampling, load statistics
// under the three strategies of §IV-A, migration accounting, and the
// analytic hot-block model used by the pressure surrogate.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <string>

#include "sim/cluster.hpp"
#include "spray/cloud.hpp"
#include "spray/instance.hpp"
#include "support/check.hpp"

namespace cpx::spray {
namespace {

CloudOptions default_options() {
  CloudOptions o;
  o.num_particles = 50'000;
  o.num_ranks = 16;
  o.injector_length = 0.08;
  return o;
}

TEST(Cloud, ParticlesConcentrateNearInjector) {
  Cloud cloud(default_options());
  const auto counts = cloud.spatial_counts();
  // First block (injector) holds far more than the last.
  EXPECT_GT(counts.front(), 20 * std::max<std::int64_t>(counts.back(), 1));
  // All particles accounted for.
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}),
            cloud.num_particles());
}

TEST(Cloud, SpatialImbalanceIsSevere) {
  Cloud cloud(default_options());
  const LoadStats s = cloud.load_stats(Strategy::kSpatial);
  EXPECT_GT(s.imbalance, 5.0);
}

TEST(Cloud, BalancedStrategyIsFlat) {
  Cloud cloud(default_options());
  const LoadStats s = cloud.load_stats(Strategy::kBalanced);
  EXPECT_NEAR(s.imbalance, 1.0, 1e-3);
  EXPECT_EQ(s.total, cloud.num_particles());
}

TEST(Cloud, AsyncTaskUsesDedicatedWorkers) {
  Cloud cloud(default_options());
  const auto counts = cloud.counts(Strategy::kAsyncTask, 4);
  // Work on the 4 spray ranks, none on the solver ranks.
  for (int r = 0; r < 4; ++r) {
    EXPECT_GT(counts[static_cast<std::size_t>(r)], 0);
  }
  for (int r = 4; r < 16; ++r) {
    EXPECT_EQ(counts[static_cast<std::size_t>(r)], 0);
  }
  const LoadStats s = cloud.load_stats(Strategy::kAsyncTask, 4);
  EXPECT_NEAR(s.imbalance, 1.0, 1e-2);
}

TEST(Cloud, StepKeepsPopulationSteady) {
  CloudOptions o = default_options();
  Cloud cloud(o);
  const auto n0 = cloud.num_particles();
  for (int s = 0; s < 50; ++s) {
    cloud.step();
  }
  EXPECT_EQ(cloud.num_particles(), n0);  // evaporation replaced by injection
}

TEST(Cloud, StepReportsMigrations) {
  Cloud cloud(default_options());
  cloud.step();
  EXPECT_GT(cloud.last_migrations(), 0);
  EXPECT_LT(cloud.last_migrations(), cloud.num_particles());
}

TEST(Cloud, DeterministicFromSeed) {
  Cloud a(default_options());
  Cloud b(default_options());
  a.step();
  b.step();
  EXPECT_EQ(a.spatial_counts(), b.spatial_counts());
}

TEST(HotBlock, MatchesSampledDistribution) {
  // The analytic hot-block fraction must agree with the sampled cloud.
  CloudOptions o = default_options();
  o.num_particles = 200'000;
  Cloud cloud(o);
  const auto counts = cloud.spatial_counts();
  const double sampled = static_cast<double>(counts.front()) /
                         static_cast<double>(cloud.num_particles());
  const double analytic = hot_block_fraction(o.injector_length, o.num_ranks);
  EXPECT_NEAR(analytic, sampled, 0.05 * analytic + 0.005);
}

TEST(HotBlock, ShrinksWithMoreRanksButStaysAboveMean) {
  const double f16 = hot_block_fraction(0.08, 16);
  const double f256 = hot_block_fraction(0.08, 256);
  EXPECT_GT(f16, f256);
  // Hot block always holds more than the 1/p mean share.
  EXPECT_GT(f256, 1.0 / 256.0);
  // Single rank holds everything.
  EXPECT_DOUBLE_EQ(hot_block_fraction(0.08, 1), 1.0);
}

TEST(HotBlock, TighterInjectorIsHotter) {
  EXPECT_GT(hot_block_fraction(0.01, 64), hot_block_fraction(0.2, 64));
}

TEST(Instance, BalancedCollectiveGrowsWithRanks) {
  // The mechanism of §IV-A: the balanced strategy's all-to-all makes its
  // per-step cost *increase* with rank count once latency dominates.
  const auto step_time = [](spray::Strategy strategy, int ranks) {
    sim::Cluster cluster(sim::MachineModel::archer2(), ranks);
    InstanceConfig cfg;
    cfg.strategy = strategy;
    Instance inst("s", cfg, {0, ranks});
    inst.step(cluster);
    const double t0 = cluster.max_clock();
    inst.step(cluster);
    return cluster.max_clock() - t0;
  };
  EXPECT_GT(step_time(Strategy::kBalanced, 16384),
            2.0 * step_time(Strategy::kBalanced, 1024));
  // The async strategy keeps scaling down instead.
  EXPECT_LT(step_time(Strategy::kAsyncTask, 16384),
            step_time(Strategy::kAsyncTask, 1024));
}

TEST(Instance, SpatialIsHotRankBound) {
  sim::Cluster cluster(sim::MachineModel::archer2(), 512);
  InstanceConfig cfg;
  cfg.strategy = Strategy::kSpatial;
  Instance inst("s", cfg, {0, 512});
  inst.step(cluster);
  // The injector rank's busy time dominates the instance's step.
  const sim::RegionId push = cluster.profile().find_region("s/push");
  ASSERT_GE(push, 0);
  const auto hot = cluster.profile().rank_region(0, push);
  const auto cold = cluster.profile().rank_region(256, push);
  EXPECT_GT(hot.compute, 5.0 * cold.compute);
}

TEST(Instance, AsyncOnlyLoadsTheSprayRanks) {
  sim::Cluster cluster(sim::MachineModel::archer2(), 400);
  InstanceConfig cfg;
  cfg.strategy = Strategy::kAsyncTask;
  cfg.spray_rank_fraction = 0.25;
  Instance inst("s", cfg, {0, 400});
  inst.step(cluster);
  const sim::RegionId push = cluster.profile().find_region("s/push");
  ASSERT_GE(push, 0);
  EXPECT_GT(cluster.profile().rank_region(50, push).compute, 0.0);
  EXPECT_EQ(cluster.profile().rank_region(399, push).compute, 0.0);
}

TEST(Instance, VirtualTimeAndTrafficArePinnedBitwise) {
  // The strategies' messages exist only on the virtual cluster, so the
  // clock, traffic and hidden-comm bits of two steps are outputs that must
  // never move. Each instance sits at ranks [3, 3 + p) of a cluster with
  // five more ranks. Literals recorded when the instance still posted
  // through a communicator.
  struct Pin {
    Strategy strategy;
    int p;
    double fraction;
    std::uint64_t clock_bits;  ///< max_clock() after two steps
    std::size_t bytes;
    std::int64_t messages;
  };
  constexpr Pin kPins[] = {
      {Strategy::kSpatial, 1, 0.25, 0x3fdf7521144cbe1fULL, 0, 0},
      {Strategy::kSpatial, 7, 0.25, 0x3fda322f00cf608fULL, 23'041'536, 36},
      {Strategy::kSpatial, 400, 0.25, 0x3f8f2992aae8c712ULL, 26'914'944,
       2'394},
      {Strategy::kBalanced, 1, 0.25, 0x3fdf7521144cbe1fULL, 0, 0},
      {Strategy::kBalanced, 7, 0.25, 0x3fb41661a44544aaULL, 575'999'928, 84},
      {Strategy::kBalanced, 400, 0.25, 0x3f6e87244c0fa30aULL, 670'320'000,
       319'200},
      {Strategy::kAsyncTask, 1, 0.25, 0x3fdf7521144cbe1fULL, 0, 0},
      {Strategy::kAsyncTask, 7, 0.25, 0x3fdf75290fd8600bULL, 64, 2},
      {Strategy::kAsyncTask, 400, 0.25, 0x3f7429ecfd32b4f6ULL, 6'400, 200},
      {Strategy::kAsyncTask, 7, 1.0, 0x3fb1fa03480f25efULL, 0, 0},
  };
  for (const Pin& pin : kPins) {
    sim::Cluster cluster(sim::MachineModel::archer2(), pin.p + 5);
    InstanceConfig cfg;
    cfg.strategy = pin.strategy;
    cfg.spray_rank_fraction = pin.fraction;
    const sim::RankRange ranks{3, 3 + pin.p};
    Instance inst("spray", cfg, ranks);
    inst.step(cluster);
    inst.step(cluster);
    const sim::RankRange all{0, cluster.num_ranks()};
    const std::string label = "strategy " +
                              std::to_string(static_cast<int>(pin.strategy)) +
                              " p=" + std::to_string(pin.p) +
                              " fraction=" + std::to_string(pin.fraction);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cluster.max_clock()),
              pin.clock_bits)
        << label << ": " << std::hexfloat << cluster.max_clock();
    EXPECT_EQ(cluster.comm_bytes(ranks), pin.bytes) << label;
    EXPECT_EQ(cluster.comm_messages(ranks), pin.messages) << label;
    EXPECT_EQ(cluster.comm_bytes(all), pin.bytes) << label;
    EXPECT_EQ(cluster.comm_messages(all), pin.messages) << label;
    EXPECT_EQ(cluster.comm_hidden_seconds(all), 0.0) << label;
  }
}

TEST(Instance, AsyncTinyFractionStillLoadsOneRank) {
  // floor(400 * 1e-6) is 0 workers; the worker group keeps one rank,
  // which hands off to the first solver rank.
  sim::Cluster cluster(sim::MachineModel::archer2(), 400);
  InstanceConfig cfg;
  cfg.strategy = Strategy::kAsyncTask;
  cfg.spray_rank_fraction = 1e-6;
  Instance inst("s", cfg, {0, 400});
  inst.step(cluster);
  const sim::RegionId push = cluster.profile().find_region("s/push");
  ASSERT_GE(push, 0);
  EXPECT_GT(cluster.profile().rank_region(0, push).compute, 0.0);
  for (sim::Rank r = 1; r < 400; ++r) {
    ASSERT_EQ(cluster.profile().rank_region(r, push).compute, 0.0) << r;
  }
  EXPECT_EQ(cluster.comm_messages(0), 1);
  EXPECT_EQ(cluster.comm_messages({0, 400}), 1);
  EXPECT_GT(cluster.clock(1), 0.0);  // the hand-off's receiver
}

TEST(Instance, AsyncFullFractionLoadsEveryRankAndHandsOffNothing) {
  // Fraction 1.0 makes every rank a worker: no solver rank is left to
  // receive a hand-off, so no message is charged.
  sim::Cluster cluster(sim::MachineModel::archer2(), 8);
  InstanceConfig cfg;
  cfg.strategy = Strategy::kAsyncTask;
  cfg.spray_rank_fraction = 1.0;
  Instance inst("s", cfg, {0, 8});
  inst.step(cluster);
  const sim::RegionId push = cluster.profile().find_region("s/push");
  ASSERT_GE(push, 0);
  const double first = cluster.profile().rank_region(0, push).compute;
  EXPECT_GT(first, 0.0);
  for (sim::Rank r = 1; r < 8; ++r) {
    EXPECT_EQ(cluster.profile().rank_region(r, push).compute, first) << r;
  }
  EXPECT_EQ(cluster.comm_messages({0, 8}), 0);
  EXPECT_EQ(cluster.comm_bytes({0, 8}), 0U);
}

TEST(Cloud, RejectsBadOptions) {
  CloudOptions o = default_options();
  o.injector_length = 0.0;
  EXPECT_THROW(Cloud{o}, CheckError);
  CloudOptions o2 = default_options();
  o2.num_ranks = 0;
  EXPECT_THROW(Cloud{o2}, CheckError);
  Cloud ok(default_options());
  EXPECT_THROW(ok.counts(Strategy::kAsyncTask, 0), CheckError);
}

}  // namespace
}  // namespace cpx::spray
