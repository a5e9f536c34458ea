#include "spray/instance.hpp"

#include <algorithm>
#include <cmath>

#include "sim/comm_bridge.hpp"
#include "support/check.hpp"

namespace cpx::spray {

Instance::Instance(std::string name, const InstanceConfig& config,
                   sim::RankRange ranks)
    : name_(std::move(name)), config_(config), ranks_(ranks) {
  CPX_REQUIRE(ranks.size() >= 1, "Instance: empty rank range");
  CPX_REQUIRE(config.num_particles >= 1, "Instance: no particles");
  CPX_REQUIRE(config.spray_rank_fraction > 0.0 &&
                  config.spray_rank_fraction <= 1.0,
              "Instance: bad spray_rank_fraction");
  world_ = comm::Communicator::world(ranks.size(), name_ + "/world");
  if (config_.strategy == Strategy::kAsyncTask) {
    // Real subgroup carve-out: the leading fraction of ranks form the
    // dedicated spray communicator. split() asserts every rank lands in
    // exactly one subgroup.
    auto groups = world_.split_fraction(config_.spray_rank_fraction);
    spray_comm_ = groups.front();
  }
}

void Instance::step(sim::Cluster& cluster) {
  if (needs_bind(cluster)) {
    region_push_ = cluster.region(name_ + "/push");
    region_comm_ = cluster.region(name_ + "/comm");
  }
  const int p = ranks_.size();
  const double total = static_cast<double>(config_.num_particles);
  const double mean = total / p;

  switch (config_.strategy) {
    case Strategy::kSpatial: {
      // Hot ranks carry the injector share; everyone else a uniform tail.
      const double hot = std::max(
          hot_block_fraction(config_.injector_length, p), 1.0 / p);
      for (int l = 0; l < p; ++l) {
        const double particles = l == 0 ? hot * total : mean * 0.5;
        sim::Work w;
        w.flops = particles * config_.flops_per_particle;
        w.bytes = particles * config_.bytes_per_particle;
        cluster.compute(ranks_.begin + l, w, region_push_);
      }
      // Neighbour migration + the source-term gather that serialises on
      // the hot rank (all ranks contribute to the injector region's gas
      // coupling terms). The data plane is virtual: messages are posted
      // to the communicator (shared byte accounting) and the recorded
      // transfers charged to the cluster.
      const auto mig_bytes = static_cast<std::size_t>(
          config_.migration_fraction * mean *
          static_cast<double>(config_.bytes_per_migrated_particle));
      for (int l = 0; l + 1 < p; ++l) {
        world_.post(l, l + 1, mig_bytes);
        world_.post(l + 1, l, mig_bytes);
      }
      sim::flush_exchange(world_, cluster, region_comm_, ranks_.begin,
                          message_scratch_);
      const std::size_t gather_bytes = 2 * sizeof(double) * 8;
      world_.post_collective(static_cast<std::size_t>(p - 1) * gather_bytes,
                             p - 1);
      cluster.gather(ranks_, ranks_.begin, gather_bytes, region_comm_);
      break;
    }
    case Strategy::kBalanced: {
      for (int l = 0; l < p; ++l) {
        sim::Work w;
        w.flops = mean * config_.flops_per_particle;
        w.bytes = mean * config_.bytes_per_particle;
        cluster.compute(ranks_.begin + l, w, region_push_);
      }
      // Redistribution back to spatial owners every step: the particles a
      // rank holds are unrelated to its mesh partition, so the gas-field
      // data / updated particles cross in a personalised all-to-all.
      const auto pair_bytes = static_cast<std::size_t>(
          std::max(1.0, mean / p *
                            static_cast<double>(
                                config_.bytes_per_migrated_particle)));
      world_.post_collective(
          static_cast<std::size_t>(p) * static_cast<std::size_t>(p - 1) *
              pair_bytes,
          static_cast<std::int64_t>(p) * (p - 1));
      cluster.alltoall(ranks_, pair_bytes, region_comm_);
      break;
    }
    case Strategy::kAsyncTask: {
      // Dedicated spray ranks drain a balanced queue; the solver ranks'
      // only involvement is the one-sided hand-off (tiny). The worker set
      // is the split_fraction subgroup carved in the constructor.
      const int workers = spray_comm_.size();
      const double per_worker = total / workers;
      for (int l = 0; l < workers; ++l) {
        sim::Work w;
        w.flops = per_worker * config_.flops_per_particle;
        w.bytes = per_worker * config_.bytes_per_particle;
        cluster.compute(ranks_.begin + spray_comm_.global_rank(l), w,
                        region_push_);
      }
      for (int l = 0; l < workers; ++l) {
        // One-sided exposure epoch with a solver-side partner (a rank of
        // the complementary subgroup); posted on the world communicator
        // since the hand-off crosses the split.
        const int partner = workers + (l % std::max(1, p - workers));
        if (partner < p) {
          world_.post(spray_comm_.global_rank(l), partner,
                      4 * sizeof(double));
        }
      }
      sim::flush_exchange(world_, cluster, region_comm_, ranks_.begin,
                          message_scratch_);
      break;
    }
  }
}

}  // namespace cpx::spray
