#include "spray/instance.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

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
  const int p = ranks.size();
  workers_ = std::min(
      p, std::max(1, static_cast<int>(static_cast<double>(p) *
                                      config_.spray_rank_fraction)));
}

void Instance::bind(sim::Cluster& cluster) {
  region_push_ = cluster.region(name_ + "/push");
  region_comm_ = cluster.region(name_ + "/comm");
  const int p = ranks_.size();
  const sim::Rank base = ranks_.begin;
  std::vector<sim::Message> messages;
  if (config_.strategy == Strategy::kSpatial) {
    // Neighbour migration (the source-term gather is a collective).
    const double mean = static_cast<double>(config_.num_particles) / p;
    const auto mig_bytes = static_cast<std::size_t>(
        config_.migration_fraction * mean *
        static_cast<double>(config_.bytes_per_migrated_particle));
    for (int l = 0; l + 1 < p; ++l) {
      messages.push_back({base + l, base + l + 1, mig_bytes});
      messages.push_back({base + l + 1, base + l, mig_bytes});
    }
  } else if (config_.strategy == Strategy::kAsyncTask) {
    // One-sided exposure epoch of each worker with a solver-side partner
    // (a rank outside the worker group: the hand-off crosses the split).
    for (int l = 0; l < workers_; ++l) {
      const int partner = workers_ + (l % std::max(1, p - workers_));
      if (partner < p) {
        messages.push_back({base + l, base + partner, 4 * sizeof(double)});
      }
    }
  }
  exchange_ = cluster.make_schedule(messages);
}

void Instance::step(sim::Cluster& cluster) {
  if (needs_bind(cluster)) {
    bind(cluster);
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
      // coupling terms).
      cluster.exchange(exchange_, region_comm_);
      const std::size_t gather_bytes = 2 * sizeof(double) * 8;
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
      cluster.alltoall(ranks_, pair_bytes, region_comm_);
      break;
    }
    case Strategy::kAsyncTask: {
      // Dedicated spray ranks drain a balanced queue; the solver ranks'
      // only involvement is the one-sided hand-off (tiny).
      const double per_worker = total / workers_;
      for (int l = 0; l < workers_; ++l) {
        sim::Work w;
        w.flops = per_worker * config_.flops_per_particle;
        w.bytes = per_worker * config_.bytes_per_particle;
        cluster.compute(ranks_.begin + l, w, region_push_);
      }
      cluster.exchange(exchange_, region_comm_);
      break;
    }
  }
}

}  // namespace cpx::spray
