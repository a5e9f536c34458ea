#pragma once
// Standalone spray performance instance: the §IV-A load-balancing
// strategies as virtual-cluster workloads, so the strategies can be
// compared in *time* (not just particle counts) at production rank counts.
//
// Per step, by strategy:
//   kSpatial   — particle work on the hot ranks (injector imbalance from
//                the analytic hot-block model), neighbour migration
//                messages, and the per-step gather of spray source terms
//                that serialises on the hot rank;
//   kBalanced  — flat particle work, but an all-to-all redistribution
//                every step (the "collective operations which can
//                significantly degrade performance at high core counts");
//   kAsyncTask — dedicated spray ranks (the leading fraction of the
//                range, the paper's split communicator) working a balanced
//                queue, one-sided hand-off to the solver ranks; effectively
//                the perfectly-scaling spray of §IV-C.
//
// The messages exist only on the virtual cluster: the kSpatial migration
// and the kAsyncTask hand-off are schedules bound once per cluster, and the
// collectives are charged by Cluster::gather/alltoall, which also count
// their traffic (docs/communication.md).

#include <cstdint>
#include <string>

#include "sim/app.hpp"
#include "spray/cloud.hpp"

namespace cpx::spray {

struct InstanceConfig {
  std::int64_t num_particles = 7'000'000;
  double injector_length = 0.08;
  Strategy strategy = Strategy::kSpatial;
  /// kAsyncTask: fraction of the ranks dedicated to spray work (at least
  /// one rank, at most all of them).
  double spray_rank_fraction = 0.25;
  double flops_per_particle = 80.0;
  double bytes_per_particle = 96.0;
  double migration_fraction = 0.02;  ///< of local particles, per step
  std::size_t bytes_per_migrated_particle = 6 * sizeof(double);
};

class Instance final : public sim::App {
 public:
  Instance(std::string name, const InstanceConfig& config,
           sim::RankRange ranks);

  const std::string& name() const override { return name_; }
  sim::RankRange ranks() const override { return ranks_; }
  void step(sim::Cluster& cluster) override;

  const InstanceConfig& config() const { return config_; }

 private:
  /// Interns the regions and builds the strategy's message schedule.
  void bind(sim::Cluster& cluster);

  std::string name_;
  InstanceConfig config_;
  sim::RankRange ranks_;
  /// kAsyncTask: the leading min(p, max(1, floor(p * fraction))) ranks
  /// work the spray queue (the paper's split communicator).
  int workers_ = 0;
  // Bound once per cluster (sim::App::needs_bind).
  sim::RegionId region_push_ = -1;
  sim::RegionId region_comm_ = -1;
  /// kSpatial neighbour migration or kAsyncTask hand-off. Empty, so
  /// charging nothing, for kBalanced, on one rank, or when every rank is
  /// a worker.
  sim::ExchangeSchedule exchange_;
};

}  // namespace cpx::spray
