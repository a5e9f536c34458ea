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
//   kAsyncTask — a dedicated spray communicator (a fraction of the ranks)
//                working a balanced queue, one-sided hand-off to the
//                solver ranks; effectively the perfectly-scaling spray of
//                §IV-C.

#include <cstdint>
#include <string>

#include "comm/communicator.hpp"
#include "sim/app.hpp"
#include "spray/cloud.hpp"

namespace cpx::spray {

struct InstanceConfig {
  std::int64_t num_particles = 7'000'000;
  double injector_length = 0.08;
  Strategy strategy = Strategy::kSpatial;
  /// kAsyncTask: fraction of the ranks dedicated to spray work.
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

  /// Traffic this instance posted to its world communicator (migration,
  /// hand-off, and collective bytes — docs/communication.md).
  const comm::CommStats& comm_stats() const { return world_.stats(); }
  /// kAsyncTask: the dedicated spray subgroup carved by split_fraction
  /// (null for the other strategies). Its size is the worker count.
  const comm::Communicator& spray_communicator() const { return spray_comm_; }

 private:
  std::string name_;
  InstanceConfig config_;
  sim::RankRange ranks_;
  comm::Communicator world_;
  comm::Communicator spray_comm_;  ///< kAsyncTask subgroup 0 of world_
  std::vector<sim::Message> message_scratch_;
  // Interned once per cluster (sim::App::needs_bind).
  sim::RegionId region_push_ = -1;
  sim::RegionId region_comm_ = -1;
};

}  // namespace cpx::spray
