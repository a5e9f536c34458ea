#include "simpic/instance.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace cpx::simpic {

Instance::Instance(std::string name, const StcConfig& config,
                   sim::RankRange ranks, const WorkModel& work,
                   double step_weight)
    : name_(std::move(name)),
      config_(config),
      ranks_(ranks),
      work_(work),
      step_weight_(step_weight) {
  CPX_REQUIRE(ranks.size() >= 1, "Instance: empty rank range");
  CPX_REQUIRE(config.cells >= ranks.size(),
              "Instance: fewer cells (" << config.cells << ") than ranks ("
                                        << ranks.size() << ")");
  CPX_REQUIRE(config.particles_per_cell > 0.0,
              "Instance: bad particles_per_cell");
  CPX_REQUIRE(step_weight > 0.0, "Instance: bad step_weight");
}

double Instance::particles_per_rank() const {
  return static_cast<double>(config_.total_particles()) /
         static_cast<double>(ranks_.size());
}

double Instance::cells_per_rank() const {
  return static_cast<double>(config_.cells) /
         static_cast<double>(ranks_.size());
}

double Instance::pipeline_seconds(const sim::Cluster& cluster) const {
  // Forward elimination ripples rank 0 -> p-1, back substitution p-1 -> 0.
  // Each hop costs latency plus sender+receiver software overhead; hops
  // crossing a node boundary pay inter-node latency.
  const sim::MachineModel& m = cluster.machine();
  const int p = ranks_.size();
  if (p <= 1) {
    return 0.0;
  }
  const int first_node = cluster.node_of(ranks_.begin);
  const int last_node = cluster.node_of(ranks_.end - 1);
  const int inter_hops = last_node - first_node;
  const int intra_hops = (p - 1) - inter_hops;
  const double fwd_bytes = static_cast<double>(work_.pipeline_forward_bytes);
  const double bwd_bytes = static_cast<double>(work_.pipeline_backward_bytes);
  const double hop_intra =
      m.lat_intra + 2.0 * m.msg_overhead +
      (fwd_bytes + bwd_bytes) / 2.0 / m.bw_intra;
  const double hop_inter =
      m.lat_inter + 2.0 * m.msg_overhead +
      (fwd_bytes + bwd_bytes) / 2.0 / m.bw_inter;
  // Forward and backward passes traverse the same hops.
  return 2.0 * (intra_hops * hop_intra + inter_hops * hop_inter);
}

void Instance::bind(sim::Cluster& cluster) {
  region_deposit_ = cluster.region(name_ + "/deposit");
  region_field_ = cluster.region(name_ + "/field");
  region_push_ = cluster.region(name_ + "/push");
  region_migrate_ = cluster.region(name_ + "/migrate");
  region_reduce_ = cluster.region(name_ + "/reduce");
  const sim::MachineModel& m = cluster.machine();
  const int p = ranks_.size();
  const double particles = particles_per_rank() * step_weight_;
  const double cells = cells_per_rank() * step_weight_;

  sim::Work deposit;
  deposit.flops = particles * work_.flops_per_particle_deposit;
  deposit.bytes = particles * work_.bytes_per_particle_deposit;
  deposit_s_ = m.compute_time(deposit);
  sim::Work field;
  field.flops = cells * work_.flops_per_cell_field;
  field.bytes = cells * work_.bytes_per_cell_field;
  field_s_ = m.compute_time(field);
  sim::Work push;
  push.flops = particles * work_.flops_per_particle_push;
  push.bytes = particles * work_.bytes_per_particle_push;
  push_s_ = m.compute_time(push);
  pipeline_s_ = step_weight_ * pipeline_seconds(cluster);

  // Migration of boundary-crossing particles to the 1-D neighbours.
  std::vector<sim::Message> messages;
  if (p > 1) {
    messages.reserve(2 * static_cast<std::size_t>(p - 1));
    const auto bytes = static_cast<std::size_t>(
        work_.migration_fraction * particles *
        static_cast<double>(work_.bytes_per_particle));
    for (int l = 0; l < p; ++l) {
      if (l > 0) {
        messages.push_back({ranks_.begin + l, ranks_.begin + l - 1, bytes});
      }
      if (l + 1 < p) {
        messages.push_back({ranks_.begin + l, ranks_.begin + l + 1, bytes});
      }
    }
  }
  migrate_ = cluster.make_schedule(messages);
}

void Instance::step(sim::Cluster& cluster) {
  if (needs_bind(cluster)) {
    bind(cluster);
  }
  const int p = ranks_.size();

  // 1. Charge deposition — perfectly parallel particle sweep.
  cluster.compute_seconds(ranks_, deposit_s_, region_deposit_);

  // 2. Field solve: local tridiagonal elimination, then the serial
  //    forward/backward boundary pipeline across ranks. The pipeline is a
  //    full synchronisation: no rank can push particles before the back
  //    substitution has reached it, so every rank leaves at
  //    max(entry clocks) + pipeline time.
  cluster.compute_seconds(ranks_, field_s_, region_field_);
  if (p > 1) {
    const double done = cluster.max_clock(ranks_) + pipeline_s_;
    cluster.wait_until(ranks_, done, region_field_);
  }

  // 3+4. Gather + leapfrog push — perfectly parallel.
  cluster.compute_seconds(ranks_, push_s_, region_push_);

  // 5. Migration of boundary-crossing particles to the 1-D neighbours.
  if (p > 1) {
    cluster.exchange(migrate_, region_migrate_);
  }

  // 6. Diagnostics allreduce (energies, particle count).
  cluster.allreduce(ranks_, 4 * sizeof(double), region_reduce_);
}

}  // namespace cpx::simpic
