#include "thermal/instance.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"

namespace cpx::thermal {

Instance::Instance(std::string name, std::int64_t mesh_cells,
                   sim::RankRange ranks, const WorkModel& work)
    : name_(std::move(name)),
      mesh_cells_(mesh_cells),
      ranks_(ranks),
      work_(work),
      stats_(mesh::PartitionStats::analytic(mesh_cells, ranks.size())) {
  CPX_REQUIRE(ranks.size() >= 1, "Instance: empty rank range");
  CPX_REQUIRE(mesh_cells >= ranks.size(), "Instance: fewer cells than ranks");
}

void Instance::bind(sim::Cluster& cluster) {
  region_spmv_ = cluster.region(name_ + "/spmv");
  region_halo_ = cluster.region(name_ + "/halo");
  region_dot_ = cluster.region(name_ + "/dot");
  // One fused halo message per neighbour carrying all iterations' bytes;
  // 1-D ring neighbours suffice for the casing shell (it is thin).
  const int p = ranks_.size();
  const auto halo_bytes = static_cast<std::size_t>(
      stats_.halo_mean / std::max(stats_.neighbors_mean, 1.0) *
      static_cast<double>(work_.bytes_per_halo_cell) *
      static_cast<double>(work_.cg_iterations));
  std::vector<sim::Message> messages;
  messages.reserve(2 * static_cast<std::size_t>(p - 1));
  for (int l = 0; l < p; ++l) {
    if (l > 0) {
      messages.push_back({ranks_.begin + l, ranks_.begin + l - 1, halo_bytes});
    }
    if (l + 1 < p) {
      messages.push_back({ranks_.begin + l, ranks_.begin + l + 1, halo_bytes});
    }
  }
  halo_ = cluster.make_schedule(messages);
}

void Instance::step(sim::Cluster& cluster) {
  if (needs_bind(cluster)) {
    bind(cluster);
  }
  const sim::MachineModel& m = cluster.machine();
  const int p = ranks_.size();
  const double cells = stats_.owned_mean;
  const double iters = static_cast<double>(work_.cg_iterations);

  // Per-iteration compute, folded over the solve.
  for (int l = 0; l < p; ++l) {
    sim::Work w;
    w.flops = iters * cells * work_.flops_per_cell_per_iteration;
    w.bytes = iters * cells * work_.bytes_per_cell_per_iteration;
    w.launches = iters * 3.0;  // spmv + 2 axpy-class kernels
    cluster.compute(ranks_.begin + l, w, region_spmv_);
  }

  // The fused halo round; the extra rounds' latencies are charged
  // alongside (as in mgcfd).
  if (p > 1) {
    cluster.exchange(halo_, region_halo_);
    const double per_round = m.lat_inter + 2.0 * m.msg_overhead;
    for (int l = 0; l < p; ++l) {
      cluster.comm_delay(ranks_.begin + l, (iters - 1.0) * per_round * 2.0,
                         region_halo_);
    }
    // Two dot-product allreduces per CG iteration: the first two as real
    // synchronising collectives, the rest as their analytic cost.
    for (int it = 0; it < 2; ++it) {
      cluster.allreduce(ranks_, sizeof(double), region_dot_);
    }
    const int nodes = cluster.node_of(ranks_.end - 1) -
                      cluster.node_of(ranks_.begin) + 1;
    const double reduce_cost =
        m.allreduce_time(p, nodes, sizeof(double)) * (2.0 * iters - 2.0);
    for (int l = 0; l < p; ++l) {
      cluster.comm_delay(ranks_.begin + l, reduce_cost, region_dot_);
    }
  }
}

}  // namespace cpx::thermal
