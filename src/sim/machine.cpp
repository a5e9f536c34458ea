#include "sim/machine.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace cpx::sim {
namespace {

int log2_ceil(int n) {
  int bits = 0;
  int v = 1;
  while (v < n) {
    v <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace

double MachineModel::compute_time(const Work& work) const {
  // Memory bandwidth is shared at full node occupancy: production jobs on
  // this class of machine run fully packed (they are charged per node), so
  // a rank's share is node_mem_bw / cores_per_node regardless of how many
  // ranks of *this* instance happen to land on the node. This keeps
  // standalone benchmarks consistent with packed coupled runs.
  const double share = node_mem_bw / static_cast<double>(cores_per_node);
  const double t_flops = work.flops / flop_rate;
  const double t_mem = work.bytes / share;
  // Roofline-style: a kernel is bound by whichever of compute and memory
  // traffic is slower, plus a fixed per-launch overhead.
  return work.launches * kernel_overhead + std::max(t_flops, t_mem);
}

double MachineModel::allreduce_time(int ranks, int nodes,
                                    std::size_t bytes) const {
  CPX_DCHECK(ranks >= 1 && nodes >= 1);
  if (ranks <= 1) {
    return 0.0;
  }
  // Two phases (reduce + broadcast), each a binomial tree. Rounds that
  // cross node boundaries pay inter-node latency; within a node the shared
  // memory transport is used. With `nodes` nodes, ceil(log2(nodes)) of the
  // rounds are inter-node.
  const int rounds = log2_ceil(ranks);
  const int inter_rounds = std::min(rounds, log2_ceil(nodes));
  const int intra_rounds = rounds - inter_rounds;
  const double per_inter = lat_inter + msg_overhead +
                           static_cast<double>(bytes) / bw_inter;
  const double per_intra = lat_intra + msg_overhead +
                           static_cast<double>(bytes) / bw_intra;
  return 2.0 * (inter_rounds * per_inter + intra_rounds * per_intra);
}

double MachineModel::barrier_time(int ranks, int nodes) const {
  if (ranks <= 1) {
    return 0.0;
  }
  const int rounds = log2_ceil(ranks);
  const int inter_rounds = std::min(rounds, log2_ceil(nodes));
  const int intra_rounds = rounds - inter_rounds;
  return 2.0 * (inter_rounds * (lat_inter + msg_overhead) +
                intra_rounds * (lat_intra + msg_overhead));
}

double MachineModel::alltoall_time(int ranks, int nodes,
                                   std::size_t bytes_per_pair) const {
  if (ranks <= 1) {
    return 0.0;
  }
  // Pairwise-exchange algorithm: ranks-1 rounds, each a send+recv. The
  // fraction of partners off-node follows the node count.
  const double inter_fraction =
      nodes <= 1 ? 0.0
                 : static_cast<double>(nodes - 1) / std::max(nodes, 1);
  const double per_round_lat =
      inter_fraction * lat_inter + (1.0 - inter_fraction) * lat_intra;
  const double per_round_bw =
      inter_fraction * bw_inter + (1.0 - inter_fraction) * bw_intra;
  const double per_round = per_round_lat + 2.0 * msg_overhead +
                           static_cast<double>(bytes_per_pair) / per_round_bw;
  return (ranks - 1) * per_round;
}

MachineModel MachineModel::archer2() {
  // Defaults above are the ARCHER2-like values; spelled out here so the
  // preset is explicit and stable even if defaults change.
  MachineModel m;
  m.cores_per_node = 128;
  m.flop_rate = 3.0e9;
  m.node_mem_bw = 350.0e9;
  m.kernel_overhead = 2.0e-6;
  m.lat_intra = 4.0e-7;
  m.bw_intra = 10.0e9;
  m.lat_inter = 2.0e-6;
  m.bw_inter = 2.0e9;
  m.node_injection_bw = 25.0e9;
  m.msg_overhead = 5.0e-7;
  return m;
}

MachineModel MachineModel::slow_network() {
  MachineModel m = archer2();
  m.lat_inter *= 20.0;
  m.bw_inter /= 10.0;
  m.node_injection_bw /= 10.0;
  return m;
}

}  // namespace cpx::sim
