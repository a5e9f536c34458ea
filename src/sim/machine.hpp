#pragma once
// Machine model for the virtual cluster.
//
// The paper's experiments run on ARCHER2 (HPE-Cray EX): dual 64-core AMD
// EPYC 7742 nodes (128 cores/node, ~380 GB/s aggregate memory bandwidth)
// connected by a Slingshot network. This environment has no MPI and a
// single core, so all "measurements" in this repository come from a
// deterministic performance model of that machine: kernels report abstract
// Work (flops + bytes moved + kernel launches), and the model converts Work
// and message sizes into virtual seconds.
//
// The parameters are fixed once in MachineModel::archer2() and reused by
// every experiment; they are never tuned per-figure (see DESIGN.md §5).

#include <cstddef>
#include <cstdint>

namespace cpx::sim {

/// Abstract cost of a compute kernel executed by one rank.
struct Work {
  double flops = 0.0;     ///< floating-point operations
  double bytes = 0.0;     ///< bytes moved to/from memory (useful traffic)
  double launches = 1.0;  ///< kernel invocations (fixed per-call overhead)

  Work& operator+=(const Work& other) {
    flops += other.flops;
    bytes += other.bytes;
    launches += other.launches;
    return *this;
  }
  friend Work operator+(Work a, const Work& b) { return a += b; }
  friend Work operator*(double s, Work w) {
    w.flops *= s;
    w.bytes *= s;
    w.launches *= s;
    return w;
  }
};

/// Parameters of the modelled machine. All times in seconds, sizes in bytes,
/// rates in units/second.
struct MachineModel {
  // --- Node ---
  int cores_per_node = 128;
  double flop_rate = 3.0e9;      ///< effective per-core scalar+SIMD rate
  double node_mem_bw = 350.0e9;  ///< aggregate per-node memory bandwidth
  double kernel_overhead = 2.0e-6;  ///< fixed cost per kernel launch

  // --- Network: intra-node (shared memory transport) ---
  double lat_intra = 4.0e-7;
  double bw_intra = 10.0e9;  ///< per-rank pairwise

  // --- Network: inter-node ---
  double lat_inter = 2.0e-6;
  double bw_inter = 2.0e9;        ///< per-rank share of the NIC
  double node_injection_bw = 25.0e9;  ///< NIC limit shared by a node's ranks

  // --- Software overheads ---
  double msg_overhead = 5.0e-7;  ///< per-message sender/receiver CPU cost

  /// Time for one rank to execute `work`. Memory bandwidth is shared at
  /// full node occupancy (production jobs run fully packed), so a rank's
  /// share is node_mem_bw / cores_per_node.
  double compute_time(const Work& work) const;

  /// Point-to-point message cost components.
  double latency(bool same_node) const { return same_node ? lat_intra : lat_inter; }
  double bandwidth(bool same_node) const { return same_node ? bw_intra : bw_inter; }

  /// Cost of an allreduce over `ranks` ranks spanning `nodes` nodes.
  double allreduce_time(int ranks, int nodes, std::size_t bytes) const;

  /// Cost of a barrier over `ranks` ranks spanning `nodes` nodes.
  double barrier_time(int ranks, int nodes) const;

  /// Cost of a personalised all-to-all: every rank sends `bytes_per_pair`
  /// to every other rank. Latency-dominated at small payloads — the
  /// per-rank cost grows linearly with the rank count, which is exactly
  /// why §IV-A says collective particle redistribution "can significantly
  /// degrade performance at high core counts".
  double alltoall_time(int ranks, int nodes,
                       std::size_t bytes_per_pair) const;

  /// ARCHER2-like preset (the machine the paper measured on).
  static MachineModel archer2();

  /// A deliberately slow-network variant used in tests/ablations to verify
  /// the simulator responds to machine parameters.
  static MachineModel slow_network();
};

}  // namespace cpx::sim
