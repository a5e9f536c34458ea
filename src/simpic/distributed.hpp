#pragma once
// Distributed-memory SIMPIC: the 1-D electrostatic PIC actually decomposed
// over ranks, with real boundary-node charge merging, the *pipelined*
// distributed Thomas solve (forward elimination ripples rank 0 -> p-1,
// back substitution ripples p-1 -> 0 — the serial chain the performance
// instance charges to the virtual cluster), and real particle migration
// between neighbouring ranks. All rank-to-rank bytes move through the
// comm layer (src/comm/, docs/communication.md): boundary charges and
// pipeline carries are isend/irecv pairs, migrated particles travel as
// packed triplets matched by Communicator::deliver.
//
// The distributed field solve continues the sequential algorithm's
// elimination recurrence across rank boundaries, so given identical rho
// it matches Pic::solve_poisson_dirichlet exactly. The whole run does not:
// the deposit sums each node's particles in per-rank order, and once a
// particle migrates the receiving rank appends it, so the summation order
// differs from the sequential solver's and sheet crossings amplify the
// round-off. DistributedPicVsSequential therefore checks the fields to
// 1e-13 after one step, and after 40 steps equal particle count and
// charge with the kinetic and field energies within 2% and 5%. A shared
// canonical particle order that makes the two bitwise equal is ROADMAP
// item 2.
//
// Restricted to absorbing (Dirichlet) walls: the periodic variant needs a
// cyclic solve that the production-relevant pipeline discussion does not
// depend on.

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "sim/cluster.hpp"
#include "simpic/pic.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::simpic {

class DistributedPic {
 public:
  /// Decomposes `options.cells` cells over `parts` contiguous slices.
  /// options.boundary must be kAbsorbing.
  DistributedPic(const PicOptions& options, int parts);

  int num_parts() const { return static_cast<int>(ranks_.size()); }

  /// Loads the same initial condition as Pic::load_uniform (particles are
  /// assigned to the rank owning their position).
  void load_uniform(int per_cell, double v_thermal = 0.0,
                    double perturbation = 0.0);

  void step();
  void run(int steps);

  std::int64_t num_particles() const;
  PicDiagnostics diagnostics() const;

  /// Fields gathered to global node order.
  std::vector<double> gather_rho() const;
  std::vector<double> gather_phi() const;
  std::vector<double> gather_efield() const;
  /// All particle positions (unordered across ranks).
  std::vector<double> gather_positions() const;

  /// Particles that crossed a rank boundary in the last step.
  std::int64_t last_migrations() const { return last_migrations_; }

  /// Cumulative traffic counters of the solver's communicator (boundary
  /// merges, Thomas pipeline hops, phi ghosts, particle migration). Shared
  /// accounting with every other subsystem — see docs/communication.md.
  const comm::CommStats& comm_stats() const { return comm_.stats(); }
  const comm::Communicator& communicator() const { return comm_; }

  /// Optional performance co-simulation on ranks [0, num_parts).
  void attach_cluster(sim::Cluster* cluster);

  /// Split-phase overlap of the Thomas pipeline (docs/communication.md):
  /// each rank precomputes its right-hand side (rho * h^2 per unknown)
  /// while the elimination carry from its left neighbour is in flight, so
  /// the co-simulated cluster hides that prep time behind the hop
  /// (Cluster::send_overlapped). Pure code motion on the host: the same
  /// products feed the same recurrence, so the fields are bitwise
  /// identical in both modes.
  void set_overlap(bool on) { overlap_ = on; }
  bool overlap() const { return overlap_; }

  /// The persisted RNG stream position (mirrors Pic::rng_counter).
  std::uint64_t rng_counter() const { return rng_.counter(); }

  /// Snapshot section "simpic/distributed" (docs/checkpoint.md): per-rank
  /// particle and field arrays, the ion background, the migration counter,
  /// and the RNG stream position. The decomposition, communicator, and all
  /// exchange scratch are rebuilt by the constructor, so restore only
  /// validates them. Throws CheckError on option mismatch or corruption.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  struct RankState {
    // Node slice [node_begin, node_end] inclusive; interior ranks share
    // their boundary nodes with their neighbours.
    std::int64_t node_begin = 0;
    std::int64_t node_end = 0;
    double x_lo = 0.0;  ///< owned particle interval [x_lo, x_hi)
    double x_hi = 0.0;

    std::vector<double> x;
    std::vector<double> v;
    std::vector<double> w;

    std::vector<double> rho;  ///< local nodes (node_end - node_begin + 1)
    std::vector<double> phi;
    std::vector<double> e;
  };

  int owner_of(double x) const;
  void deposit();
  void solve_field();
  void push_and_migrate();

  PicOptions options_;
  double dx_;  ///< derived from options, rebuilt // cpx-lint: allow(ckpt)
  double background_ = 0.0;
  CounterRng rng_;
  std::vector<RankState> ranks_;
  comm::Communicator comm_;  ///< rebuilt by ctor // cpx-lint: allow(ckpt)
  // Receive scratch, one slot per rank (sized once in the constructor so
  // the steady-state exchange stays allocation-free). Deliberately outside
  // the snapshot: the constructor rebuilds it.
  std::vector<double> rho_from_left_;    // cpx-lint: allow(ckpt)
  std::vector<double> rho_from_right_;   // cpx-lint: allow(ckpt)
  std::vector<double> phi_shared_recv_;  // cpx-lint: allow(ckpt)
  std::vector<double> ghost_from_left_;  // cpx-lint: allow(ckpt)
  std::vector<double> ghost_from_right_; // cpx-lint: allow(ckpt)
  std::vector<std::vector<double>> migr_pack_;    // cpx-lint: allow(ckpt)
  std::vector<std::vector<double>> rhs_scratch_;  // cpx-lint: allow(ckpt)
  std::vector<std::vector<double>> elim_c_;       // cpx-lint: allow(ckpt)
  std::vector<sim::Message> message_scratch_;     // cpx-lint: allow(ckpt)
  std::int64_t last_migrations_ = 0;
  bool overlap_ = false;
  sim::Cluster* cluster_ = nullptr;  // attached // cpx-lint: allow(ckpt)
  sim::RegionId region_deposit_ = -1;  // cpx-lint: allow(ckpt)
  sim::RegionId region_field_ = -1;    // cpx-lint: allow(ckpt)
  sim::RegionId region_push_ = -1;     // cpx-lint: allow(ckpt)
  sim::RegionId region_migrate_ = -1;  // cpx-lint: allow(ckpt)
};

}  // namespace cpx::simpic
