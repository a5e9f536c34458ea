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
// It runs the kernels of simpic/particle.hpp over each rank's cells. A
// rank owns a range of cells, and a particle lives on the rank owning its
// locate() cell, the index its deposit and gather use, so a rank only
// touches its own node slice.
//
// Bitwise equal to Pic: at one part, the whole run while Pic deposits in
// one chunk (at most 8192 particles); at any part count, the field solve
// given the same rho. At more parts the runs drift apart: a migrant is
// appended on its new rank, which changes the deposit's summation order,
// and sheet crossings amplify the round-off (DistributedPicVsSequential
// bounds the drift). A canonical cell order of the particles that makes
// them bitwise equal is ROADMAP item 4.
//
// It moves real bytes only; SIMPIC's virtual time comes from its
// performance instance (simpic::Instance).
//
// Restricted to absorbing (Dirichlet) walls: the periodic variant needs a
// cyclic solve that the production-relevant pipeline discussion does not
// depend on.

#include <cstdint>
#include <vector>

#include "comm/communicator.hpp"
#include "simpic/particle.hpp"
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

  /// Loads the same initial condition as Pic::load_uniform (each particle
  /// is assigned to the rank owning its cell).
  void load_uniform(int per_cell, double v_thermal = 0.0,
                    double perturbation = 0.0);

  /// One step: deposit with boundary-node merging, the pipelined Thomas
  /// field solve, push and particle migration.
  void step();
  void run(int steps);

  /// Deep invariant walk (tier 2, support/check.hpp), as Pic::validate
  /// per rank, plus: neighbours' copies of a shared node are equal, and
  /// every particle lies in a cell its rank owns. Runs after every step
  /// when check::deep() is on; the charge audit of the gathered rho runs
  /// inside the deposit. Throws CheckError.
  void validate() const;

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

  /// The persisted RNG stream position (mirrors Pic::rng_counter).
  std::uint64_t rng_counter() const { return rng_.counter(); }

  /// Snapshot section "simpic/distributed" (docs/checkpoint.md): per-rank
  /// particle and field arrays, the ion background, the migration counter,
  /// and the RNG stream position. The decomposition, communicator, and all
  /// exchange scratch are rebuilt by the constructor, so restore only
  /// validates them. Throws CheckError on option mismatch or corruption,
  /// and on a particle outside its rank's cells.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  struct RankState {
    // Owns cells [cell_begin, cell_end) and holds their nodes, sharing
    // the boundary nodes with its neighbours.
    std::int64_t cell_begin = 0;
    std::int64_t cell_end = 0;
    std::size_t nodes() const {
      return static_cast<std::size_t>(cell_end - cell_begin + 1);
    }
    bool owns(std::int64_t cell) const {
      return cell >= cell_begin && cell < cell_end;
    }

    std::vector<double> x;
    std::vector<double> v;
    std::vector<double> w;

    std::vector<double> rho;  ///< the nodes() local nodes
    std::vector<double> phi;
    std::vector<double> e;
    std::vector<double> c;  ///< Thomas scratch, not in the snapshot
  };

  std::int64_t cell_of(double x) const {
    return locate(x, grid_).cell;
  }
  int owner_of(std::int64_t cell) const;
  void deposit();
  void solve_field();
  void push_and_migrate();
  /// The field in global node order (each rank's slice copied into out).
  void gather(std::vector<double> RankState::*field,
              std::vector<double>& out) const;

  PicOptions options_;
  GridView grid_;  ///< whole grid, from options // cpx-lint: allow(ckpt)
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
  std::vector<double> rho_audit_;  ///< deep-check scratch // cpx-lint: allow(ckpt)
  std::int64_t last_migrations_ = 0;
};

}  // namespace cpx::simpic
