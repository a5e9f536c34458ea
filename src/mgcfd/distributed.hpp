#pragma once
// Distributed-memory MG-CFD: the Euler solver actually partitioned over
// ranks with real halo exchange, executed rank-by-rank in process. The
// data plane is the comm layer (src/comm/, docs/communication.md): a
// world communicator over the parts and a precomputed ExchangePlan built
// from the mesh send lists move the halo bytes exactly as an MPI
// implementation would.
//
// This closes the loop between the performance instance (instance.hpp,
// which only *accounts* for communication) and the numerics: the
// distributed solver evaluates the flux kernel (flux.hpp) of a sequential
// reference solver and reproduces its solution on the same mesh bit for
// bit (tests/mgcfd_test.cpp holds that reference), while its
// communication structure — per-neighbour pack/send/unpack plus a
// residual allreduce — is precisely what the performance instance charges
// to the virtual cluster.
// Passing a Cluster lets one run co-simulate: real physics and virtual
// timing from the same execution, charged with the halo plan's real
// message sizes. The co-simulated step is synchronous; comm/compute
// overlap is modelled once, on the performance instance (instance.hpp,
// docs/communication.md).
//
// Each step exchanges the halo first, then makes one ascending pass over
// each part's edges and one pass over its owned cells (closure flux and
// update). Every residual reads each cell's pressure and sound speed from
// a cache refreshed once per cell slot (flux.hpp), not once per incident
// edge. The flux, the residual adds and the cell update are spelled per
// component, in registers, with the sequential solver's expressions
// (flux.hpp). Parts step one after another, so one scratch sized to the
// largest part serves them all.

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/exchange_plan.hpp"
#include "mesh/partition.hpp"
#include "mgcfd/euler.hpp"
#include "sim/cluster.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::mgcfd {

class DistributedSolver {
 public:
  /// Partitions `mesh` into `parts` ranks with RCB. Throws CheckError
  /// unless options.mg_levels is 1: it steps a single grid, and the
  /// paper's density-solver instances are modelled at the timestep level
  /// anyway.
  DistributedSolver(const mesh::UnstructuredMesh& mesh, int parts,
                    const EulerOptions& options);

  int num_parts() const { return static_cast<int>(parts_.size()); }
  std::int64_t num_cells() const { return global_cells_; }

  void set_uniform(const State& u);
  /// Sets the state of one global cell (routed to its owner).
  void set_cell(mesh::CellId cell, const State& u);

  /// One explicit timestep across all ranks: halo exchange, per-rank flux
  /// residual and update, residual allreduce. Returns the global residual
  /// norm (as the allreduce would deliver it: deterministic rank-order
  /// combine of per-rank partial sums). Divergence is a defined outcome:
  /// a step whose update leaves a non-finite density returns NaN, and so
  /// does a step that finds one when it refreshes a part's primitives; it
  /// evaluates no flux on that part or any later one. With a cluster
  /// attached, the step charges one synchronous schedule: the halo
  /// exchange, each part's flux work and update, and the allreduce.
  double step();

  /// Runs `steps` timesteps; returns the last residual norm, or NaN after
  /// stopping at the first step that diverged.
  double run(int steps);

  /// Solution gathered back to global cell order.
  std::vector<State> gather_solution() const;

  /// Cumulative traffic counters of the solver's communicator (halo
  /// payloads + residual allreduce contributions). Shared accounting with
  /// every other subsystem — see docs/communication.md.
  const comm::CommStats& comm_stats() const { return comm_.stats(); }
  const comm::Communicator& communicator() const { return comm_; }

  /// Halo payload bytes moved by one exchange (fixed by the partitioning).
  std::size_t halo_bytes_per_exchange() const {
    return halo_plan_.bytes_per_exchange();
  }

  /// Attaches a virtual cluster for performance co-simulation: subsequent
  /// steps charge compute (from real kernel work counts) and communication
  /// (the halo plan's channels, bound here as one schedule) to `cluster`
  /// on ranks [0, num_parts). Throws CheckError, leaving the previous
  /// attachment in place, when the cluster has fewer ranks than parts.
  /// Pass nullptr to detach.
  void attach_cluster(sim::Cluster* cluster);

  /// Snapshot section "mgcfd/distributed" (docs/checkpoint.md): per-part
  /// solution states including the halo ghost slots, so a restored solver
  /// can step without a priming exchange. Partitioning, exchange plan, and
  /// kernel scratch are rebuilt by the constructor; restore validates the
  /// decomposition shape and throws CheckError on mismatch or corruption.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  struct PartState {
    mesh::LocalMesh local;
    std::vector<State> u;         ///< owned + ghost states
    std::vector<State> residual;  ///< owned only
    std::vector<mesh::Vec3> closure;  ///< owned only
    std::vector<double> volumes;      ///< owned only
    /// owned only: face area of the local time step (mgcfd::cell_face_area)
    std::vector<double> face_area;
  };

  /// primitives_[i] = primitives(ps.u[i]) for every slot of the part;
  /// false as soon as a slot holds a non-finite density.
  bool refresh_primitives(const PartState& ps);
  void scatter_residuals(PartState& ps) const;
  double finalize_part(PartState& ps);
  /// Flux work charged to the co-simulated clock: the part's edge fluxes
  /// plus the update of its owned cells.
  static sim::Work flux_work(const PartState& ps);

  // Everything below except parts_[].u is rebuilt by the
  // constructor from (mesh, parts, options); the snapshot stores only the
  // states plus enough shape to validate the decomposition matches.
  EulerOptions options_;     // validated on restore // cpx-lint: allow(ckpt)
  std::int64_t global_cells_ = 0;
  std::vector<int> part_of_;            // cpx-lint: allow(ckpt)
  std::vector<std::int32_t> local_of_;  // cpx-lint: allow(ckpt)
  std::vector<PartState> parts_;
  comm::Communicator comm_;             // cpx-lint: allow(ckpt)
  comm::ExchangePlan halo_plan_;        // cpx-lint: allow(ckpt)
  std::vector<double> norm_partials_;   // cpx-lint: allow(ckpt)
  /// Pressure and sound speed of the slots of the part being stepped,
  /// refreshed from its states before its edge pass. One scratch sized to
  /// the largest part serves every part.
  std::vector<Primitives> primitives_;  // cpx-lint: allow(ckpt)
  sim::ExchangeSchedule halo_schedule_;  ///< bound by attach_cluster // cpx-lint: allow(ckpt)
  sim::Cluster* cluster_ = nullptr;     // cpx-lint: allow(ckpt)
  sim::RegionId region_flux_ = -1;      // cpx-lint: allow(ckpt)
  sim::RegionId region_halo_ = -1;      // cpx-lint: allow(ckpt)
  sim::RegionId region_reduce_ = -1;    // cpx-lint: allow(ckpt)
};

}  // namespace cpx::mgcfd
