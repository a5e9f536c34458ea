#pragma once
// MG-CFD performance instance: replays the mini-app's per-timestep compute
// and communication structure on the virtual cluster.
//
// One solver timestep is one multigrid V-cycle: on each level, smoothing
// sweeps (edge-flux + cell-update kernels) interleaved with halo exchange,
// then a residual allreduce. The finest level dominates both flops and
// halo bytes; coarse-level exchanges are latency-bound rounds.
//
// Two construction modes:
//  * measured — from a real mesh + RCB partitioning (small scale; per-rank
//    owned/halo/neighbour data taken from the actual partition), and
//  * analytic — from mesh::PartitionStats (paper-scale instances: 8M-380M
//    cells on hundreds to thousands of ranks), with ranks arranged in a 3-D
//    grid so neighbour messages have realistic node locality.
// Tests verify the two modes agree at small scale.

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/partition.hpp"
#include "mesh/stats.hpp"
#include "sim/app.hpp"

namespace cpx::mgcfd {

/// Work-model coefficients for the MG-CFD kernels (per fine-level entity).
struct WorkModel {
  double flops_per_edge = 40.0;
  double bytes_per_edge = 42.0;    ///< indirect reads/writes of 2x5 vars
  double flops_per_cell = 20.0;
  double bytes_per_cell = 25.0;
  double edges_per_cell = 3.0;     ///< structured-like unstructured mesh
  std::size_t bytes_per_halo_cell = 5 * sizeof(double);
  int mg_levels = 4;
  double level_cell_ratio = 0.5;   ///< cells(l+1)/cells(l) from agglomeration
  int smooth_steps = 1;
};

class Instance final : public sim::App {
 public:
  /// Analytic mode: per-rank statistics from the analytic partition model.
  Instance(std::string name, std::int64_t global_cells, sim::RankRange ranks,
           const WorkModel& work = {});

  /// Measured mode: per-rank statistics from an actual partitioning of a
  /// real mesh (partitioning.num_parts must equal ranks.size()).
  Instance(std::string name, const mesh::UnstructuredMesh& mesh,
           const mesh::Partitioning& partitioning, sim::RankRange ranks,
           const WorkModel& work = {});

  const std::string& name() const override { return name_; }
  sim::RankRange ranks() const override { return ranks_; }
  void step(sim::Cluster& cluster) override;

  std::int64_t global_cells() const { return global_cells_; }
  const WorkModel& work_model() const { return work_; }

  /// Mean owned cells per rank (for reporting).
  double mean_owned() const;

  /// Halo overlap (docs/communication.md): step() charges the
  /// finest-level halo round as one overlapped exchange whose window is
  /// each rank's interior-cell share of the sweep compute, then charges
  /// the boundary share. Totals match the synchronous schedule; only
  /// placement differs.
  void set_overlap(bool on) override { overlap_ = on; }

 private:
  void build_analytic(std::int64_t global_cells);
  /// Interns the regions and caches everything step() charges that
  /// depends only on the cluster (sim::App::needs_bind).
  void bind(sim::Cluster& cluster);

  std::string name_;
  sim::RankRange ranks_;
  std::int64_t global_cells_ = 0;
  WorkModel work_;
  bool overlap_ = false;
  // Per-rank loads, indexed by rank - ranks_.begin: owned cells, and in
  // CSR form the neighbour ranks (cluster-global ids) and the halo cells
  // sent to each, rank l's in [nbr_begin_[l], nbr_begin_[l + 1]).
  std::vector<std::int64_t> owned_;
  std::vector<std::size_t> nbr_begin_;
  std::vector<sim::Rank> nbr_rank_;
  std::vector<std::int64_t> nbr_halo_;

  // Bound to one cluster by bind().
  sim::RegionId region_flux_ = -1;
  sim::RegionId region_halo_ = -1;
  sim::RegionId region_mg_ = -1;
  sim::RegionId region_reduce_ = -1;
  sim::ExchangeSchedule halo_;      ///< finest-level halo round
  std::vector<double> sweep_s_;     ///< per rank: whole V-cycle sweeps
  std::vector<double> interior_s_;  ///< overlap: interior share
  std::vector<double> boundary_s_;  ///< overlap: boundary share
  std::vector<double> delay_s_;     ///< remaining fine + coarse rounds
};

}  // namespace cpx::mgcfd
