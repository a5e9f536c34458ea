#pragma once
// Thermal-casing performance instance: one implicit conduction solve per
// coupled step — CG iterations of SpMV compute plus halo exchange plus two
// dot-product allreduces each, the classic implicit-solver communication
// pattern. Scales like a lighter cousin of the pressure field: good
// until the per-iteration collectives and surface terms take over.

#include <cstdint>
#include <string>

#include "mesh/stats.hpp"
#include "sim/app.hpp"

namespace cpx::thermal {

struct WorkModel {
  double flops_per_cell_per_iteration = 60.0;  ///< SpMV + vector updates
  double bytes_per_cell_per_iteration = 120.0;
  int cg_iterations = 25;
  std::size_t bytes_per_halo_cell = sizeof(double);
};

class Instance final : public sim::App {
 public:
  Instance(std::string name, std::int64_t mesh_cells, sim::RankRange ranks,
           const WorkModel& work = {});

  const std::string& name() const override { return name_; }
  sim::RankRange ranks() const override { return ranks_; }
  void step(sim::Cluster& cluster) override;

  std::int64_t mesh_cells() const { return mesh_cells_; }

 private:
  /// Interns the regions and builds the ring halo schedule.
  void bind(sim::Cluster& cluster);

  std::string name_;
  std::int64_t mesh_cells_;
  sim::RankRange ranks_;
  WorkModel work_;
  mesh::PartitionStats stats_;
  // Bound once per cluster (sim::App::needs_bind).
  sim::RegionId region_spmv_ = -1;
  sim::RegionId region_halo_ = -1;
  sim::RegionId region_dot_ = -1;
  sim::ExchangeSchedule halo_;  ///< ring halo round (empty on one rank)
};

}  // namespace cpx::thermal
