#pragma once
// SIMPIC performance instance: replays the mini-app's per-timestep compute
// and communication structure on the virtual cluster.
//
// The 1-D grid is block-decomposed over the ranks. Per timestep:
//   1. charge deposition over the rank's particles (perfectly parallel),
//   2. local tridiagonal elimination over the rank's cells, then the
//      *serial inter-rank pipeline*: the forward elimination's boundary
//      coefficients ripple rank 0 -> p-1, the back substitution ripples
//      p-1 -> 0. This O(p * latency) chain is SIMPIC's scalability wall —
//      and the reason "particles per cell" (parallel work per rank) is the
//      knob that positions the parallel-efficiency crossover.
//   3. grid-boundary exchange with the two 1-D neighbours,
//   4. particle gather+push (perfectly parallel),
//   5. migration of boundary-crossing particles to the two neighbours,
//   6. a diagnostics allreduce.

#include <cstdint>
#include <string>

#include "sim/app.hpp"
#include "simpic/stc.hpp"

namespace cpx::simpic {

/// Work-model coefficients for the SIMPIC kernels. The per-particle costs
/// are calibrated once (bench/calibrate) so Base-STC-28M reproduces the
/// paper's pressure-solver crossover (PE < 50% near 3000 cores) and reused
/// unchanged for every other configuration.
struct WorkModel {
  double flops_per_particle_deposit = 500.0;
  double bytes_per_particle_deposit = 96.0;
  double flops_per_particle_push = 1000.0;
  double bytes_per_particle_push = 160.0;
  double flops_per_cell_field = 16.0;
  double bytes_per_cell_field = 64.0;
  /// Fraction of a rank's particles that cross to a neighbour per step.
  double migration_fraction = 0.01;
  std::size_t bytes_per_particle = 3 * sizeof(double);  ///< x, v, weight
  /// Boundary payloads of the pipelined field solve.
  std::size_t pipeline_forward_bytes = 2 * sizeof(double);
  std::size_t pipeline_backward_bytes = sizeof(double);
};

class Instance final : public sim::App {
 public:
  /// `step_weight` scales one call to step() to a fraction or multiple of
  /// an STC timestep. The coupled workflow uses it to map STC total work
  /// onto the coupling schedule: an STC of S timesteps standing in for a
  /// pressure-solver run of N coupled steps executes S/N STC steps per
  /// coupled step (Base-STC: 50000/2000 = 25; Optimized-STC: 450/2000 =
  /// 0.225). Both compute and the field-solve pipeline scale with it.
  Instance(std::string name, const StcConfig& config, sim::RankRange ranks,
           const WorkModel& work = {}, double step_weight = 1.0);

  const std::string& name() const override { return name_; }
  sim::RankRange ranks() const override { return ranks_; }
  void step(sim::Cluster& cluster) override;

  const StcConfig& config() const { return config_; }
  const WorkModel& work_model() const { return work_; }

  /// Particles owned by one rank (uniform plasma: balanced decomposition).
  double particles_per_rank() const;
  double cells_per_rank() const;
  double step_weight() const { return step_weight_; }

  /// Virtual seconds of one full field-solve pipeline (forward + backward
  /// boundary ripple across all ranks) for this instance's placement.
  double pipeline_seconds(const sim::Cluster& cluster) const;

 private:
  /// Interns the regions and caches everything step() charges that
  /// depends only on the cluster (sim::App::needs_bind).
  void bind(sim::Cluster& cluster);

  std::string name_;
  StcConfig config_;
  sim::RankRange ranks_;
  WorkModel work_;
  double step_weight_ = 1.0;

  // Bound to one cluster by bind(). The plasma is uniform, so every rank
  // charges the same compute seconds.
  sim::RegionId region_deposit_ = -1;
  sim::RegionId region_field_ = -1;
  sim::RegionId region_push_ = -1;
  sim::RegionId region_migrate_ = -1;
  sim::RegionId region_reduce_ = -1;
  double deposit_s_ = 0.0;
  double field_s_ = 0.0;
  double push_s_ = 0.0;
  double pipeline_s_ = 0.0;      ///< step_weight * pipeline_seconds
  sim::ExchangeSchedule migrate_;  ///< 1-D neighbour migration round
};

}  // namespace cpx::simpic
