#pragma once
// Builds the empirical performance model for an engine case (Fig 7's
// pipeline): benchmark each distinct mini-app configuration standalone on
// the virtual cluster across core counts, fit a scaling curve per
// configuration, and scale per instance by its iteration count over the
// modelled run. The resulting InstanceModels feed Alg 1
// (perfmodel::distribute_ranks).

#include <vector>

#include "perfmodel/allocator.hpp"
#include "perfmodel/sweep.hpp"
#include "sim/machine.hpp"
#include "workflow/engine_case.hpp"

namespace cpx::workflow {

struct ModelOptions {
  /// Density steps of the modelled full run (1 revolution = 1000).
  int density_steps = 1000;
  /// Rank floor per application instance (the paper uses 100 at engine
  /// scale) and per coupler unit.
  int app_min_ranks = 100;
  int cu_min_ranks = 1;
  /// Per-step repetitions when benchmarking (virtual time is
  /// deterministic, so few are needed).
  int bench_steps = 2;
  /// Core counts swept per application configuration; capped per instance
  /// so a mesh is never spread thinner than min_cells_per_rank.
  std::vector<int> app_sweep = {100,  160,  250,  400,   640,   1000,
                                1600, 2500, 4000, 6400,  10000, 16000,
                                25000, 40000};
  std::vector<int> cu_sweep = {2, 4, 8, 16, 32, 64, 128, 256};
  /// 3-D meshes are never spread thinner than this.
  std::int64_t min_cells_per_rank = 2000;
  /// SIMPIC's 1-D grid goes much thinner (the real code runs ~40 cells per
  /// rank at the paper's scales); its work lives in the particles.
  std::int64_t min_cells_per_rank_simpic = 16;
};

struct CaseModels {
  std::vector<perfmodel::InstanceModel> apps;  ///< per EngineCase instance
  std::vector<perfmodel::InstanceModel> cus;   ///< per EngineCase coupler
};

/// Benchmarks and fits every component of the case.
CaseModels build_case_models(const EngineCase& engine_case,
                             const sim::MachineModel& machine,
                             const ModelOptions& options = {});

/// The factory build_case_models sweeps for one instance configuration.
perfmodel::AppFactory instance_factory(const EngineCase& engine_case,
                                       const InstanceSpec& spec);

/// The factory build_case_models sweeps for one coupler unit: the outer
/// two ranks host empty side apps, the rest form the unit, and one step
/// is one coupling exchange (needs >= 3 ranks).
perfmodel::AppFactory coupler_bench_factory(const CouplerSpec& spec);

}  // namespace cpx::workflow
