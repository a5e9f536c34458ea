#include "workflow/models.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "cpx/unit.hpp"
#include "mgcfd/instance.hpp"
#include "perfmodel/sweep.hpp"
#include "simpic/instance.hpp"
#include "thermal/instance.hpp"
#include "support/check.hpp"

namespace cpx::workflow {
namespace {

/// Minimal App used as the two sides of a standalone coupler benchmark.
class NullApp final : public sim::App {
 public:
  NullApp(std::string name, sim::RankRange ranks)
      : name_(std::move(name)), ranks_(ranks) {}
  const std::string& name() const override { return name_; }
  sim::RankRange ranks() const override { return ranks_; }
  void step(sim::Cluster&) override {}

 private:
  std::string name_;
  sim::RankRange ranks_;
};

/// Standalone coupler-unit benchmark: the outer two ranks host dummy side
/// apps, the rest form the CU; one "step" is one coupling exchange.
class CouplerBenchApp final : public sim::App {
 public:
  CouplerBenchApp(const CouplerSpec& spec, sim::RankRange ranks)
      : name_("bench_" + spec.name),
        ranks_(ranks),
        side_a_("side_a", {ranks.begin, ranks.begin + 1}),
        side_b_("side_b", {ranks.end - 1, ranks.end}) {
    CPX_REQUIRE(ranks.size() >= 3,
                "CouplerBenchApp: need >= 3 ranks (2 sides + CU)");
    coupler::UnitConfig config;
    config.kind = spec.kind;
    config.interface_cells = spec.interface_cells;
    config.tree_search = spec.tree_search;
    unit_ = std::make_unique<coupler::CouplerUnit>(
        spec.name, config, sim::RankRange{ranks.begin + 1, ranks.end - 1},
        side_a_, side_b_);
  }

  const std::string& name() const override { return name_; }
  sim::RankRange ranks() const override { return ranks_; }
  void step(sim::Cluster& cluster) override { unit_->exchange(cluster); }

 private:
  std::string name_;
  sim::RankRange ranks_;
  NullApp side_a_;
  NullApp side_b_;
  std::unique_ptr<coupler::CouplerUnit> unit_;
};

/// Steps of this instance over the modelled run (its curve is per step).
double steps_in_run(const EngineCase& engine_case, const InstanceSpec& spec,
                    int density_steps) {
  if (spec.kind == AppKind::kSimpic) {
    return static_cast<double>(density_steps) *
           engine_case.pressure_steps_per_density_step;
  }
  return static_cast<double>(density_steps) *
         spec.iterations_per_density_step;
}

}  // namespace

perfmodel::AppFactory instance_factory(const EngineCase& engine_case,
                                       const InstanceSpec& spec) {
  switch (spec.kind) {
    case AppKind::kMgcfd:
      return [spec](sim::RankRange ranks) -> std::unique_ptr<sim::App> {
        return std::make_unique<mgcfd::Instance>(spec.name, spec.mesh_cells,
                                                 ranks);
      };
    case AppKind::kThermal:
      return [spec](sim::RankRange ranks) -> std::unique_ptr<sim::App> {
        return std::make_unique<thermal::Instance>(spec.name,
                                                   spec.mesh_cells, ranks);
      };
    case AppKind::kSimpic:
      break;
  }
  const double weight = static_cast<double>(spec.stc.timesteps) /
                        engine_case.coupled_pressure_steps_per_run;
  return [spec, weight](sim::RankRange ranks) -> std::unique_ptr<sim::App> {
    return std::make_unique<simpic::Instance>(spec.name, spec.stc, ranks,
                                              simpic::WorkModel{}, weight);
  };
}

perfmodel::AppFactory coupler_bench_factory(const CouplerSpec& spec) {
  return [spec](sim::RankRange ranks) -> std::unique_ptr<sim::App> {
    return std::make_unique<CouplerBenchApp>(spec, ranks);
  };
}

CaseModels build_case_models(const EngineCase& engine_case,
                             const sim::MachineModel& machine,
                             const ModelOptions& options) {
  CaseModels models;

  // Benchmark each *distinct* configuration once, then share the curve
  // across identical instances (the 11 x 24M compressor rows).
  std::map<std::string, perfmodel::ScalingCurve> curve_cache;

  for (const InstanceSpec& spec : engine_case.instances) {
    const std::int64_t units =
        spec.kind == AppKind::kSimpic ? spec.stc.cells : spec.mesh_cells;
    const std::int64_t min_per_rank = spec.kind == AppKind::kSimpic
                                          ? options.min_cells_per_rank_simpic
                                          : options.min_cells_per_rank;
    const int max_ranks = static_cast<int>(
        std::max<std::int64_t>(1, units / min_per_rank));

    const char* kind_tag = spec.kind == AppKind::kMgcfd    ? "mgcfd_"
                           : spec.kind == AppKind::kSimpic ? "simpic_"
                                                           : "thermal_";
    const std::string key = kind_tag + std::to_string(spec.mesh_cells) +
                            "_" + spec.stc.name;
    auto it = curve_cache.find(key);
    if (it == curve_cache.end()) {
      std::vector<int> sweep;
      for (int cores : options.app_sweep) {
        if (cores <= max_ranks) {
          sweep.push_back(cores);
        }
      }
      // Always keep at least two points so a curve can be fitted.
      while (sweep.size() < 2) {
        sweep.push_back(std::max(1, max_ranks / (sweep.empty() ? 2 : 1)));
      }
      it = curve_cache
               .emplace(key, perfmodel::fit_scaling(
                                 instance_factory(engine_case, spec),
                                 machine, sweep, options.bench_steps))
               .first;
    }

    perfmodel::InstanceModel m;
    m.name = spec.name;
    m.curve = it->second;
    m.scale = steps_in_run(engine_case, spec, options.density_steps);
    m.min_ranks = std::min(options.app_min_ranks, max_ranks);
    m.max_ranks = max_ranks;
    models.apps.push_back(std::move(m));
  }

  for (const CouplerSpec& spec : engine_case.couplers) {
    std::vector<int> sweep;
    for (int cores : options.cu_sweep) {
      sweep.push_back(cores + 2);  // two side ranks in the bench app
    }
    const perfmodel::ScalingCurve curve = perfmodel::fit_scaling(
        coupler_bench_factory(spec), machine, sweep, options.bench_steps);

    perfmodel::InstanceModel m;
    m.name = spec.name;
    m.curve = curve;
    m.scale = static_cast<double>(options.density_steps) /
              spec.exchange_every;
    m.min_ranks = options.cu_min_ranks;
    m.max_ranks = static_cast<int>(std::max<std::int64_t>(
        2, spec.interface_cells / options.min_cells_per_rank));
    models.cus.push_back(std::move(m));
  }
  return models;
}

}  // namespace cpx::workflow
