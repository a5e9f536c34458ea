// Resource planner: the paper's headline use case as a command-line tool.
//
// Given an engine case and a core budget, benchmark every component on the
// virtual cluster, fit scaling curves, and run Algorithm 1 to produce the
// rank allocation and the predicted coupled runtime — the "rapid design
// space and run-time setup exploration" of the paper's abstract.
//
//   ./resource_planner [--cores=40000] [--case=engine|engine-casing|small]
//                      [--optimized] [--density-steps=1000]

#include <algorithm>
#include <iostream>

#include "perfmodel/allocator.hpp"
#include "perfmodel/persistence.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "workflow/case_io.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

int main(int argc, char** argv) try {
  using namespace cpx;
  Options opts = Options::parse(argc, argv);
  opts.describe("cores", "total core budget (default 40000)");
  opts.describe("case", "engine (16-instance HPC-Combustor-HPT), "
                        "engine-casing, or small");
  opts.describe("config", "path to a custom engine-case file "
                          "(overrides --case; see examples/cases/)");
  opts.describe("optimized", "use the Optimized-STC combustor proxy");
  opts.describe("density-steps", "modelled run length (default 1000)");
  opts.describe("save-models", "write the fitted component models to a file");
  opts.describe("load-models",
                "reuse previously fitted models instead of re-benchmarking");
  opts.reject_unknown({"help", "cores", "case", "config", "optimized",
                       "density-steps", "save-models", "load-models"});
  if (opts.has("help")) {
    std::cout << opts.help_text("resource_planner");
    return 0;
  }

  const int cores = static_cast<int>(opts.get_int("cores", 40000));
  const bool optimized = opts.get_bool("optimized", false);
  const std::string which = opts.get_string("case", "engine");
  CPX_REQUIRE(which == "small" || which == "engine" ||
                  which == "engine-casing",
              "unknown --case=" << which
                                << " (expected small, engine or "
                                   "engine-casing)");
  const std::string config = opts.get_string("config", "");
  const workflow::EngineCase ec =
      !config.empty() ? workflow::load_engine_case_file(config)
      : which == "small"
          ? workflow::small_validation_case(optimized)
      : which == "engine-casing"
          ? workflow::hpc_combustor_hpt_with_casing(optimized)
          : workflow::hpc_combustor_hpt(optimized);

  workflow::ModelOptions model_opts;
  model_opts.density_steps =
      static_cast<int>(opts.get_int("density-steps", 1000));
  // The paper's 100-rank floor per instance suits a 40,000-core budget;
  // scale it down for small budgets so planning stays feasible.
  model_opts.app_min_ranks = std::min(
      100, std::max(1, cores / (4 * static_cast<int>(ec.instances.size()))));

  std::cout << "case: " << ec.name << " ("
            << static_cast<double>(ec.total_cells()) / 1e9
            << "Bn effective cells, " << ec.instances.size()
            << " instances, " << ec.couplers.size() << " coupler units)\n";
  workflow::CaseModels models;
  const std::string load_path = opts.get_string("load-models", "");
  if (!load_path.empty()) {
    std::cout << "loading fitted models from " << load_path << "...\n";
    const perfmodel::ModelSet saved = perfmodel::load_models_file(load_path);
    models.apps = saved.apps;
    models.cus = saved.cus;
  } else {
    std::cout << "benchmarking components on the virtual cluster...\n";
    models = workflow::build_case_models(ec, sim::MachineModel::archer2(),
                                         model_opts);
  }
  const std::string save_path = opts.get_string("save-models", "");
  if (!save_path.empty()) {
    perfmodel::save_models_file(save_path, {models.apps, models.cus});
    std::cout << "saved fitted models to " << save_path << "\n";
  }
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(models.apps, models.cus, cores);

  print_banner(std::cout, "Rank allocation (" + std::to_string(cores) +
                              "-core budget)");
  Table table({"component", "ranks", "predicted runtime (s)",
               "share of budget %"});
  table.set_precision(4);
  int used = 0;
  for (std::size_t i = 0; i < models.apps.size(); ++i) {
    used += alloc.app_ranks[i];
    table.add_row({models.apps[i].name,
                   static_cast<long long>(alloc.app_ranks[i]),
                   models.apps[i].time(alloc.app_ranks[i]),
                   100.0 * alloc.app_ranks[i] / cores});
  }
  for (std::size_t i = 0; i < models.cus.size(); ++i) {
    used += alloc.cu_ranks[i];
    table.add_row({models.cus[i].name,
                   static_cast<long long>(alloc.cu_ranks[i]),
                   models.cus[i].time(alloc.cu_ranks[i]),
                   100.0 * alloc.cu_ranks[i] / cores});
  }
  table.print(std::cout);
  std::cout << "allocated " << used << " of " << cores << " cores ("
            << cores - used
            << " left over: every component is at its cap or past its "
               "scaling optimum)\n"
            << "predicted coupled runtime = " << alloc.predicted_runtime
            << " virtual s for " << model_opts.density_steps
            << " density steps\n"
            << "  slowest application: " << alloc.app_time
            << " s; slowest coupler unit: " << alloc.cu_time << " s ("
            << 100.0 * alloc.cu_time / alloc.predicted_runtime
            << "% coupling overhead)\n";
  return 0;
} catch (const cpx::CheckError& e) {
  std::cerr << "resource_planner: " << e.what() << '\n';
  return 2;
}
