// Full coupled engine simulation: plan with the model, execute the coupled
// mini-app simulation on the virtual cluster, and compare prediction with
// measurement — the complete §V workflow in one program.
//
//   ./engine_simulation [--cores=40000] [--steps=20] [--optimized]
//                       [--trace=out.json]   (Chrome trace of the coupled
//                        run; use a small --cores with this)

#include <algorithm>
#include <fstream>
#include <iostream>

#include "perfmodel/allocator.hpp"
#include "sim/trace.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

int main(int argc, char** argv) try {
  using namespace cpx;
  const Options opts = Options::parse(argc, argv);
  opts.reject_unknown({"cores", "steps", "optimized", "trace"});
  const int cores = static_cast<int>(opts.get_int("cores", 40000));
  const int steps = static_cast<int>(opts.get_int("steps", 20));
  const bool optimized = opts.get_bool("optimized", false);

  const workflow::EngineCase ec = workflow::hpc_combustor_hpt(optimized);
  const auto machine = sim::MachineModel::archer2();

  std::cout << "planning " << ec.name << " on " << cores << " cores...\n";
  workflow::ModelOptions model_opts;
  // The paper's 100-rank floor per instance suits a 40,000-core budget;
  // scale it down for small budgets so planning stays feasible.
  model_opts.app_min_ranks = std::min(
      100, std::max(1, cores / (4 * static_cast<int>(ec.instances.size()))));
  const workflow::CaseModels models =
      workflow::build_case_models(ec, machine, model_opts);
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(models.apps, models.cus, cores);

  std::cout << "running " << steps << " density steps ("
            << 2 * steps << " pressure steps) coupled...\n";
  workflow::RankAssignment ra{alloc.app_ranks, alloc.cu_ranks};
  workflow::CoupledSimulation sim(ec, machine, ra);
  const std::string trace_path = opts.get_string("trace", "");
  if (!trace_path.empty()) {
    sim.cluster().enable_tracing(1 << 22);
  }
  sim.run(steps);
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    sim::write_chrome_trace(out, sim.cluster());
    std::cout << "wrote Chrome trace to " << trace_path << " ("
              << sim.cluster().trace()->events().size() << " events, "
              << sim.cluster().trace()->dropped() << " dropped)\n";
  }

  print_banner(std::cout, "Per-instance results");
  Table table({"instance", "ranks", "coupled T (s)", "standalone T (s)",
               "predicted T (s)", "err %"});
  const double model_scale = 1000.0 / steps;  // models assume 1000 steps
  for (std::size_t i = 0; i < models.apps.size(); ++i) {
    const double standalone =
        sim.standalone_runtime(static_cast<int>(i), steps);
    const double predicted =
        models.apps[i].time(alloc.app_ranks[i]) / model_scale;
    table.add_row({models.apps[i].name,
                   static_cast<long long>(alloc.app_ranks[i]),
                   sim.instance_runtime(static_cast<int>(i)), standalone,
                   predicted, percent_error(predicted, standalone)});
  }
  table.print(std::cout);
  std::cout << "coupled runtime = " << sim.runtime()
            << " virtual s; model predicted = "
            << alloc.predicted_runtime / model_scale << " ("
            << percent_error(alloc.predicted_runtime / model_scale,
                             sim.runtime())
            << "% error)\n";
  return 0;
} catch (const cpx::CheckError& e) {
  std::cerr << "engine_simulation: " << e.what() << '\n';
  return 2;
}
