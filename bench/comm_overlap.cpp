// Split-phase overlap ablation (docs/communication.md): the same solvers
// with communication/computation overlap off and on, at the paper's core
// counts, on the Fig 6 engine-case density row (150M cells).
//
//  (1) MG-CFD density instance, synchronous vs split-phase halo exchange:
//      per-step runtime, hidden-communication seconds and fraction, and
//      the parallel-efficiency delta from 128 to 2048 cores. Overlap pays
//      off exactly where Fig 6 says the halo does: at scale, where the
//      per-rank surface-to-volume ratio makes the exchange wait visible.
//  (2) perfmodel::fit_overlap_variants — paired fitted scaling curves, so
//      the capacity planner predicts the overlap gain per scenario
//      (docs/CALIBRATION.md) instead of extrapolating it. The modelled PE
//      gain at 2048 cores must be strictly positive.
//  (3) The full coupled HPC-combustor case with
//      CoupledSimulation::set_overlap_enabled off/on — the MG-CFD halo
//      and coupler-gather windows active at once (the SIMPIC Thomas
//      pipeline has no overlap window).

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "mgcfd/instance.hpp"
#include "perfmodel/allocator.hpp"
#include "perfmodel/sweep.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

namespace {

using namespace cpx;

constexpr std::int64_t kDensityCells = 150'000'000;  // Fig 6 density row
constexpr int kSteps = 3;

struct ModeResult {
  double step_seconds = 0.0;
  double hidden_seconds = 0.0;   // per step, summed over ranks
  double charged_seconds = 0.0;  // per step comm actually waited/charged
};

ModeResult run_mode(const sim::MachineModel& machine, int cores,
                    bool overlap) {
  sim::Cluster cluster(machine, cores);
  mgcfd::Instance inst("density", kDensityCells, {0, cores});
  inst.set_overlap(overlap);
  // One warm-up step carries the one-off plan/mapping costs; dropping its
  // clocks, traffic, and charged-comm profile before measuring keeps the
  // per-step averages free of cold-start noise (dividing the cumulative
  // counters by kSteps + 1 smeared the warm-up into both modes).
  inst.step(cluster);
  cluster.reset_clocks();
  cluster.profile().reset();
  for (int s = 0; s < kSteps; ++s) {
    inst.step(cluster);
  }
  ModeResult r;
  r.step_seconds = cluster.max_clock(inst.ranks()) / kSteps;
  r.hidden_seconds = cluster.comm_hidden_seconds(inst.ranks()) / kSteps;
  double charged = 0.0;
  for (sim::Rank rank = 0; rank < cores; ++rank) {
    charged += cluster.profile().rank_total(rank).comm;
  }
  r.charged_seconds = charged / kSteps;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = Options::parse(argc, argv);
  opts.describe("metrics", "write host-metrics JSON to this path");
  if (opts.get_bool("help", false)) {
    std::cout << opts.help_text("comm_overlap");
    return 0;
  }
  bench::MetricsGuard metrics_guard(opts);

  const auto machine = sim::MachineModel::archer2();
  const std::vector<int> cores = {128, 256, 1024, 2048};

  // --- (1) MG-CFD halo overlap ablation ---
  print_banner(std::cout,
               "Split-phase halo exchange — MG-CFD 150M cells, sync vs "
               "overlapped");
  Table ablation({"cores", "sync s/step", "overlap s/step", "speedup %",
                  "hidden s/step", "hidden fraction", "PE sync",
                  "PE overlap", "PE delta"});
  ablation.set_precision(4);
  double sync128 = 0.0;
  double over128 = 0.0;
  for (int p : cores) {
    const ModeResult sync = run_mode(machine, p, false);
    const ModeResult over = run_mode(machine, p, true);
    if (p == cores.front()) {
      sync128 = sync.step_seconds;
      over128 = over.step_seconds;
    }
    const double hidden_frac =
        over.hidden_seconds + over.charged_seconds > 0.0
            ? over.hidden_seconds /
                  (over.hidden_seconds + over.charged_seconds)
            : 0.0;
    const double pe_sync = (sync128 * cores.front()) /
                           (sync.step_seconds * static_cast<double>(p));
    const double pe_over = (over128 * cores.front()) /
                           (over.step_seconds * static_cast<double>(p));
    ablation.add_row(
        {static_cast<long long>(p), sync.step_seconds, over.step_seconds,
         100.0 * (sync.step_seconds - over.step_seconds) / sync.step_seconds,
         over.hidden_seconds, hidden_frac, pe_sync, pe_over,
         pe_over - pe_sync});
  }
  ablation.print(std::cout);
  std::cout << "(hidden fraction = hidden / (hidden + charged) comm "
               "seconds: how much of the synchronous wait the interior "
               "sweep absorbed.)\n";

  // --- (2) Fitted overlap variants for the capacity planner ---
  print_banner(std::cout,
               "perfmodel — paired fitted curves (docs/CALIBRATION.md)");
  const perfmodel::AppFactory factory = [](sim::RankRange ranks) {
    return std::make_unique<mgcfd::Instance>("density", kDensityCells,
                                             ranks);
  };
  const perfmodel::OverlapVariants variants =
      perfmodel::fit_overlap_variants(factory, machine, cores, kSteps);
  Table fitted({"cores", "modelled PE sync", "modelled PE overlap",
                "modelled PE gain"});
  fitted.set_precision(4);
  for (int p : cores) {
    fitted.add_row(
        {static_cast<long long>(p),
         variants.synchronous.efficiency_at(p, cores.front()),
         variants.overlapped.efficiency_at(p, cores.front()),
         variants.efficiency_gain_at(p, cores.front())});
  }
  fitted.print(std::cout);
  const double gain_2048 = variants.efficiency_gain_at(2048, cores.front());
  std::cout << "fitted hidden fraction at " << cores.back()
            << " cores: " << variants.hidden_fraction << "\n"
            << "modelled PE gain at 2048 cores: " << gain_2048
            << (gain_2048 > 0.0 ? "  (strictly positive)" : "  (NOT positive)")
            << "\n";

  // --- (3) Full coupled case, all three window sites active ---
  print_banner(std::cout,
               "Coupled HPC combustor — set_overlap_enabled off vs on");
  const workflow::EngineCase ec = workflow::hpc_combustor_hpt(false);
  const workflow::CaseModels models =
      workflow::build_case_models(ec, machine, {});
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(models.apps, models.cus, 40000);
  const workflow::RankAssignment ra{alloc.app_ranks, alloc.cu_ranks};

  double runtime_off = 0.0;
  double runtime_on = 0.0;
  double hidden_on = 0.0;
  for (const bool overlap : {false, true}) {
    workflow::CoupledSimulation sim(ec, machine, ra);
    sim.set_overlap_enabled(overlap);
    sim.run(20);
    (overlap ? runtime_on : runtime_off) = sim.runtime();
    if (overlap) {
      hidden_on = sim.cluster().comm_hidden_seconds(
          {0, sim.cluster().num_ranks()});
    }
  }
  Table coupled({"mode", "runtime (s, 20 density steps)",
                 "hidden comm (s, all ranks)"});
  coupled.set_precision(4);
  coupled.add_row({"synchronous", runtime_off, 0.0});
  coupled.add_row({"overlapped", runtime_on, hidden_on});
  coupled.print(std::cout);
  std::cout << "coupled runtime delta: "
            << 100.0 * (runtime_off - runtime_on) / runtime_off << " %\n";
  return (gain_2048 > 0.0) ? 0 : 1;
}
