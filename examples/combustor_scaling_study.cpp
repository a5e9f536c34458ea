// Combustor scaling study: how the SIMPIC "performance proxy" is
// calibrated (§III of the paper).
//
// Part 1 runs the real 1-D electrostatic PIC physics (a cold-plasma
// oscillation) to show the mini-app is a working solver, not just a cost
// model. Part 2 sweeps SIMPIC configurations with increasing particles-
// per-cell on the virtual cluster and prints where each loses 50% parallel
// efficiency — the knob the paper uses to match pressure-solver meshes of
// different sizes.
//
//   ./combustor_scaling_study [--ppc-list=100,300,1800]

#include <iostream>
#include <memory>
#include <vector>

#include "perfmodel/sweep.hpp"
#include "simpic/instance.hpp"
#include "simpic/pic.hpp"
#include "simpic/stc.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace cpx;
  const Options opts = Options::parse(argc, argv);
  opts.reject_unknown({"ppc-list"});
  const std::vector<double> ppc_list =
      opts.get_double_list("ppc-list", {30, 100, 300, 1800});

  // --- Part 1: real PIC physics — plasma oscillation at omega_p ---
  print_banner(std::cout, "SIMPIC physics check: cold-plasma oscillation");
  simpic::PicOptions pic_opts;
  pic_opts.cells = 256;
  pic_opts.dt = 0.05;
  simpic::Pic pic(pic_opts);
  pic.load_uniform(/*per_cell=*/20, /*v_thermal=*/0.0,
                   /*perturbation=*/0.02);
  Table physics({"t (1/omega_p)", "field energy", "kinetic energy"});
  physics.set_precision(3);
  for (int s = 0; s <= 120; s += 20) {
    const auto d = pic.diagnostics();
    physics.add_row({s * pic_opts.dt, d.field_energy, d.kinetic_energy});
    pic.run(20);
  }
  physics.print(std::cout);
  std::cout << "(Energy sloshes between field and particles with period "
               "2*pi/omega_p ~ 6.28.)\n";

  // --- Part 2: particles-per-cell moves the scalability crossover ---
  print_banner(std::cout,
               "Particles-per-cell vs the 50% parallel-efficiency "
               "crossover (512k cells)");
  const auto machine = sim::MachineModel::archer2();
  const std::vector<int> cores = {128,  256,  512,   1024,  2048,
                                  4096, 8192, 16384, 32768};
  Table crossover({"particles/cell", "PE @ 1024", "PE @ 4096",
                   "PE @ 16384", "~50% PE crossover (cores)"});
  crossover.set_precision(3);
  for (double ppc : ppc_list) {
    simpic::StcConfig cfg;
    cfg.name = "sweep";
    cfg.cells = 512'000;
    cfg.particles_per_cell = ppc;
    cfg.timesteps = 1;
    const auto pts = perfmodel::measure_scaling(
        [&cfg](sim::RankRange r) {
          return std::make_unique<simpic::Instance>("s", cfg, r);
        },
        machine, cores, 2);
    const auto pe_at = [&](int target) {
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (pts[i].cores == target) {
          return (pts[0].seconds * pts[0].cores) /
                 (pts[i].seconds * pts[i].cores);
        }
      }
      return 0.0;
    };
    // First measured core count whose PE fell below 0.5.
    long long crossover_cores = -1;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double pe = (pts[0].seconds * pts[0].cores) /
                        (pts[i].seconds * pts[i].cores);
      if (pe < 0.5) {
        crossover_cores = static_cast<long long>(pts[i].cores);
        break;
      }
    }
    crossover.add_row({ppc, pe_at(1024), pe_at(4096), pe_at(16384),
                       crossover_cores < 0
                           ? Cell{std::string("> 32768")}
                           : Cell{crossover_cores}});
  }
  crossover.print(std::cout);
  std::cout
      << "(This is how Fig 3's configurations were chosen: 100 ppc matches "
         "the 28M-cell pressure case collapsing near 3000 cores; 1800 ppc "
         "matches the 380M case reaching ~50% at 10k cores.)\n";
  return 0;
} catch (const cpx::CheckError& e) {
  std::cerr << "combustor_scaling_study: " << e.what() << '\n';
  return 2;
}
