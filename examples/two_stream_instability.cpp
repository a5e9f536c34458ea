// Two-stream instability: the canonical kinetic-plasma benchmark, run on
// the real SIMPIC physics. Two cold counter-streaming electron beams are
// electrostatically unstable; a seed perturbation grows exponentially at
// a rate ~ omega_p/2 until the beams trap each other and the field energy
// saturates. Demonstrates that the combustor proxy is a genuine working
// PIC code, not just a cost model.
//
//   ./two_stream_instability [--cells=256] [--ppc=30] [--v0=0.15]

#include <cmath>
#include <iostream>

#include "simpic/pic.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace cpx;
  const Options opts = Options::parse(argc, argv);
  opts.reject_unknown({"cells", "ppc", "v0"});
  const auto cells = opts.get_int("cells", 256);
  const auto ppc = static_cast<int>(opts.get_int("ppc", 30));
  // Instability condition: k*v0 < ~omega_p with k = 2*pi*m/L. With L = 1
  // only v0 below ~0.1 leaves mode 1 unstable.
  const double v0 = opts.get_double("v0", 0.08);

  simpic::PicOptions pic_opts;
  pic_opts.cells = cells;
  pic_opts.dt = 0.1;
  pic_opts.boundary = simpic::Boundary::kPeriodic;
  simpic::Pic pic(pic_opts);

  // Two counter-streaming beams, ppc particles per cell each, with a small
  // sinusoidal position seed on the forward beam.
  const std::int64_t per_beam = cells * ppc;
  const double weight =
      -pic_opts.length / (2.0 * static_cast<double>(per_beam));
  constexpr double kTwoPi = 6.28318530717958647692;
  for (std::int64_t i = 0; i < per_beam; ++i) {
    const double x0 =
        (static_cast<double>(i) + 0.5) / static_cast<double>(per_beam);
    const double seed =
        1e-3 / kTwoPi * std::sin(kTwoPi * x0);  // mode 1
    pic.add_particle(std::fmod(x0 + seed + 1.0, 1.0), v0, weight);
    pic.add_particle(x0, -v0, weight);
  }
  pic.set_background(1.0);

  print_banner(std::cout, "Two-stream instability (v0 = +/-" +
                              std::to_string(v0) + ")");
  Table history({"t (1/omega_p)", "field energy", "kinetic energy",
                 "total"});
  history.set_precision(4);
  double prev_field = 0.0;
  double max_growth = 0.0;
  const int report_every = 60;
  for (int block = 0; block <= 12; ++block) {
    const auto d = pic.diagnostics();
    history.add_row({block * report_every * pic_opts.dt, d.field_energy,
                     d.kinetic_energy, d.field_energy + d.kinetic_energy});
    if (block > 0 && prev_field > 0.0 && d.field_energy > prev_field) {
      // Growth rate over the block: E ~ exp(2 gamma t).
      max_growth = std::max(
          max_growth, std::log(d.field_energy / prev_field) /
                          (2.0 * report_every * pic_opts.dt));
    }
    prev_field = d.field_energy;
    if (block < 12) {
      pic.run(report_every);
    }
  }
  history.print(std::cout);
  std::cout << "peak exponential growth rate ~ " << max_growth
            << " omega_p (cold two-stream theory: up to 0.5 omega_p)\n"
            << "Field energy grows by orders of magnitude from the seed, "
               "then saturates as the beams trap — the classic kinetic "
               "instability picture.\n";
  return 0;
} catch (const cpx::CheckError& e) {
  std::cerr << "two_stream_instability: " << e.what() << '\n';
  return 2;
}
