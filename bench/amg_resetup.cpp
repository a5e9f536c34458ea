// Setup vs re-setup ablation for the AMG hierarchy (docs/CALIBRATION.md,
// "setup vs re-setup"): on a fixed mesh the pressure operator's sparsity
// never changes between timesteps, so the hierarchy's structural work —
// strength graph, aggregation, interpolation sparsity, SpGEMM symbolics,
// coarse Cholesky layout — can be done once and only the numeric passes
// re-run when the coefficients change. This bench measures, on the
// pressure-style Poisson operator of the Fig 5 solver:
//
//   full   : AmgHierarchy construction from scratch
//   reset  : reset_values() numeric-only re-setup of the same hierarchy
//   solve  : one AMG-preconditioned CG solve with a persistent workspace
//            (the steady-state per-timestep cost the re-setup amortises
//            against)
//
// Next to the timings it prints the hierarchy shape (rows and nnz/row per
// level, operator complexity) and the PCG iteration count, so a coarsening
// stall — a level that barely shrinks and fills in — is visible.
//
//   ./amg_resetup [--n=48] [--reps=5] [--metrics=out.json]

#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/pcg.hpp"
#include "bench_common.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Best-of-reps wall-clock of fn(), with one untimed warmup call.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// The fixed-mesh coefficient change: same sparsity, jittered values (a
/// positive diagonal perturbation keeps the operator SPD).
cpx::sparse::CsrMatrix perturb_diagonal(const cpx::sparse::CsrMatrix& a,
                                        double amplitude,
                                        std::uint64_t seed) {
  cpx::sparse::CsrMatrix out = a;
  cpx::Rng rng(seed);
  auto& vals = out.mutable_values();
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t k = offsets[static_cast<std::size_t>(r)];
         k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      if (cols[static_cast<std::size_t>(k)] == static_cast<std::int32_t>(r)) {
        vals[static_cast<std::size_t>(k)] *=
            1.0 + amplitude * rng.uniform();
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpx;

  Options opts = Options::parse(argc, argv);
  opts.describe("n", "3-D Poisson grid edge (n^3 rows, default 48)");
  opts.describe("reps", "timed repetitions per phase, best-of (default 5)");
  opts.describe("metrics", "write host-metrics JSON to this path");
  if (opts.get_bool("help", false)) {
    std::cout << opts.help_text("amg_resetup");
    return 0;
  }
  bench::MetricsGuard metrics_guard(opts);

  const int n = static_cast<int>(opts.get_int("n", 48));
  const int reps = static_cast<int>(opts.get_int("reps", 5));

  const sparse::CsrMatrix a = sparse::laplacian_3d(n, n, n);
  const sparse::CsrMatrix a2 = perturb_diagonal(a, 0.1, 42);
  std::cout << "pressure-style operator: " << a.rows() << " rows, " << a.nnz()
            << " nnz\n";

  const amg::AmgOptions amg_opts;  // defaults: smoothed interp, V-cycle

  // Full construction, from scratch every repetition.
  const double t_full =
      time_best(reps, [&] { amg::AmgHierarchy h(a, amg_opts); });

  // Numeric-only re-setup of a hierarchy built once, alternating between
  // the two coefficient sets so every call does real work.
  amg::AmgHierarchy hierarchy(a, amg_opts);
  bool flip = false;
  const double t_reset = time_best(reps, [&] {
    hierarchy.reset_values(flip ? a : a2);
    flip = !flip;
  });

  // Steady-state per-timestep solve with persistent preconditioner and CG
  // workspace (warmed by time_best's untimed first call).
  const auto nrows = static_cast<std::size_t>(a.rows());
  std::vector<double> x(nrows, 0.0);
  std::vector<double> b(nrows);
  Rng rng(7);
  for (double& v : b) {
    v = rng.uniform() - 0.5;
  }
  const amg::Preconditioner precond =
      amg::make_amg_preconditioner(hierarchy);
  amg::PcgWorkspace workspace;
  amg::PcgResult solve_result;
  const double t_solve = time_best(reps, [&] {
    std::fill(x.begin(), x.end(), 0.0);
    solve_result =
        amg::pcg(hierarchy.level(0).a, x, b, 1e-8, 200, precond, workspace);
  });

  print_banner(std::cout, "AMG setup vs numeric re-setup (fixed sparsity)");
  Table table({"phase", "seconds", "vs full setup"});
  table.set_precision(4);
  table.add_row({"full construction", t_full, 1.0});
  table.add_row({"reset_values", t_reset, t_full / t_reset});
  table.add_row({"pcg solve (steady state)", t_solve, t_full / t_solve});
  table.print(std::cout);

  std::cout << "reset_values speedup over full setup: " << t_full / t_reset
            << "x" << (t_full / t_reset >= 2.0 ? " (>= 2x target)" : "")
            << "\n";

  print_banner(std::cout, "AMG hierarchy (default options)");
  Table levels({"level", "rows", "nnz", "nnz/row"});
  levels.set_precision(4);
  for (int l = 0; l < hierarchy.num_levels(); ++l) {
    const sparse::CsrMatrix& al = hierarchy.level(l).a;
    levels.add_row({static_cast<long long>(l),
                    static_cast<long long>(al.rows()),
                    static_cast<long long>(al.nnz()),
                    static_cast<double>(al.nnz()) /
                        static_cast<double>(al.rows())});
  }
  levels.print(std::cout);
  std::cout << "operator complexity: " << hierarchy.operator_complexity()
            << "\npcg iterations to 1e-8: " << solve_result.iterations
            << (solve_result.converged ? "" : " (not converged)") << "\n";
  return 0;
}
