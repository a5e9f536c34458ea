// pressure-resetup: the fixed-mesh pressure timestep loop of the paper's
// CG + aggregate-AMG solver (Fig 5). Set-up builds one AMG hierarchy on the
// 3-D Poisson operator; every step applies a new coefficient set of the same
// sparsity through AmgHierarchy::reset_values and solves it with AMG-PCG to
// a fixed tolerance, reusing the preconditioner and the CG workspace.
//
// Runs at pool width 1 unless --pool-width overrides it: at wider pools the
// repeated PCG loop can deadlock in support::ThreadPool (see
// cpxbench/README.md, "Stall reproducer").

#include <cmath>
#include <memory>
#include <vector>

#include "amg/hierarchy.hpp"
#include "amg/pcg.hpp"
#include "bench.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/blas1.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace cpxbench {
namespace {

using namespace cpx;

/// 3-D Poisson operator on a kGrid^3 grid (--grid overrides it). At this
/// size a step takes about 0.1 s, so a run holds a few hundred of them.
constexpr int kGrid = 24;
constexpr int kCoefficientSets = 4;
constexpr double kTolerance = 1e-8;
constexpr int kMaxIterations = 200;

/// One timestep's coefficients: the operator with every diagonal entry
/// scaled by (1 + 0.2 u), u uniform in [0, 1) — same sparsity, still SPD.
sparse::CsrMatrix perturbed(const sparse::CsrMatrix& a, Rng& rng) {
  sparse::CsrMatrix out = a;
  auto& vals = out.mutable_values();
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t k = offsets[static_cast<std::size_t>(r)];
         k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      if (cols[static_cast<std::size_t>(k)] == static_cast<std::int32_t>(r)) {
        vals[static_cast<std::size_t>(k)] *= 1.0 + 0.2 * rng.uniform();
      }
    }
  }
  return out;
}

struct Solver {
  std::unique_ptr<amg::AmgHierarchy> hierarchy;
  amg::Preconditioner precond;
  amg::PcgWorkspace workspace;
};

}  // namespace

void run_pressure(const Context& ctx) {
  apply_pool_width(ctx, 1);

  const int n = ctx.grid > 0 ? ctx.grid : kGrid;
  emit("info grid %d^3", n);

  // Inputs from the seed: coefficient sets and right-hand sides.
  Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 17);
  const sparse::CsrMatrix base = sparse::laplacian_3d(n, n, n);
  std::vector<sparse::CsrMatrix> coeffs;
  std::vector<std::vector<double>> rhs;
  for (int k = 0; k < kCoefficientSets; ++k) {
    coeffs.push_back(perturbed(base, rng));
    std::vector<double> b(static_cast<std::size_t>(base.rows()));
    for (double& v : b) {
      v = rng.uniform() - 0.5;
    }
    rhs.push_back(std::move(b));
  }
  const auto rows = static_cast<std::size_t>(base.rows());

  Solver s;
  run_setups(ctx, 9, [&](int) {
    s = Solver{};
    const sparse::CsrMatrix a = sparse::laplacian_3d(n, n, n);
    {
      ScopedSpan span("amg.setup");
      s.hierarchy = std::make_unique<amg::AmgHierarchy>(a, amg::AmgOptions{});
    }
    s.precond = amg::make_amg_preconditioner(*s.hierarchy);
    s.workspace.resize(rows);
  });

  std::vector<double> x(rows, 0.0);
  auto solve = [&](int k, amg::PcgResult& res) {
    {
      ScopedSpan span("amg.reset_values");
      s.hierarchy->reset_values(coeffs[static_cast<std::size_t>(k)]);
    }
    std::fill(x.begin(), x.end(), 0.0);
    ScopedSpan span("amg.pcg");
    res = amg::pcg(s.hierarchy->level(0).a, x, rhs[static_cast<std::size_t>(k)],
                   kTolerance, kMaxIterations, s.precond, s.workspace);
  };
  auto digest_x = [&] {
    Digest d;
    d.add(x.data(), x.size());
    return d.value();
  };

  // Reference pass (untimed): iterations and solution digest of every
  // coefficient set. Every timed step must reproduce them bitwise.
  std::vector<int> ref_iters(kCoefficientSets);
  std::vector<std::uint64_t> ref_digest(kCoefficientSets);
  bool ref_ok = true;
  for (int k = 0; k < kCoefficientSets; ++k) {
    amg::PcgResult res;
    solve(k, res);
    ref_iters[static_cast<std::size_t>(k)] = res.iterations;
    ref_digest[static_cast<std::size_t>(k)] = digest_x();
    // Independent convergence check: the true residual, not the solver's.
    std::vector<double> ax(rows);
    sparse::spmv(s.hierarchy->level(0).a, x, ax);
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
      const double bi = rhs[static_cast<std::size_t>(k)][i];
      rr += (bi - ax[i]) * (bi - ax[i]);
      bb += bi * bi;
    }
    const double rel = std::sqrt(rr / bb);
    const bool ok = res.converged && rel <= 10 * kTolerance;
    ref_ok = ref_ok && ok;
    emit("check reference_set_%d %d iterations=%d true_rel_residual=%.3e", k,
         ok ? 1 : 0, res.iterations, rel);
  }

  // Traced-run probes: level-0 kernels called directly, outside the step.
  sparse::SpgemmPlan ap_plan;
  sparse::CsrMatrix ap;
  std::vector<double> probe_x(rows, 1.0);
  std::vector<double> probe_y(rows, 0.0);
  if (ctx.trace && s.hierarchy->num_levels() > 1) {
    const auto& l0 = s.hierarchy->level(0);
    ap_plan = sparse::SpgemmPlan(l0.a, l0.p);
    ap = ap_plan.numeric(l0.a, l0.p);
  }

  double iters_traced = 0.0;
  TimedLoop loop;
  loop.min_steps = 2 * kCoefficientSets;
  loop.trace_block = 2 * kCoefficientSets;
  const TimedResult r = run_timed(
      ctx, loop,
      [&](int i) {
        const int k = i % kCoefficientSets;
        amg::PcgResult res;
        solve(k, res);
        return ref_ok && res.converged &&
               res.iterations == ref_iters[static_cast<std::size_t>(k)] &&
               digest_x() == ref_digest[static_cast<std::size_t>(k)];
      },
      [&](int i, bool traced) {
        if (!traced) {
          return;
        }
        const int k = i % kCoefficientSets;
        iters_traced += ref_iters[static_cast<std::size_t>(k)];
        const auto& l0 = s.hierarchy->level(0);
        std::fill(probe_x.begin(), probe_x.end(), 0.0);
        {
          ScopedSpan span("amg.cycle");
          s.hierarchy->cycle(probe_x, rhs[static_cast<std::size_t>(k)]);
        }
        {
          ScopedSpan span("sparse.spmv");
          sparse::spmv(l0.a, probe_x, probe_y);
        }
        if (!ap_plan.empty()) {
          ScopedSpan span("sparse.spgemm_fill");
          ap_plan.numeric_into(l0.a, l0.p, ap);
        }
        volatile double sink = 0.0;
        {
          ScopedSpan span("support.dot");
          sink = support::blas1::dot(probe_x, probe_y);
        }
        (void)sink;
      });

  if (ctx.trace) {
    const double steps = r.traced_steps;
    emit("layer amg.setup_s %.9f", tracer().self_per_call("amg.setup"));
    emit("layer amg.reset_values_s %.9f", tracer().self_per_call("amg.reset_values"));
    emit("layer amg.pcg_s %.9f", tracer().self_per_call("amg.pcg"));
    emit("layer amg.cycle_s %.9f", tracer().self_per_call("amg.cycle"));
    emit("layer amg.pcg_iters %.6f", iters_traced / steps);
    emit("layer amg.levels %d", s.hierarchy->num_levels());
    emit("layer amg.operator_complexity %.9f",
         s.hierarchy->operator_complexity());
    emit("layer sparse.spmv_s %.9f", tracer().self_per_call("sparse.spmv"));
    emit("layer sparse.spgemm_fill_s %.9f", tracer().self_per_call("sparse.spgemm_fill"));
    emit("layer support.dot_s %.9f", tracer().self_per_call("support.dot"));
    emit_kernel_counters(steps);
    emit_trace_summary(r);
  }
}

}  // namespace cpxbench
