#include "amg/pcg.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "amg/hierarchy.hpp"
#include "support/blas1.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::amg {

void PcgWorkspace::resize(std::size_t n) {
  if (r.size() == n) {
    return;
  }
  // Workspace sizing is the one place the solve path may allocate: it runs
  // once per problem size and the early-return keeps repeat solves free
  // (tests/solver_alloc_test.cpp proves the steady state allocates nothing).
  r.assign(n, 0.0);      // cpx-lint: allow(solve-alloc)
  z.assign(n, 0.0);      // cpx-lint: allow(solve-alloc)
  p.assign(n, 0.0);      // cpx-lint: allow(solve-alloc)
  ap.assign(n, 0.0);     // cpx-lint: allow(solve-alloc)
  r_old.assign(n, 0.0);  // cpx-lint: allow(solve-alloc)
}

PcgResult pcg(const sparse::CsrMatrix& a, std::span<double> x,
              std::span<const double> b, double tol, int max_iterations,
              const Preconditioner& precond) {
  PcgWorkspace workspace;
  return pcg(a, x, b, tol, max_iterations, precond, workspace);
}

PcgResult pcg(const sparse::CsrMatrix& a, std::span<double> x,
              std::span<const double> b, double tol, int max_iterations,
              const Preconditioner& precond, PcgWorkspace& workspace) {
  namespace blas1 = support::blas1;
  const auto n = static_cast<std::size_t>(a.rows());
  CPX_REQUIRE(x.size() == n && b.size() == n, "pcg: vector size mismatch");
  CPX_METRICS_SCOPE("amg/pcg");

  // Amortised: no-op after the first solve at this size.
  workspace.resize(n);  // cpx-lint: allow(solve-alloc)
  auto& r = workspace.r;
  auto& z = workspace.z;
  auto& p = workspace.p;
  auto& ap = workspace.ap;
  auto& r_old = workspace.r_old;

  // Fused r = b − A·x and ‖r‖² in one sweep.
  double rnorm2 = sparse::spmv_residual_norm2(a, x, b, r);
  const double bnorm2 = blas1::norm2_squared(b);
  const double bnorm = std::sqrt(bnorm2);
  const double stop2 =
      tol * tol * (bnorm2 > 0.0 ? bnorm2 : 1.0);

  PcgResult result;
  if (rnorm2 <= stop2) {
    result.converged = true;
    result.relative_residual = bnorm > 0.0 ? std::sqrt(rnorm2) / bnorm : 0.0;
    return result;
  }

  if (precond) {
    std::fill(z.begin(), z.end(), 0.0);  // contract: precond gets zeroed z
    precond(z, r);
  } else {
    std::copy(r.begin(), r.end(), z.begin());
  }
  std::copy(z.begin(), z.end(), p.begin());
  double rz = blas1::dot(r, z);
  // Flexible CG: with a (possibly nonsymmetric or nonlinear) preconditioner
  // such as an AMG cycle with Gauss-Seidel smoothing, the Polak-Ribiere
  // beta  z_new^T (r_new - r_old) / z_old^T r_old  keeps CG convergent
  // where the Fletcher-Reeves form stalls. For an exact SPD preconditioner
  // the two coincide.

  for (int it = 1; it <= max_iterations; ++it) {
    sparse::spmv(a, p, ap);
    const double pap = blas1::dot(p, ap);
    CPX_CHECK_MSG(pap > 0.0, "pcg: matrix not SPD (p^T A p = " << pap << ")");
    const double alpha = rz / pap;
    std::copy(r.begin(), r.end(), r_old.begin());
    // Fused x += α·p, r −= α·ap, ‖r‖² — one pass over four vectors instead
    // of an update sweep plus a norm sweep.
    rnorm2 = blas1::axpy2_norm2(alpha, p, ap, x, r);
    result.iterations = it;
    support::metrics::counter_add("amg/pcg_iterations", 1);
    if (rnorm2 <= stop2) {
      result.converged = true;
      break;
    }
    double beta;
    if (precond) {
      std::fill(z.begin(), z.end(), 0.0);  // contract: precond gets zeroed z
      precond(z, r);
      beta = blas1::dot_diff(z, r, r_old) / rz;
      rz = blas1::dot(r, z);
    } else {
      std::copy(r.begin(), r.end(), z.begin());
      const double rz_new = rnorm2;  // z ≡ r, so r·z = ‖r‖², already computed
      beta = rz_new / rz;
      rz = rz_new;
    }
    if (!(beta > 0.0) || rz <= 0.0) {
      // Restart on loss of conjugacy (possible with flexible
      // preconditioning); steepest-descent step in the z direction.
      beta = 0.0;
      rz = blas1::dot(r, z);
      CPX_CHECK_MSG(rz > 0.0, "pcg: preconditioner not positive definite");
    }
    blas1::xpby(z, beta, p);  // p = z + β·p
  }
  result.relative_residual =
      bnorm > 0.0 ? std::sqrt(rnorm2) / bnorm : std::sqrt(rnorm2);
  return result;
}

Preconditioner make_amg_preconditioner(AmgHierarchy& hierarchy) {
  // pcg's contract zero-fills z before every application, so the cycle can
  // take it as the initial guess directly (no duplicate clearing pass).
  return [&hierarchy](std::span<double> z, std::span<const double> r) {
    hierarchy.cycle(z, r);
  };
}

}  // namespace cpx::amg
