#pragma once
// Preconditioned conjugate gradient — the outer solver the production
// pressure solver wraps around its AMG (Conjugate Gradient with Aggregate
// Algebraic Multigrid, §III of the paper).

#include <functional>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "support/aligned.hpp"

namespace cpx::amg {

/// Applies a preconditioner: z = M^{-1} r. Contract: pcg passes z already
/// zero-filled, so iterative preconditioners (an AMG cycle) can use it as
/// the initial guess directly — implementations must not rely on any other
/// incoming content, and need not clear it themselves.
using Preconditioner =
    std::function<void(std::span<double> z, std::span<const double> r)>;

struct PcgResult {
  int iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// Persistent CG work vectors. Pass the same workspace to repeated pcg
/// calls of the same size (a timestep loop) and the iteration allocates
/// nothing after the first call; resize() is a no-op when already sized.
/// 64-byte-aligned so the blas1 simd::pack loops start on cache lines.
struct PcgWorkspace {
  support::aligned_vector<double> r;
  support::aligned_vector<double> z;
  support::aligned_vector<double> p;
  support::aligned_vector<double> ap;
  support::aligned_vector<double> r_old;

  void resize(std::size_t n);
};

/// Solves A x = b with (optionally preconditioned) CG. `x` holds the
/// initial guess on entry and the solution on exit. If `precond` is null,
/// unpreconditioned CG is used. This overload allocates its work vectors
/// per call; solver loops should hold a PcgWorkspace and use the overload
/// below.
PcgResult pcg(const sparse::CsrMatrix& a, std::span<double> x,
              std::span<const double> b, double tol, int max_iterations,
              const Preconditioner& precond = nullptr);

/// As above, with caller-owned work vectors (allocation-free when the
/// workspace is already sized).
PcgResult pcg(const sparse::CsrMatrix& a, std::span<double> x,
              std::span<const double> b, double tol, int max_iterations,
              const Preconditioner& precond, PcgWorkspace& workspace);

class AmgHierarchy;
/// One AMG cycle as a preconditioner (the hierarchy must outlive the
/// returned functor).
Preconditioner make_amg_preconditioner(AmgHierarchy& hierarchy);

}  // namespace cpx::amg
