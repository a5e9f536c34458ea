#pragma once
// The MG-CFD edge flux kernel, shared by the sequential solver
// (EulerSolver::compute_residual) and the distributed one
// (DistributedSolver): one definition, so both solvers evaluate every
// edge with the same expressions and their solutions agree bit for bit.
//
// The kernel reads each cell's pressure and sound speed from its cached
// Primitives instead of recomputing them per edge: a hex cell has about
// six incident edges, so the per-edge form evaluated every pressure about
// twelve times and every square root about six times per residual. The
// solvers refresh one Primitives per cell slot before the edge loop; each
// cached value is the expression pressure()/sound_speed() evaluate, on
// the same inputs, so the cached form is bitwise equal to the per-edge
// one (the ISO build does not contract FMAs).

#include <algorithm>
#include <cmath>

#include "mgcfd/euler.hpp"
#include "support/check.hpp"

namespace cpx::mgcfd {

/// Pressure and sound speed of `u`; requires a positive density.
inline Primitives primitives(const State& u) {
  const double p = pressure(u);
  CPX_DCHECK(u[0] > 0.0);
  return {p, std::sqrt(kGamma * std::max(p, 1e-300) / u[0])};
}

/// Physical Euler flux of `u` (primitives `w`) through the (not
/// necessarily unit) area vector `n`; linear in `n`.
inline State physical_flux(const State& u, const Primitives& w,
                           const mesh::Vec3& n) {
  const double rho = u[0];
  const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / rho;
  State f;
  f[0] = rho * vn;
  f[1] = u[1] * vn + w.p * n.x;
  f[2] = u[2] * vn + w.p * n.y;
  f[3] = u[3] * vn + w.p * n.z;
  f[4] = (u[4] + w.p) * vn;
  return f;
}

/// Fastest signal speed |v.n| + c of `u` (primitives `w`) along `n`.
inline double normal_speed(const State& u, const Primitives& w,
                           const mesh::Vec3& n) {
  const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / u[0];
  return std::abs(vn) + w.c;
}

/// Rusanov (local Lax-Friedrichs) flux from cell a to cell b across an
/// edge with unit normal `n`; `dissipation` scales the upwinding term.
inline State rusanov_flux(const State& ua, const Primitives& wa,
                          const State& ub, const Primitives& wb,
                          const mesh::Vec3& n, double dissipation) {
  const State fa = physical_flux(ua, wa, n);
  const State fb = physical_flux(ub, wb, n);
  const double smax =
      std::max(normal_speed(ua, wa, n), normal_speed(ub, wb, n));
  State f;
  for (int k = 0; k < 5; ++k) {
    f[k] = 0.5 * (fa[k] + fb[k]) - 0.5 * dissipation * smax * (ub[k] - ua[k]);
  }
  return f;
}

}  // namespace cpx::mgcfd
