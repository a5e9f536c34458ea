#pragma once
// The MG-CFD edge flux kernel, shared by the sequential solver
// (EulerSolver::compute_residual) and the distributed one
// (DistributedSolver): one definition, so both solvers evaluate every
// edge with the same expressions and their solutions agree bit for bit.

#include <algorithm>
#include <cmath>

#include "mgcfd/euler.hpp"

namespace cpx::mgcfd {

/// Physical Euler flux of `u` through the (not necessarily unit) area
/// vector `n`; linear in `n`.
inline State physical_flux(const State& u, const mesh::Vec3& n) {
  const double rho = u[0];
  const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / rho;
  const double p = pressure(u);
  State f;
  f[0] = rho * vn;
  f[1] = u[1] * vn + p * n.x;
  f[2] = u[2] * vn + p * n.y;
  f[3] = u[3] * vn + p * n.z;
  f[4] = (u[4] + p) * vn;
  return f;
}

/// Fastest signal speed |v.n| + c of `u` along `n`.
inline double normal_speed(const State& u, const mesh::Vec3& n) {
  const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / u[0];
  return std::abs(vn) + sound_speed(u);
}

/// Rusanov (local Lax-Friedrichs) flux from cell a to cell b across an
/// edge with unit normal `n`; `dissipation` scales the upwinding term.
inline State rusanov_flux(const State& ua, const State& ub,
                          const mesh::Vec3& n, double dissipation) {
  const State fa = physical_flux(ua, n);
  const State fb = physical_flux(ub, n);
  const double smax = std::max(normal_speed(ua, n), normal_speed(ub, n));
  State f;
  for (int k = 0; k < 5; ++k) {
    f[k] = 0.5 * (fa[k] + fb[k]) - 0.5 * dissipation * smax * (ub[k] - ua[k]);
  }
  return f;
}

}  // namespace cpx::mgcfd
