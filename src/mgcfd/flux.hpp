#pragma once
// The MG-CFD edge flux kernel and cell update, shared by the distributed
// solver (DistributedSolver) and its test-local sequential reference
// (EulerSolver, tests/mgcfd_test.cpp): one definition, so both solvers
// evaluate every edge and update every cell with the same expressions and
// their solutions agree bit for bit.
//
// The kernel reads each cell's pressure and sound speed from its cached
// Primitives instead of recomputing them per edge: a hex cell has about
// six incident edges, so the per-edge form evaluated every pressure about
// twelve times and every square root about six times per residual. The
// solvers refresh one Primitives per cell slot before the edge loop; each
// cached value is the expression the per-edge form evaluated, on the
// same inputs, so the cached form is bitwise equal to the per-edge
// one (the ISO build does not contract FMAs).
//
// Every kernel is spelled per component, as named scalars: no State
// temporaries inside a kernel and no loops over the five components.
// GCC at -O2 neither unrolls a five-iteration loop nor keeps a State in
// registers, so an array spelling stores both endpoint fluxes to the
// stack and runs four short loops per edge. Each component keeps the
// array spelling's expression and evaluation order (a test pins it
// against a copy of that spelling), so the bits do not depend on it.

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
  const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / u[0];
  return {u[0] * vn, u[1] * vn + w.p * n.x, u[2] * vn + w.p * n.y,
          u[3] * vn + w.p * n.z, (u[4] + w.p) * vn};
}

/// Rusanov (local Lax-Friedrichs) flux from cell a to cell b across an
/// edge with unit normal `n`: the mean of the endpoints' physical fluxes
/// minus k (b - a), k = dissipation / 2 times the fastest signal speed
/// |v.n| + c of either side; `dissipation` scales the upwinding term.
inline State rusanov_flux(const State& ua, const Primitives& wa,
                          const State& ub, const Primitives& wb,
                          const mesh::Vec3& n, double dissipation) {
  const double vna = (ua[1] * n.x + ua[2] * n.y + ua[3] * n.z) / ua[0];
  const double vnb = (ub[1] * n.x + ub[2] * n.y + ub[3] * n.z) / ub[0];
  const double smax = std::max(std::abs(vna) + wa.c, std::abs(vnb) + wb.c);
  const double k = 0.5 * dissipation * smax;
  const double f0 = 0.5 * (ua[0] * vna + ub[0] * vnb) - k * (ub[0] - ua[0]);
  const double f1 =
      0.5 * ((ua[1] * vna + wa.p * n.x) + (ub[1] * vnb + wb.p * n.x)) -
      k * (ub[1] - ua[1]);
  const double f2 =
      0.5 * ((ua[2] * vna + wa.p * n.y) + (ub[2] * vnb + wb.p * n.y)) -
      k * (ub[2] - ua[2]);
  const double f3 =
      0.5 * ((ua[3] * vna + wa.p * n.z) + (ub[3] * vnb + wb.p * n.z)) -
      k * (ub[3] - ua[3]);
  const double f4 =
      0.5 * ((ua[4] + wa.p) * vna + (ub[4] + wb.p) * vnb) -
      k * (ub[4] - ua[4]);
  return {f0, f1, f2, f3, f4};
}

/// Adds the transmissive boundary flux through a cell's closure face `d`
/// (zero for interior cells) to its residual `r`. The outward boundary
/// area vector is -d, and physical_flux is linear in its normal, so the
/// flux -F(u, -d) is +F(u, d); this cancels the open-boundary imbalance
/// exactly for uniform flow.
inline void add_closure_flux(State& r, const State& u, const Primitives& w,
                             const mesh::Vec3& d) {
  if (d.x == 0.0 && d.y == 0.0 && d.z == 0.0) {
    return;
  }
  const double vn = (u[1] * d.x + u[2] * d.y + u[3] * d.z) / u[0];
  r[0] += u[0] * vn;
  r[1] += u[1] * vn + w.p * d.x;
  r[2] += u[2] * vn + w.p * d.y;
  r[3] += u[3] * vn + w.p * d.z;
  r[4] += (u[4] + w.p) * vn;
}

/// Total face area of a cell of volume `vol` with `degree` incident
/// edges, as the local time step approximates it: max(degree, 1) times
/// the mean face area vol^(2/3). Step-invariant, so each solver computes
/// it once per cell.
inline double cell_face_area(int degree, double vol) {
  return std::max(static_cast<double>(degree), 1.0) *
         std::pow(vol, 2.0 / 3.0);
}

/// Forward-Euler update of one cell by its residual `r`, with a local
/// time step from the state before the update: dt = cfl * vol / (wave *
/// face_area), wave = |u1/u0| + c the cell's fastest signal along x.
/// Adds r_k^2 to `norm_sq` in component order, then clamps the density
/// to >= 1e-10 and the energy to >= kinetic energy + 1e-10.
inline void update_cell(State& u, const State& r, double c, double vol,
                        double face_area, double cfl, double& norm_sq) {
  const double wave = std::abs(u[1] / u[0]) + c;
  const double dt = cfl * vol / std::max(wave * face_area, 1e-12);
  norm_sq += r[0] * r[0];
  norm_sq += r[1] * r[1];
  norm_sq += r[2] * r[2];
  norm_sq += r[3] * r[3];
  norm_sq += r[4] * r[4];
  u[0] += dt * r[0] / vol;
  u[1] += dt * r[1] / vol;
  u[2] += dt * r[2] / vol;
  u[3] += dt * r[3] / vol;
  u[4] += dt * r[4] / vol;
  u[0] = std::max(u[0], 1e-10);
  const double ke = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
  u[4] = std::max(u[4], ke + 1e-10);
}

}  // namespace cpx::mgcfd
