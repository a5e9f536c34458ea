#pragma once
// The SIMPIC particle and field kernels of simpic::Pic (one segment: the
// whole grid) and simpic::DistributedPic (one segment per rank, with the
// Thomas carries passed between ranks): the only home of each sequence,
// so both compute the same bits (the build does not contract FMAs). A
// particle's `/ dx` is a multiply by 1/dx when dx is a power of two: both
// round the same real number, so the bits are those of the division.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "support/rng.hpp"

namespace cpx::simpic {

/// 1/dx when dx is a positive power of two whose reciprocal is finite (so
/// the reciprocal is exact, and x * (1/dx) rounds the same real number as
/// x / dx for every x), else 0.
inline double exact_reciprocal(double dx) {
  int exponent = 0;
  const double inv = 1.0 / dx;
  return std::frexp(dx, &exponent) == 0.5 && std::isfinite(inv) ? inv : 0.0;
}

/// A segment of the node grid: the spacing, the last global cell and the
/// global index of the segment's node 0.
struct GridView {
  GridView(double spacing, std::int64_t last, std::int64_t first)
      : dx(spacing),
        inv_dx(exact_reciprocal(spacing)),
        last_cell(last),
        first_node(first) {}

  /// v / dx: the multiply by inv_dx where that has the division's bits.
  double over_dx(double v) const {
    return inv_dx != 0.0 ? v * inv_dx : v / dx;
  }

  double dx;
  double inv_dx;  ///< exact_reciprocal(dx)
  std::int64_t last_cell;
  std::int64_t first_node;
};

struct CellPosition {
  std::int64_t cell = 0;
  double frac = 0.0;  ///< offset inside the cell, in cells
};

/// The one x -> (cell, frac) sequence: cell = floor(over_dx(x)) clamped
/// to [0, last_cell], so x = length lands in the last cell with frac = 1.
/// DistributedPic keeps a particle on the rank owning this cell.
inline CellPosition locate(double x, GridView grid) {
  const double c = grid.over_dx(x);
  const std::int64_t cell = std::clamp<std::int64_t>(
      static_cast<std::int64_t>(c), 0, grid.last_cell);
  return {cell, c - static_cast<double>(cell)};
}

/// CIC deposit of particles [i0, i1) into the segment's nodes `rho`: charge
/// w / dx split linearly between the two nodes of the particle's cell.
inline void deposit_charge(const double* x, const double* w, std::int64_t i0,
                           std::int64_t i1, GridView grid, double* rho) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const CellPosition at = locate(x[i], grid);
    const double q = grid.over_dx(w[i]);
    double* node = rho + (at.cell - grid.first_node);
    node[0] += q * (1.0 - at.frac);
    node[1] += q * at.frac;
  }
}

/// Gathers E (the segment's nodes) at x by linear interpolation and moves
/// the particle one leapfrog step in place. The caller applies the walls.
inline void advance(double& x, double& v, const double* e,
                    GridView grid, double dt) {
  const CellPosition at = locate(x, grid);
  const double* node = e + (at.cell - grid.first_node);
  constexpr double kChargeToMass = -1.0;  // electrons, normalised units
  const double e_here = node[0] * (1.0 - at.frac) + node[1] * at.frac;
  v = v + dt * kChargeToMass * e_here;
  x = x + dt * v;
}

/// E = -dphi/dx on a segment's nodes: central differences, reaching the
/// phi one node beyond each end (`ghost_left`, `ghost_right`), and
/// one-sided differences at a wall.
inline void difference_field(std::span<const double> phi, double ghost_left,
                             double ghost_right, bool wall_left,
                             bool wall_right, double dx, std::span<double> e) {
  const std::size_t n = phi.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double phi_m = i == 0 ? ghost_left : phi[i - 1];
    const double phi_p = i + 1 == n ? ghost_right : phi[i + 1];
    e[i] = -(phi_p - phi_m) / (2.0 * dx);
  }
  if (wall_left) {
    e[0] = -(phi[1] - phi[0]) / dx;
  }
  if (wall_right) {
    e[n - 1] = -(phi[n - 1] - phi[n - 2]) / dx;
  }
}

/// `total` particles evenly spaced over [0, length), displaced by a mode-1
/// sine of relative amplitude `perturbation`, with Maxwellian velocities
/// from `rng`: place(x, v) in particle order; the caller wraps or clamps.
template <typename Place>
void uniform_load(std::int64_t total, double length, double v_thermal,
                  double perturbation, CounterRng& rng, Place&& place) {
  constexpr double kTwoPi = 6.28318530717958647692;
  for (std::int64_t i = 0; i < total; ++i) {
    const double x0 = (static_cast<double>(i) + 0.5) /
                      static_cast<double>(total) * length;
    const double dx_pert = perturbation * length / kTwoPi *
                           std::sin(kTwoPi * x0 / length);
    const double v = v_thermal > 0.0 ? rng.normal(0.0, v_thermal) : 0.0;
    place(x0 + dx_pert, v);
  }
}

/// The last eliminated (c, d) pair; not `live` before the first unknown.
struct EliminationCarry {
  double c = 0.0;
  double d = 0.0;
  bool live = false;
};

/// Forward elimination of -phi'' = rho over one segment of consecutive
/// unknowns: `d` holds rho * h^2 on entry and the eliminated right-hand
/// side on exit, `c` receives the eliminated superdiagonal.
inline void eliminate_forward(std::span<double> d, std::span<double> c,
                              EliminationCarry& carry) {
  std::size_t k = 0;
  if (!carry.live && !d.empty()) {
    c[0] = -1.0 / 2.0;
    d[0] = d[0] / 2.0;
    carry = {c[0], d[0], true};
    k = 1;
  }
  for (; k < d.size(); ++k) {
    const double denom = 2.0 + carry.c;
    carry.c = c[k] = -1.0 / denom;
    carry.d = d[k] = (d[k] + carry.d) / denom;
  }
}

/// Back substitution over one segment, overwriting d with phi. `phi_next`
/// carries phi right of the segment in and its first phi out; an unknown
/// next to the phi = 0 wall (`ends_at_wall`) is its eliminated d.
inline void substitute_back(std::span<double> d, std::span<const double> c,
                            bool ends_at_wall, double& phi_next) {
  std::size_t k = d.size();
  if (ends_at_wall && k > 0) {
    phi_next = d[--k];
  }
  while (k > 0) {
    --k;
    phi_next = d[k] = d[k] - c[k] * phi_next;
  }
}

}  // namespace cpx::simpic
