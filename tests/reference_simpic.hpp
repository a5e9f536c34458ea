#pragma once
// Test-local reference spelling of the SIMPIC particle kernels
// (simpic/particle.hpp) with every `/ dx` written as a division: locate,
// the CIC deposit and the gather + leapfrog advance. The kernels multiply
// by exact_reciprocal(dx) when dx is a power of two; the kernel tests
// compare them with these bit for bit on both kinds of grid.

#include <algorithm>
#include <cstdint>

#include "simpic/particle.hpp"

namespace cpx::testing {

inline simpic::CellPosition reference_locate(double x, double dx,
                                             std::int64_t last_cell) {
  const double c = x / dx;
  const std::int64_t cell =
      std::clamp<std::int64_t>(static_cast<std::int64_t>(c), 0, last_cell);
  return {cell, c - static_cast<double>(cell)};
}

/// CIC deposit of particles [i0, i1) into a segment whose node 0 is the
/// global node `first_node`.
inline void reference_deposit_charge(const double* x, const double* w,
                                     std::int64_t i0, std::int64_t i1,
                                     double dx, std::int64_t last_cell,
                                     std::int64_t first_node, double* rho) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const simpic::CellPosition at = reference_locate(x[i], dx, last_cell);
    const double q = w[i] / dx;
    double* node = rho + (at.cell - first_node);
    node[0] += q * (1.0 - at.frac);
    node[1] += q * at.frac;
  }
}

inline void reference_advance(double& x, double& v, const double* e,
                              double dx, std::int64_t last_cell,
                              std::int64_t first_node, double dt) {
  const simpic::CellPosition at = reference_locate(x, dx, last_cell);
  const double* node = e + (at.cell - first_node);
  const double e_here = node[0] * (1.0 - at.frac) + node[1] * at.frac;
  v = v + dt * -1.0 * e_here;
  x = x + dt * v;
}

}  // namespace cpx::testing
