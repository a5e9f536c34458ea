#pragma once
// MG-CFD numerics: the conserved state, its primitives and the solver
// options of the edge-based finite-volume Euler solver (distributed.hpp),
// the proxy for the production density solver (compressor/turbine rows).
//
// Like the published MG-CFD mini-app, the solver sweeps edges accumulating
// numerical fluxes (here a Rusanov / local Lax-Friedrichs flux, flux.hpp,
// which is robust and preserves free-stream exactly) and applies explicit
// forward-Euler updates with local time steps, on a single grid: the
// multigrid cycle of the published code is accounted for by the
// performance instance (instance.hpp), not run here. Its sequential
// reference, EulerSolver, is test-local (tests/mgcfd_test.cpp).

#include <array>

#include "mesh/mesh.hpp"

namespace cpx::mgcfd {

/// Conserved variables per cell: density, momentum (3), total energy.
using State = std::array<double, 5>;

constexpr double kGamma = 1.4;

/// Static pressure of the conserved state `u`.
double pressure(const State& u);

/// A cell's pressure and sound speed, cached once per residual so every
/// incident edge reads them (mgcfd::primitives in flux.hpp fills one).
struct Primitives {
  double p;  ///< pressure(u)
  double c;  ///< sound speed
};

/// Free-stream state from Mach number, direction and static conditions.
State freestream(double mach, double rho = 1.0, double p = 1.0,
                 const mesh::Vec3& direction = {1.0, 0.0, 0.0});

/// Options of DistributedSolver.
struct EulerOptions {
  double cfl = 0.8;
  /// The solver has no multigrid: its constructor rejects any value but
  /// 1 with CheckError.
  int mg_levels = 1;
  double dissipation = 1.0;   ///< scales the Rusanov upwinding term
};

}  // namespace cpx::mgcfd
