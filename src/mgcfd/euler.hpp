#pragma once
// MG-CFD numerics: an edge-based finite-volume Euler solver over an
// unstructured mesh — the sequential reference of the distributed solver
// (distributed.hpp), which is the proxy for the production density solver
// (compressor/turbine rows).
//
// Like the published MG-CFD mini-app, the solver sweeps edges accumulating
// numerical fluxes (here a Rusanov / local Lax-Friedrichs flux, flux.hpp,
// which is robust and preserves free-stream exactly) and applies explicit
// forward-Euler updates with local time steps, on a single grid: the
// multigrid cycle of the published code is accounted for by the
// performance instance (instance.hpp), not run here. Tests verify
// free-stream preservation, positivity, conservative fluxes and residual
// decay, and that DistributedSolver reproduces this solver bit for bit.

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/mesh.hpp"

namespace cpx::mgcfd {

/// Conserved variables per cell: density, momentum (3), total energy.
using State = std::array<double, 5>;

constexpr double kGamma = 1.4;

/// Primitive helpers.
double pressure(const State& u);
double sound_speed(const State& u);

/// A cell's pressure and sound speed, cached once per residual so every
/// incident edge reads them (mgcfd::primitives in flux.hpp fills one).
struct Primitives {
  double p;  ///< pressure(u)
  double c;  ///< sound_speed(u)
};

/// Free-stream state from Mach number, direction and static conditions.
State freestream(double mach, double rho = 1.0, double p = 1.0,
                 const mesh::Vec3& direction = {1.0, 0.0, 0.0});

/// Options of EulerSolver and DistributedSolver.
struct EulerOptions {
  double cfl = 0.8;
  /// Neither solver has multigrid: both constructors reject any value
  /// but 1 with CheckError.
  int mg_levels = 1;
  double dissipation = 1.0;   ///< scales the Rusanov upwinding term
};

/// Single-domain (sequential) MG-CFD solver. The distributed performance
/// behaviour is modelled separately by mgcfd::Instance; this class provides
/// the numerics at test scale.
class EulerSolver {
 public:
  EulerSolver(const mesh::UnstructuredMesh& mesh, const EulerOptions& options);

  std::int64_t num_cells() const { return mesh_.num_cells(); }

  /// Sets every cell to `u`.
  void set_uniform(const State& u);
  const std::vector<State>& solution() const { return u_; }
  std::vector<State>& mutable_solution() { return u_; }

  /// One forward-Euler step with local time steps; returns the L2 norm of
  /// the flux residual at the start of the step. Divergence is a defined
  /// outcome: when the state holds, or the update leaves, a non-finite
  /// density the step returns NaN and evaluates no further flux.
  double step();

  /// `steps` steps; returns the final residual norm, or NaN after stopping
  /// at the first step that diverged.
  double run(int steps);

  /// Flux residual R(U) of the current state, as used by step().
  void compute_residual(std::vector<State>& residual);

 private:
  bool density_finite() const;

  EulerOptions options_;
  mesh::UnstructuredMesh mesh_;
  std::vector<State> u_;
  std::vector<State> residual_;  ///< scratch of step()
  /// Scratch: each cell's pressure and sound speed, refreshed once per
  /// residual and read by every incident edge (flux.hpp).
  std::vector<Primitives> primitives_;
  /// Per-cell geometric closure deficit: the outward area vector a
  /// *boundary* face would need for the cell's faces to sum to zero. Cells
  /// on the domain boundary get a transmissive boundary flux through it
  /// (interior cells have a zero deficit), which makes uniform flow an
  /// exact fixed point on open meshes.
  std::vector<mesh::Vec3> closure_;
  /// Per-cell face area of the local time step (mgcfd::cell_face_area).
  std::vector<double> face_area_;
};

}  // namespace cpx::mgcfd
