#pragma once
// MG-CFD numerics: an edge-based finite-volume Euler solver over an
// unstructured mesh with geometric-multigrid acceleration — the mini-app
// proxy for the production density solver (compressor/turbine rows).
//
// Like the published MG-CFD mini-app, the solver sweeps edges accumulating
// numerical fluxes (here a Rusanov / local Lax-Friedrichs flux, flux.hpp,
// which is robust and preserves free-stream exactly), applies explicit
// local-time-step updates, and cycles a hierarchy of agglomerated coarse
// meshes to damp long-wavelength error. The kernels are real: tests verify
// free-stream preservation, positivity, conservation, and residual decay.

#include <array>
#include <cstdint>
#include <vector>

#include "mesh/coarsen.hpp"
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

enum class TimeIntegration {
  kForwardEuler,  ///< one residual evaluation per step (MG-CFD's scheme)
  kSsprk3         ///< 3-stage strong-stability-preserving Runge-Kutta
};

struct EulerOptions {
  double cfl = 0.8;
  TimeIntegration integration = TimeIntegration::kForwardEuler;
  int mg_levels = 4;          ///< multigrid depth (1 = single grid)
  int smooth_steps = 2;       ///< explicit steps per level per cycle
  double dissipation = 1.0;   ///< scales the Rusanov upwinding term
  /// Local (per-cell) time stepping converges steady states faster but is
  /// not conservative in time; disable for transient/conservation studies.
  bool local_time_stepping = true;
};

/// Single-domain (sequential) MG-CFD solver. The distributed performance
/// behaviour is modelled separately by mgcfd::Instance; this class provides
/// the actual numerics at test/example scale.
class EulerSolver {
 public:
  EulerSolver(const mesh::UnstructuredMesh& mesh, const EulerOptions& options);

  std::int64_t num_cells() const {
    return meshes_.front().num_cells();
  }
  int num_levels() const { return static_cast<int>(meshes_.size()); }

  /// Sets every cell of the fine level to `u`.
  void set_uniform(const State& u);
  const std::vector<State>& solution() const { return states_.front(); }
  std::vector<State>& mutable_solution() { return states_.front(); }

  /// One explicit smoothing step on the given level (forward Euler or
  /// SSP-RK3 per options); returns the L2 norm of the flux residual at the
  /// start of the step. Divergence is a defined outcome: when the level
  /// holds, or a stage leaves, a non-finite density the step returns NaN
  /// and evaluates no further flux.
  double smooth_level(int level);

  /// One multigrid V-cycle (smooth, restrict, recurse, prolong correction,
  /// smooth). Returns the fine-level residual norm at entry, or NaN as
  /// soon as a smoothing step on any level diverges.
  double vcycle();

  /// `steps` cycles (or plain steps when mg_levels == 1); returns the
  /// final fine-level residual norm, or NaN after stopping at the first
  /// step that diverged.
  double run(int steps);

  /// Total mass (density * volume summed) on the fine level — conserved on
  /// interior-only meshes.
  double total_mass() const;

  /// Flux residual R(U) on a level, as used by smooth_level.
  void compute_residual(int level, std::vector<State>& residual);

 private:
  /// Per-cell time steps for one step on `level` (from the current state).
  std::vector<double> compute_time_steps(int level) const;
  /// u += dt * R(u) / V on `level`; returns the residual L2 norm.
  double euler_stage(int level, const std::vector<double>& dts);
  void clamp_positivity(State& u) const;
  bool density_finite(int level) const;

  void restrict_to(int coarse_level);
  void prolong_correction(int coarse_level);
  void build_closures();

  EulerOptions options_;
  std::vector<mesh::UnstructuredMesh> meshes_;
  std::vector<std::vector<mesh::CellId>> coarse_of_;
  std::vector<std::vector<State>> states_;
  std::vector<std::vector<State>> restricted_;  ///< pre-recursion snapshot
  std::vector<std::vector<State>> residuals_;   ///< scratch per level
  /// Scratch per level: each cell's pressure and sound speed, refreshed
  /// once per residual and read by every incident edge (flux.hpp).
  std::vector<std::vector<Primitives>> primitives_;
  /// Per-level, per-cell geometric closure deficit: the outward area
  /// vector a *boundary* face would need for the cell's faces to sum to
  /// zero. Cells on the domain boundary get a transmissive boundary flux
  /// through it (interior cells have a zero deficit), which makes uniform
  /// flow an exact fixed point on open meshes.
  std::vector<std::vector<mesh::Vec3>> closures_;
};

}  // namespace cpx::mgcfd
