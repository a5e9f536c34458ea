#include "mgcfd/euler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mgcfd/flux.hpp"
#include "support/check.hpp"

namespace cpx::mgcfd {

double pressure(const State& u) {
  const double rho = u[0];
  const double ke =
      0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / rho;
  return (kGamma - 1.0) * (u[4] - ke);
}

double sound_speed(const State& u) { return primitives(u).c; }

State freestream(double mach, double rho, double p,
                 const mesh::Vec3& direction) {
  const double norm = std::sqrt(direction.x * direction.x +
                                direction.y * direction.y +
                                direction.z * direction.z);
  CPX_REQUIRE(norm > 0.0, "freestream: zero direction");
  const double a = std::sqrt(kGamma * p / rho);
  const double speed = mach * a;
  const mesh::Vec3 v{speed * direction.x / norm, speed * direction.y / norm,
                     speed * direction.z / norm};
  State u;
  u[0] = rho;
  u[1] = rho * v.x;
  u[2] = rho * v.y;
  u[3] = rho * v.z;
  u[4] = p / (kGamma - 1.0) +
         0.5 * rho * (v.x * v.x + v.y * v.y + v.z * v.z);
  return u;
}

EulerSolver::EulerSolver(const mesh::UnstructuredMesh& mesh,
                         const EulerOptions& options)
    : options_(options) {
  CPX_REQUIRE(options.mg_levels >= 1, "EulerSolver: bad mg_levels");
  CPX_REQUIRE(options.cfl > 0.0, "EulerSolver: bad CFL");
  mesh::Hierarchy h = mesh::build_hierarchy(mesh, options.mg_levels);
  meshes_ = std::move(h.meshes);
  coarse_of_ = std::move(h.coarse_of);
  states_.resize(meshes_.size());
  restricted_.resize(meshes_.size());
  residuals_.resize(meshes_.size());
  primitives_.resize(meshes_.size());
  for (std::size_t l = 0; l < meshes_.size(); ++l) {
    const auto n = static_cast<std::size_t>(meshes_[l].num_cells());
    states_[l].assign(n, State{1.0, 0.0, 0.0, 0.0, 2.5});
    restricted_[l].assign(n, State{});
    residuals_[l].assign(n, State{});
    primitives_[l].assign(n, Primitives{});
  }
  build_closures();
}

void EulerSolver::build_closures() {
  closures_.resize(meshes_.size());
  for (std::size_t l = 0; l < meshes_.size(); ++l) {
    const mesh::UnstructuredMesh& m = meshes_[l];
    closures_[l].assign(static_cast<std::size_t>(m.num_cells()),
                        mesh::Vec3{0.0, 0.0, 0.0});
    for (const mesh::Edge& e : m.edges()) {
      auto& ca = closures_[l][static_cast<std::size_t>(e.a)];
      auto& cb = closures_[l][static_cast<std::size_t>(e.b)];
      ca.x += e.area * e.normal.x;
      ca.y += e.area * e.normal.y;
      ca.z += e.area * e.normal.z;
      cb.x -= e.area * e.normal.x;
      cb.y -= e.area * e.normal.y;
      cb.z -= e.area * e.normal.z;
    }
  }
}

void EulerSolver::set_uniform(const State& u) {
  for (auto& s : states_.front()) {
    s = u;
  }
}

void EulerSolver::compute_residual(int level,
                                   std::vector<State>& residual) {
  const mesh::UnstructuredMesh& m = meshes_[static_cast<std::size_t>(level)];
  const auto& u = states_[static_cast<std::size_t>(level)];
  auto& w = primitives_[static_cast<std::size_t>(level)];
  for (std::size_t c = 0; c < u.size(); ++c) {
    w[c] = primitives(u[c]);
  }
  residual.assign(static_cast<std::size_t>(m.num_cells()), State{});
  for (const mesh::Edge& e : m.edges()) {
    const auto a = static_cast<std::size_t>(e.a);
    const auto b = static_cast<std::size_t>(e.b);
    const State f = rusanov_flux(u[a], w[a], u[b], w[b], e.normal,
                                 options_.dissipation);
    for (int k = 0; k < 5; ++k) {
      const double contrib = e.area * f[k];
      residual[static_cast<std::size_t>(e.a)][k] -= contrib;
      residual[static_cast<std::size_t>(e.b)][k] += contrib;
    }
  }
  // Transmissive boundary flux through each cell's closure face (zero for
  // interior cells): physical_flux is linear in its (unnormalised) normal, so
  // this cancels the open-boundary imbalance exactly for uniform flow.
  const auto& closure = closures_[static_cast<std::size_t>(level)];
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    const mesh::Vec3& d = closure[static_cast<std::size_t>(c)];
    if (d.x == 0.0 && d.y == 0.0 && d.z == 0.0) {
      continue;
    }
    // Outward boundary area vector is -d; by linearity of the flux,
    // -F(u, -d) = +F(u, d).
    const State f = physical_flux(u[static_cast<std::size_t>(c)],
                                  w[static_cast<std::size_t>(c)], d);
    for (int k = 0; k < 5; ++k) {
      residual[static_cast<std::size_t>(c)][k] += f[k];
    }
  }
}

std::vector<double> EulerSolver::compute_time_steps(int level) const {
  const mesh::UnstructuredMesh& m = meshes_[static_cast<std::size_t>(level)];
  const auto& u = states_[static_cast<std::size_t>(level)];
  std::vector<double> dts(static_cast<std::size_t>(m.num_cells()));
  // Local time step: dt = CFL * V / (sum of |lambda| A over faces) —
  // approximated with the cell's fastest wave and total face area (mean
  // face area from volume^(2/3)).
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    const State& uc = u[static_cast<std::size_t>(c)];
    const double wave = normal_speed(uc, primitives(uc), {1.0, 0.0, 0.0});
    const double vol = m.volumes()[static_cast<std::size_t>(c)];
    const double face_area =
        std::max(static_cast<double>(m.degree(c)), 1.0) *
        std::pow(vol, 2.0 / 3.0);
    dts[static_cast<std::size_t>(c)] =
        options_.cfl * vol / std::max(wave * face_area, 1e-12);
  }
  if (!options_.local_time_stepping) {
    const double dt_global = *std::min_element(dts.begin(), dts.end());
    std::fill(dts.begin(), dts.end(), dt_global);
  }
  return dts;
}

void EulerSolver::clamp_positivity(State& u) const {
  u[0] = std::max(u[0], 1e-10);
  const double ke =
      0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
  u[4] = std::max(u[4], ke + 1e-10);
}

double EulerSolver::euler_stage(int level, const std::vector<double>& dts) {
  const mesh::UnstructuredMesh& m = meshes_[static_cast<std::size_t>(level)];
  auto& u = states_[static_cast<std::size_t>(level)];
  auto& res = residuals_[static_cast<std::size_t>(level)];
  compute_residual(level, res);
  double norm = 0.0;
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    const double dt = dts[static_cast<std::size_t>(c)];
    const double vol = m.volumes()[static_cast<std::size_t>(c)];
    for (int k = 0; k < 5; ++k) {
      const double r = res[static_cast<std::size_t>(c)][k];
      norm += r * r;
      u[static_cast<std::size_t>(c)][k] += dt * r / vol;
    }
    clamp_positivity(u[static_cast<std::size_t>(c)]);
  }
  return std::sqrt(norm);
}

bool EulerSolver::density_finite(int level) const {
  const auto& u = states_[static_cast<std::size_t>(level)];
  return std::all_of(u.begin(), u.end(),
                     [](const State& s) { return std::isfinite(s[0]); });
}

double EulerSolver::smooth_level(int level) {
  // The wave speeds need a finite density (clamp_positivity cannot repair
  // a NaN), so no stage starts from a non-finite one: the step stops and
  // reports the divergence as a NaN norm.
  constexpr double kDiverged = std::numeric_limits<double>::quiet_NaN();
  if (!density_finite(level)) {
    return kDiverged;
  }
  const std::vector<double> dts = compute_time_steps(level);
  auto& u = states_[static_cast<std::size_t>(level)];

  if (options_.integration == TimeIntegration::kForwardEuler) {
    const double norm = euler_stage(level, dts);
    return density_finite(level) ? norm : kDiverged;
  }

  // SSP-RK3 (Shu-Osher): u1 = u + dt L; u2 = 3/4 u + 1/4 (u1 + dt L);
  // u^{n+1} = 1/3 u + 2/3 (u2 + dt L). Frozen per-cell dt across stages.
  const std::vector<State> u0 = u;
  const double norm = euler_stage(level, dts);  // -> u1
  if (!density_finite(level)) {
    return kDiverged;
  }
  euler_stage(level, dts);                      // -> u1 + dt L(u1)
  for (std::size_t c = 0; c < u.size(); ++c) {
    for (int k = 0; k < 5; ++k) {
      u[c][k] = 0.75 * u0[c][k] + 0.25 * u[c][k];
    }
    clamp_positivity(u[c]);
  }
  if (!density_finite(level)) {
    return kDiverged;
  }
  euler_stage(level, dts);                      // -> u2 + dt L(u2)
  for (std::size_t c = 0; c < u.size(); ++c) {
    for (int k = 0; k < 5; ++k) {
      u[c][k] = u0[c][k] / 3.0 + 2.0 / 3.0 * u[c][k];
    }
    clamp_positivity(u[c]);
  }
  return density_finite(level) ? norm : kDiverged;
}

void EulerSolver::restrict_to(int coarse_level) {
  const int fine = coarse_level - 1;
  const auto& map = coarse_of_[static_cast<std::size_t>(fine)];
  const auto& fine_mesh = meshes_[static_cast<std::size_t>(fine)];
  const auto& fu = states_[static_cast<std::size_t>(fine)];
  auto& cu = states_[static_cast<std::size_t>(coarse_level)];
  const auto& cvol = meshes_[static_cast<std::size_t>(coarse_level)].volumes();
  std::fill(cu.begin(), cu.end(), State{});
  for (std::int64_t c = 0; c < fine_mesh.num_cells(); ++c) {
    const auto agg = static_cast<std::size_t>(map[static_cast<std::size_t>(c)]);
    const double v = fine_mesh.volumes()[static_cast<std::size_t>(c)];
    for (int k = 0; k < 5; ++k) {
      cu[agg][k] += v * fu[static_cast<std::size_t>(c)][k];
    }
  }
  for (std::size_t a = 0; a < cu.size(); ++a) {
    for (int k = 0; k < 5; ++k) {
      cu[a][k] /= cvol[a];
    }
  }
  restricted_[static_cast<std::size_t>(coarse_level)] = cu;
}

void EulerSolver::prolong_correction(int coarse_level) {
  const int fine = coarse_level - 1;
  const auto& map = coarse_of_[static_cast<std::size_t>(fine)];
  const auto& cu = states_[static_cast<std::size_t>(coarse_level)];
  const auto& cu0 = restricted_[static_cast<std::size_t>(coarse_level)];
  auto& fu = states_[static_cast<std::size_t>(fine)];
  for (std::size_t c = 0; c < fu.size(); ++c) {
    const auto agg = static_cast<std::size_t>(map[c]);
    for (int k = 0; k < 5; ++k) {
      fu[c][k] += cu[agg][k] - cu0[agg][k];
    }
    clamp_positivity(fu[c]);
  }
}

double EulerSolver::vcycle() {
  double entry_norm = 0.0;
  for (int l = 0; l < num_levels(); ++l) {
    for (int s = 0; s < options_.smooth_steps; ++s) {
      const double norm = smooth_level(l);
      if (std::isnan(norm)) {
        return norm;  // diverged: nothing is prolonged from this level
      }
      if (l == 0 && s == 0) {
        entry_norm = norm;
      }
    }
    if (l + 1 < num_levels()) {
      restrict_to(l + 1);
    }
  }
  for (int l = num_levels() - 1; l > 0; --l) {
    prolong_correction(l);
    for (int s = 0; s < options_.smooth_steps; ++s) {
      const double norm = smooth_level(l - 1);
      if (std::isnan(norm)) {
        return norm;
      }
    }
  }
  return entry_norm;
}

double EulerSolver::run(int steps) {
  CPX_REQUIRE(steps >= 1, "run: bad step count");
  double norm = 0.0;
  for (int s = 0; s < steps; ++s) {
    norm = num_levels() > 1 ? vcycle() : smooth_level(0);
    if (std::isnan(norm)) {
      break;  // diverged
    }
  }
  return norm;
}

double EulerSolver::total_mass() const {
  const auto& m = meshes_.front();
  const auto& u = states_.front();
  double mass = 0.0;
  for (std::int64_t c = 0; c < m.num_cells(); ++c) {
    mass += u[static_cast<std::size_t>(c)][0] *
            m.volumes()[static_cast<std::size_t>(c)];
  }
  return mass;
}

}  // namespace cpx::mgcfd
