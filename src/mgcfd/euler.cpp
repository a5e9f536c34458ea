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
    : options_(options), mesh_(mesh) {
  CPX_REQUIRE(options.mg_levels == 1,
              "EulerSolver: mg_levels must be 1 (no multigrid)");
  CPX_REQUIRE(options.cfl > 0.0, "EulerSolver: bad CFL");
  const auto n = static_cast<std::size_t>(mesh_.num_cells());
  u_.assign(n, State{1.0, 0.0, 0.0, 0.0, 2.5});
  residual_.assign(n, State{});
  primitives_.assign(n, Primitives{});
  closure_.assign(n, mesh::Vec3{0.0, 0.0, 0.0});
  for (const mesh::Edge& e : mesh_.edges()) {
    auto& ca = closure_[static_cast<std::size_t>(e.a)];
    auto& cb = closure_[static_cast<std::size_t>(e.b)];
    ca.x += e.area * e.normal.x;
    ca.y += e.area * e.normal.y;
    ca.z += e.area * e.normal.z;
    cb.x -= e.area * e.normal.x;
    cb.y -= e.area * e.normal.y;
    cb.z -= e.area * e.normal.z;
  }
  face_area_.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    face_area_.push_back(cell_face_area(
        mesh_.degree(static_cast<mesh::CellId>(c)), mesh_.volumes()[c]));
  }
}

void EulerSolver::set_uniform(const State& u) {
  for (auto& s : u_) {
    s = u;
  }
}

void EulerSolver::compute_residual(std::vector<State>& residual) {
  const auto& u = u_;
  auto& w = primitives_;
  for (std::size_t c = 0; c < u.size(); ++c) {
    w[c] = primitives(u[c]);
  }
  residual.assign(u.size(), State{});
  for (const mesh::Edge& e : mesh_.edges()) {
    const auto a = static_cast<std::size_t>(e.a);
    const auto b = static_cast<std::size_t>(e.b);
    const State f = rusanov_flux(u[a], w[a], u[b], w[b], e.normal,
                                 options_.dissipation);
    State& ra = residual[a];
    State& rb = residual[b];
    ra[0] -= e.area * f[0];
    rb[0] += e.area * f[0];
    ra[1] -= e.area * f[1];
    rb[1] += e.area * f[1];
    ra[2] -= e.area * f[2];
    rb[2] += e.area * f[2];
    ra[3] -= e.area * f[3];
    rb[3] += e.area * f[3];
    ra[4] -= e.area * f[4];
    rb[4] += e.area * f[4];
  }
  // Transmissive boundary flux through each cell's closure face (zero for
  // interior cells).
  for (std::size_t c = 0; c < u.size(); ++c) {
    add_closure_flux(residual[c], u[c], w[c], closure_[c]);
  }
}

bool EulerSolver::density_finite() const {
  return std::all_of(u_.begin(), u_.end(),
                     [](const State& s) { return std::isfinite(s[0]); });
}

double EulerSolver::step() {
  // The wave speeds need a finite density (the positivity clamp cannot
  // repair a NaN), so no step starts from a non-finite one: it stops and
  // reports the divergence as a NaN norm.
  constexpr double kDiverged = std::numeric_limits<double>::quiet_NaN();
  if (!density_finite()) {
    return kDiverged;
  }
  compute_residual(residual_);
  double norm_sq = 0.0;
  for (std::size_t c = 0; c < u_.size(); ++c) {
    update_cell(u_[c], residual_[c], primitives_[c].c, mesh_.volumes()[c],
                face_area_[c], options_.cfl, norm_sq);
  }
  return density_finite() ? std::sqrt(norm_sq) : kDiverged;
}

double EulerSolver::run(int steps) {
  CPX_REQUIRE(steps >= 1, "run: bad step count");
  double norm = 0.0;
  for (int s = 0; s < steps; ++s) {
    norm = step();
    if (std::isnan(norm)) {
      break;  // diverged
    }
  }
  return norm;
}

}  // namespace cpx::mgcfd
