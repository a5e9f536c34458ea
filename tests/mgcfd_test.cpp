// Tests for the MG-CFD proxy: real Euler finite-volume numerics (free-
// stream preservation, conservative fluxes, positivity, residual decay,
// the distributed solver's bitwise agreement with the sequential one)
// and the performance instance (measured-vs-analytic agreement, scaling
// shape on the virtual cluster, the charges of its halo-overlap mode).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "mesh/partition.hpp"
#include "mgcfd/distributed.hpp"
#include "mgcfd/euler.hpp"
#include "mgcfd/flux.hpp"
#include "mgcfd/instance.hpp"
#include "perfmodel/sweep.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::mgcfd {
namespace {

double sound_speed(const State& u) { return primitives(u).c; }

/// Time of `region` summed over ranks [0, ranks).
sim::RegionTimes summed_over_ranks(const sim::Profile& profile,
                                   sim::RegionId region, int ranks) {
  sim::RegionTimes sum;
  for (sim::Rank r = 0; r < ranks; ++r) {
    sum += profile.rank_region(r, region);
  }
  return sum;
}

/// Sequential single-domain MG-CFD solver: the oracle DistributedSolver
/// must reproduce bit for bit, and the subject of the Euler.* physics
/// tests. It keeps its own loop structure (one residual pass over all
/// edges, then one update pass over all cells) and shares only the flux
/// kernel and cell update of flux.hpp with the distributed solver.
class EulerSolver {
 public:
  EulerSolver(const mesh::UnstructuredMesh& mesh, const EulerOptions& options)
      : options_(options), mesh_(mesh) {
    CPX_REQUIRE(options.mg_levels == 1,
                "EulerSolver: mg_levels must be 1 (no multigrid)");
    CPX_REQUIRE(options.cfl > 0.0, "EulerSolver: bad CFL");
    const auto n = static_cast<std::size_t>(mesh_.num_cells());
    u_.assign(n, State{1.0, 0.0, 0.0, 0.0, 2.5});
    residual_.assign(n, State{});
    primitives_.assign(n, Primitives{});
    // Per-cell geometric closure deficit: the outward area vector a
    // boundary face would need for the cell's faces to sum to zero, which
    // makes uniform flow an exact fixed point on open meshes.
    closure_.assign(n, mesh::Vec3{0.0, 0.0, 0.0});
    std::vector<int> degree(n, 0);
    for (const mesh::Edge& e : mesh_.edges()) {
      const auto a = static_cast<std::size_t>(e.a);
      const auto b = static_cast<std::size_t>(e.b);
      closure_[a].x += e.area * e.normal.x;
      closure_[a].y += e.area * e.normal.y;
      closure_[a].z += e.area * e.normal.z;
      closure_[b].x -= e.area * e.normal.x;
      closure_[b].y -= e.area * e.normal.y;
      closure_[b].z -= e.area * e.normal.z;
      ++degree[a];
      ++degree[b];
    }
    face_area_.reserve(n);
    for (std::size_t c = 0; c < n; ++c) {
      face_area_.push_back(cell_face_area(degree[c], mesh_.volumes()[c]));
    }
  }

  void set_uniform(const State& u) { std::fill(u_.begin(), u_.end(), u); }
  const std::vector<State>& solution() const { return u_; }
  std::vector<State>& mutable_solution() { return u_; }

  /// Flux residual R(U) of the current state, as used by step().
  void compute_residual(std::vector<State>& residual) {
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
    // Transmissive boundary flux through each cell's closure face (zero
    // for interior cells).
    for (std::size_t c = 0; c < u.size(); ++c) {
      add_closure_flux(residual[c], u[c], w[c], closure_[c]);
    }
  }

  /// One forward-Euler step with local time steps; returns the L2 norm of
  /// the flux residual at the start of the step, or NaN when the state
  /// holds, or the update leaves, a non-finite density (no flux is then
  /// evaluated).
  double step() {
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

  /// `steps` steps; returns the final residual norm, or NaN after stopping
  /// at the first step that diverged.
  double run(int steps) {
    double norm = 0.0;
    for (int s = 0; s < steps; ++s) {
      norm = step();
      if (std::isnan(norm)) {
        break;
      }
    }
    return norm;
  }

 private:
  bool density_finite() const {
    return std::all_of(u_.begin(), u_.end(),
                       [](const State& s) { return std::isfinite(s[0]); });
  }

  EulerOptions options_;
  mesh::UnstructuredMesh mesh_;
  std::vector<State> u_;
  std::vector<State> residual_;
  std::vector<Primitives> primitives_;
  std::vector<mesh::Vec3> closure_;
  std::vector<double> face_area_;
};

TEST(Euler, PressureAndSoundSpeed) {
  const State u = freestream(0.5, 1.0, 1.0);
  EXPECT_NEAR(pressure(u), 1.0, 1e-12);
  EXPECT_NEAR(sound_speed(u), std::sqrt(1.4), 1e-12);
}

std::size_t differing_bits(const State& a, const State& b) {
  std::size_t n = 0;
  for (int k = 0; k < 5; ++k) {
    n += std::bit_cast<std::uint64_t>(a[k]) !=
         std::bit_cast<std::uint64_t>(b[k]);
  }
  return n;
}

TEST(Flux, PrimitiveFormMatchesStateForm) {
  // The kernel reads cached primitives; built instead from pressure() and
  // sound_speed() per call (the state form), every flux must carry the
  // same bits. A third of the states have p <= 0, which exercises the
  // sound speed's max(p, 1e-300) clamp.
  const auto ref_physical_flux = [](const State& u, const mesh::Vec3& n) {
    const double rho = u[0];
    const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / rho;
    const double p = pressure(u);
    return State{rho * vn, u[1] * vn + p * n.x, u[2] * vn + p * n.y,
                 u[3] * vn + p * n.z, (u[4] + p) * vn};
  };
  const auto ref_normal_speed = [](const State& u, const mesh::Vec3& n) {
    const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / u[0];
    return std::abs(vn) + sound_speed(u);
  };
  Rng rng(17);
  const auto random_state = [&rng](bool nonpositive_pressure) {
    State u;
    u[0] = rng.uniform(0.1, 3.0);
    for (int k = 1; k < 4; ++k) {
      u[k] = rng.uniform(-2.0, 2.0);
    }
    const double ke = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
    u[4] = nonpositive_pressure ? ke * rng.uniform(0.0, 1.0)
                                : ke + rng.uniform(0.1, 5.0);
    return u;
  };
  int clamped = 0;
  for (int i = 0; i < 3000; ++i) {
    const State ua = random_state(i % 3 == 0);
    const State ub = random_state(i % 5 == 0);
    const mesh::Vec3 n{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
    const double dissipation = rng.uniform(0.5, 1.5);
    const Primitives wa = primitives(ua);
    const Primitives wb = primitives(ub);
    clamped += pressure(ua) <= 0.0;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wa.p),
              std::bit_cast<std::uint64_t>(pressure(ua)));
    ASSERT_EQ(std::bit_cast<std::uint64_t>(wa.c),
              std::bit_cast<std::uint64_t>(sound_speed(ua)));
    const State fa = ref_physical_flux(ua, n);
    const State fb = ref_physical_flux(ub, n);
    ASSERT_EQ(differing_bits(physical_flux(ua, wa, n), fa), 0U);
    const double smax = std::max(ref_normal_speed(ua, n),
                                 ref_normal_speed(ub, n));
    State want;
    for (int k = 0; k < 5; ++k) {
      want[k] = 0.5 * (fa[k] + fb[k]) -
                0.5 * dissipation * smax * (ub[k] - ua[k]);
    }
    ASSERT_EQ(differing_bits(rusanov_flux(ua, wa, ub, wb, n, dissipation),
                             want),
              0U)
        << "state " << i;
  }
  EXPECT_EQ(clamped, 1000);
}

// The array spelling of the kernel before it was written per component:
// State temporaries and loops over the five components. A test-local copy,
// so a change that moves both solvers together (they share flux.hpp, so
// DistributedVsSequential cannot see it) still has a reference.
namespace array_form {

State physical_flux(const State& u, const Primitives& w, const mesh::Vec3& n) {
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

double normal_speed(const State& u, const Primitives& w, const mesh::Vec3& n) {
  const double vn = (u[1] * n.x + u[2] * n.y + u[3] * n.z) / u[0];
  return std::abs(vn) + w.c;
}

State rusanov_flux(const State& ua, const Primitives& wa, const State& ub,
                   const Primitives& wb, const mesh::Vec3& n,
                   double dissipation) {
  const State fa = array_form::physical_flux(ua, wa, n);
  const State fb = array_form::physical_flux(ub, wb, n);
  const double smax =
      std::max(array_form::normal_speed(ua, wa, n),
               array_form::normal_speed(ub, wb, n));
  State f;
  for (int k = 0; k < 5; ++k) {
    f[k] = 0.5 * (fa[k] + fb[k]) - 0.5 * dissipation * smax * (ub[k] - ua[k]);
  }
  return f;
}

void add_closure_flux(State& r, const State& u, const Primitives& w,
                      const mesh::Vec3& d) {
  if (d.x == 0.0 && d.y == 0.0 && d.z == 0.0) {
    return;
  }
  const State f = array_form::physical_flux(u, w, d);
  for (int k = 0; k < 5; ++k) {
    r[k] += f[k];
  }
}

void update_cell(State& u, const State& r, double c, double vol,
                 double face_area, double cfl, double& norm_sq) {
  const double wave = array_form::normal_speed(u, {0.0, c}, {1.0, 0.0, 0.0});
  const double dt = cfl * vol / std::max(wave * face_area, 1e-12);
  for (int k = 0; k < 5; ++k) {
    norm_sq += r[k] * r[k];
    u[k] += dt * r[k] / vol;
  }
  u[0] = std::max(u[0], 1e-10);
  const double ke = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
  u[4] = std::max(u[4], ke + 1e-10);
}

}  // namespace array_form

TEST(Flux, ComponentFormMatchesTheArrayFormReference) {
  // 12k random edges, each followed by the closure flux and the update of
  // its cell a: normals of any sign, densities from 1e-10 to 10 (log-
  // uniform), flows up to Mach 3 in any direction, every other cell on
  // the boundary (non-zero closure), and residuals large enough that both
  // positivity clamps fire. Every value must carry the array form's bits.
  Rng rng(35);
  const auto random_vector = [&rng] {
    return mesh::Vec3{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.0, 1.0)};
  };
  const auto random_state = [&] {
    const double rho = std::pow(10.0, rng.uniform(-10.0, 1.0));
    const double p = std::pow(10.0, rng.uniform(-3.0, 2.0));
    mesh::Vec3 dir = random_vector();
    if (dir.x == 0.0 && dir.y == 0.0 && dir.z == 0.0) {
      dir.x = 1.0;
    }
    return freestream(rng.uniform(0.0, 3.0), rho, p, dir);
  };
  double norm_sq = 0.0;
  double ref_norm_sq = 0.0;
  int boundary_cells = 0;
  int density_clamps = 0;
  int energy_clamps = 0;
  for (int i = 0; i < 12000; ++i) {
    const State ua = random_state();
    const State ub = random_state();
    const Primitives wa = primitives(ua);
    const Primitives wb = primitives(ub);
    const mesh::Vec3 v = random_vector();
    const double len = std::sqrt(v.x * v.x + v.y * v.y + v.z * v.z);
    const mesh::Vec3 n{v.x / len, v.y / len, v.z / len};
    const double dissipation = rng.uniform(0.5, 1.5);

    ASSERT_EQ(differing_bits(physical_flux(ua, wa, n),
                             array_form::physical_flux(ua, wa, n)),
              0U)
        << "edge " << i;
    const State f = rusanov_flux(ua, wa, ub, wb, n, dissipation);
    ASSERT_EQ(differing_bits(
                  f, array_form::rusanov_flux(ua, wa, ub, wb, n, dissipation)),
              0U)
        << "edge " << i;

    // Cell a's residual: this edge's flux out of it, scaled up to 100x so
    // some updates overshoot, then its closure flux.
    const double area = std::pow(10.0, rng.uniform(-1.0, 2.0));
    State r{};
    for (int k = 0; k < 5; ++k) {
      r[k] -= area * f[k];
    }
    const mesh::Vec3 d = i % 2 == 0 ? random_vector() : mesh::Vec3{0, 0, 0};
    boundary_cells += i % 2 == 0;
    State ref_r = r;
    add_closure_flux(r, ua, wa, d);
    array_form::add_closure_flux(ref_r, ua, wa, d);
    ASSERT_EQ(differing_bits(r, ref_r), 0U) << "edge " << i;

    const double vol = std::pow(10.0, rng.uniform(-3.0, 0.0));
    const double face_area =
        rng.uniform(1.0, 6.0) * std::pow(vol, 2.0 / 3.0);
    const double cfl = rng.uniform(0.1, 1.5);
    State u = ua;
    State ref_u = ua;
    update_cell(u, r, wa.c, vol, face_area, cfl, norm_sq);
    array_form::update_cell(ref_u, ref_r, wa.c, vol, face_area, cfl,
                            ref_norm_sq);
    ASSERT_EQ(differing_bits(u, ref_u), 0U) << "edge " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(norm_sq),
              std::bit_cast<std::uint64_t>(ref_norm_sq))
        << "edge " << i;
    density_clamps += u[0] == 1e-10;
    const double ke = 0.5 * (u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
    energy_clamps += u[4] == ke + 1e-10;
  }
  EXPECT_EQ(boundary_cells, 6000);
  EXPECT_GT(density_clamps, 100);
  EXPECT_GT(energy_clamps, 100);
}

TEST(Euler, FreestreamIsExactFixedPoint) {
  // Rusanov flux of two identical states along any normal cancels in the
  // residual: a uniform flow must not change at all.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  EulerSolver solver(m, {});
  const State inf = freestream(0.5);
  solver.set_uniform(inf);
  const double res = solver.run(5);
  EXPECT_LT(res, 1e-12);
  for (const State& u : solver.solution()) {
    for (int k = 0; k < 5; ++k) {
      EXPECT_NEAR(u[k], inf[k], 1e-12);
    }
  }
}

TEST(Euler, FluxResidualSumsToZeroOnPeriodicMesh) {
  // The flux form is antisymmetric per edge: what one cell loses through a
  // face its neighbour gains. On a boundary-free (periodic) mesh every
  // conserved quantity's residual therefore sums to zero over the cells,
  // to round-off relative to the residuals' magnitude.
  const mesh::UnstructuredMesh m =
      mesh::make_box_mesh(5, 5, 5, 42, /*periodic=*/true);
  EulerSolver solver(m, {});
  solver.set_uniform(freestream(0.3));
  auto& u = solver.mutable_solution();
  u[10][0] *= 1.05;
  u[40][4] *= 1.02;
  u[77][1] += 0.1;
  std::vector<State> res;
  solver.compute_residual(res);
  ASSERT_EQ(res.size(), u.size());
  for (int k = 0; k < 5; ++k) {
    double sum = 0.0;
    double abs_sum = 0.0;
    for (const State& r : res) {
      sum += r[k];
      abs_sum += std::abs(r[k]);
    }
    ASSERT_GT(abs_sum, 0.0) << "component " << k;
    EXPECT_LE(std::abs(sum), 1e-12 * abs_sum) << "component " << k;
  }
}

TEST(Euler, PerturbationDecaysTowardsUniform) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  EulerOptions opt;
  opt.cfl = 0.4;
  EulerSolver solver(m, opt);
  solver.set_uniform(freestream(0.4));
  auto& u = solver.mutable_solution();
  for (std::size_t c = 0; c < u.size(); c += 7) {
    u[c][0] *= 1.03;  // density bumps
  }
  std::vector<State> res(u.size());
  solver.compute_residual(res);
  double norm0 = 0.0;
  for (const State& r : res) {
    for (double v : r) {
      norm0 += v * v;
    }
  }
  const double final_res = solver.run(200);
  EXPECT_LT(final_res * final_res, 0.25 * norm0);
}

TEST(Euler, DensityStaysPositive) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(5, 5, 5);
  EulerSolver solver(m, {});
  solver.set_uniform(freestream(0.8));
  auto& u = solver.mutable_solution();
  u[0][0] = 0.1;  // strong density dip
  solver.run(50);
  for (const State& s : solver.solution()) {
    EXPECT_GT(s[0], 0.0);
    EXPECT_GT(pressure(s), 0.0);
  }
}

TEST(Euler, RejectsMultigridLevels) {
  // The solver steps a single grid; a multigrid depth it would ignore is
  // an error, not a silent change of numerics.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(4, 4, 4);
  EulerOptions opt;
  opt.mg_levels = 2;
  EXPECT_THROW(EulerSolver(m, opt), CheckError);
  opt.mg_levels = 1;
  EXPECT_NO_THROW(EulerSolver(m, opt));
}

TEST(Euler, RejectsNonPositiveCfl) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(3, 3, 3);
  EulerOptions opt;
  opt.cfl = 0.0;
  EXPECT_THROW(EulerSolver(m, opt), CheckError);
  opt.cfl = -0.5;
  EXPECT_THROW(EulerSolver(m, opt), CheckError);
}

TEST(Euler, FreestreamHasRequestedMachPressureAndDirection) {
  const State u = freestream(0.6, 1.3, 0.9, {0.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(u[0], 1.3);
  EXPECT_NEAR(pressure(u), 0.9, 1e-12);
  EXPECT_EQ(u[1], 0.0);
  // The direction is normalised: momentum follows (0, 3, 4) / 5.
  EXPECT_NEAR(u[2] / u[3], 0.75, 1e-12);
  const double speed =
      std::sqrt(u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) / u[0];
  EXPECT_NEAR(speed / sound_speed(u), 0.6, 1e-12);
  EXPECT_THROW(freestream(0.5, 1.0, 1.0, {0.0, 0.0, 0.0}), CheckError);
}

TEST(Euler, FreestreamIsExactFixedPointOnAnnulus) {
  // The annulus sector is open on five sides and its face areas vary with
  // radius; each boundary cell's closure flux must still balance uniform
  // flow to round-off.
  const mesh::UnstructuredMesh m =
      mesh::make_annulus_mesh(4, 8, 3, 1.0, 2.0, 40.0, 0.6);
  EulerSolver solver(m, {});
  const State inf = freestream(0.7, 1.0, 1.0, {0.3, 0.2, 1.0});
  solver.set_uniform(inf);
  const double res = solver.run(5);
  EXPECT_LT(res, 1e-12);
  for (const State& u : solver.solution()) {
    for (int k = 0; k < 5; ++k) {
      EXPECT_NEAR(u[k], inf[k], 1e-12);
    }
  }
}

TEST(Euler, NonFiniteDensityStopsTheRunWithoutTouchingTheState) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(4, 4, 4);
  EulerSolver solver(m, {});
  solver.set_uniform(freestream(0.4));
  solver.mutable_solution()[5][0] = std::nan("");
  const std::vector<State> before = solver.solution();
  EXPECT_TRUE(std::isnan(solver.step()));
  EXPECT_TRUE(std::isnan(solver.run(3)));
  const std::vector<State>& after = solver.solution();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t c = 0; c < after.size(); ++c) {
    EXPECT_EQ(differing_bits(after[c], before[c]), 0U) << "cell " << c;
  }
}

TEST(Flux, RusanovOfEqualStatesIsThePhysicalFlux) {
  // Consistency: with no jump across the face the upwinding term vanishes
  // and the numerical flux is the physical one, bit for bit.
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const State u = freestream(rng.uniform(0.0, 2.0), rng.uniform(0.5, 2.0),
                               rng.uniform(0.5, 2.0),
                               {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                                rng.uniform(0.1, 1.0)});
    const Primitives w = primitives(u);
    const mesh::Vec3 n{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
    ASSERT_EQ(differing_bits(rusanov_flux(u, w, u, w, n, 1.0),
                             physical_flux(u, w, n)),
              0U)
        << "state " << i;
  }
}

TEST(Flux, RusanovIsAntisymmetricUnderSwap) {
  // Conservation per edge: the flux from b to a through -n is exactly the
  // negated flux from a to b through n, so what one cell loses its
  // neighbour gains.
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const State ua = freestream(rng.uniform(0.0, 1.5), rng.uniform(0.5, 2.0),
                                rng.uniform(0.5, 2.0),
                                {rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0),
                                 rng.uniform(-1.0, 1.0)});
    const State ub = freestream(rng.uniform(0.0, 1.5), rng.uniform(0.5, 2.0),
                                rng.uniform(0.5, 2.0),
                                {rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0),
                                 rng.uniform(-1.0, 1.0)});
    const mesh::Vec3 n{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(-1.0, 1.0)};
    const mesh::Vec3 minus_n{-n.x, -n.y, -n.z};
    const double d = rng.uniform(0.5, 1.5);
    const State fab =
        rusanov_flux(ua, primitives(ua), ub, primitives(ub), n, d);
    const State fba =
        rusanov_flux(ub, primitives(ub), ua, primitives(ua), minus_n, d);
    for (int k = 0; k < 5; ++k) {
      ASSERT_EQ(fba[k], -fab[k]) << "state " << i << " component " << k;
    }
  }
}

TEST(Flux, PhysicalFluxIsLinearInTheNormal) {
  // The closure flux relies on this: the flux through a sum of area
  // vectors is the sum of the fluxes through each.
  const State u = freestream(0.8, 1.2, 0.7, {1.0, -0.5, 0.25});
  const Primitives w = primitives(u);
  const mesh::Vec3 n1{0.3, -0.7, 0.2};
  const mesh::Vec3 n2{-1.1, 0.4, 0.9};
  const mesh::Vec3 sum{n1.x + n2.x, n1.y + n2.y, n1.z + n2.z};
  const State f1 = physical_flux(u, w, n1);
  const State f2 = physical_flux(u, w, n2);
  const State fs = physical_flux(u, w, sum);
  const State f3 = physical_flux(u, w, {3.0 * n1.x, 3.0 * n1.y, 3.0 * n1.z});
  for (int k = 0; k < 5; ++k) {
    EXPECT_NEAR(fs[k], f1[k] + f2[k], 1e-12) << "component " << k;
    EXPECT_NEAR(f3[k], 3.0 * f1[k], 1e-12) << "component " << k;
  }
}

TEST(Flux, GasAtRestCarriesOnlyPressure) {
  // No velocity, no transport: the only flux is the pressure force on the
  // momentum along the area vector, and the fastest signal is the sound
  // speed.
  const State u = freestream(0.0, 1.4, 2.0);
  const Primitives w = primitives(u);
  const mesh::Vec3 n{0.6, 0.0, -0.8};
  const State f = physical_flux(u, w, n);
  EXPECT_EQ(f[0], 0.0);
  EXPECT_NEAR(f[1], 2.0 * n.x, 1e-12);
  EXPECT_EQ(f[2], 0.0);
  EXPECT_NEAR(f[3], 2.0 * n.z, 1e-12);
  EXPECT_EQ(f[4], 0.0);
  EXPECT_NEAR(w.c, std::sqrt(kGamma * 2.0 / 1.4), 1e-12);
  // A pure energy jump to a second gas at rest is upwinded at the faster
  // of the two sound speeds.
  State hot = u;
  hot[4] += 0.5;
  const Primitives wh = primitives(hot);
  ASSERT_GT(wh.c, w.c);
  EXPECT_DOUBLE_EQ(rusanov_flux(u, w, hot, wh, n, 1.0)[4], -0.5 * wh.c * 0.5);
}

TEST(Instance, AnalyticMatchesMeasuredModeAtSmallScale) {
  // Build the same nominal problem both ways and compare per-step virtual
  // time: the analytic partition statistics must track a real RCB
  // partitioning within a modest tolerance.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(40, 40, 25);
  const int p = 16;
  const mesh::Partitioning part = mesh::partition_rcb(m, p);

  sim::Cluster c1(sim::MachineModel::archer2(), p);
  Instance measured("measured", m, part, {0, p});
  measured.step(c1);
  const double t_measured = c1.max_clock();

  sim::Cluster c2(sim::MachineModel::archer2(), p);
  Instance analytic("analytic", m.num_cells(), {0, p});
  analytic.step(c2);
  const double t_analytic = c2.max_clock();

  EXPECT_NEAR(t_analytic, t_measured, 0.2 * t_measured);
}

TEST(Instance, StepTimeScalesDownWithRanks) {
  auto machine = sim::MachineModel::archer2();
  const std::vector<int> cores = {100, 400, 1600};
  const auto pts = perfmodel::measure_scaling(
      [](sim::RankRange r) {
        return std::make_unique<Instance>("m", 24'000'000, r);
      },
      machine, cores, 2);
  EXPECT_GT(pts[0].seconds, pts[1].seconds);
  EXPECT_GT(pts[1].seconds, pts[2].seconds);
  // Strong scaling is good but not perfect at this size.
  const double pe = (pts[0].seconds * 100.0) / (pts[2].seconds * 1600.0);
  EXPECT_GT(pe, 0.55);
  EXPECT_LT(pe, 1.01);
}

TEST(Instance, LargerMeshTakesProportionallyLonger) {
  auto machine = sim::MachineModel::archer2();
  sim::Cluster ca(machine, 200);
  sim::Cluster cb(machine, 200);
  Instance small("s", 24'000'000, {0, 200});
  Instance large("l", 150'000'000, {0, 200});
  small.step(ca);
  large.step(cb);
  const double ratio = cb.max_clock() / ca.max_clock();
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 8.0);  // 150/24 = 6.25 plus surface effects
}

TEST(Instance, ProfileSplitsComputeAndComm) {
  sim::Cluster c(sim::MachineModel::archer2(), 64);
  Instance inst("row", 8'000'000, {0, 64});
  inst.step(c);
  const sim::RegionId flux = c.profile().find_region("row/flux");
  const sim::RegionId halo = c.profile().find_region("row/halo");
  ASSERT_GE(flux, 0);
  ASSERT_GE(halo, 0);
  EXPECT_GT(summed_over_ranks(c.profile(), flux, 64).compute, 0.0);
  EXPECT_GT(summed_over_ranks(c.profile(), halo, 64).comm, 0.0);
}

TEST(Instance, OverlapPlacesTheSameFluxComputeAndNeverSlowsTheStep) {
  // Overlap is modelled on the performance instance alone: the split-phase
  // step charges each rank's interior share of the sweeps inside the halo
  // window and the boundary share after it. Both modes charge each rank
  // the same flux compute; only the overlapped one hides comm time, and
  // its schedule is never slower than the synchronous one.
  struct Machine {
    const char* label;
    sim::MachineModel model;
  };
  for (const Machine& machine :
       {Machine{"archer2", sim::MachineModel::archer2()},
        Machine{"slow_network", sim::MachineModel::slow_network()}}) {
    for (const std::int64_t cells :
         {std::int64_t{2'000'000}, std::int64_t{24'000'000},
          std::int64_t{150'000'000}}) {
      for (const int p : {16, 128, 512, 2048}) {
        sim::Cluster sync(machine.model, p);
        sim::Cluster over(machine.model, p);
        Instance sync_row("row", cells, {0, p});
        Instance over_row("row", cells, {0, p});
        over_row.set_overlap(true);
        for (int s = 0; s < 2; ++s) {
          sync_row.step(sync);
          over_row.step(over);
        }
        const std::string where = std::string(machine.label) + " cells=" +
                                  std::to_string(cells) +
                                  " ranks=" + std::to_string(p);
        const sim::RegionId sync_flux = sync.profile().find_region("row/flux");
        const sim::RegionId over_flux = over.profile().find_region("row/flux");
        ASSERT_GE(sync_flux, 0);
        ASSERT_GE(over_flux, 0);
        for (sim::Rank r = 0; r < p; ++r) {
          const double want = sync.profile().rank_region(r, sync_flux).compute;
          const double got = over.profile().rank_region(r, over_flux).compute;
          ASSERT_GT(want, 0.0) << where << " rank " << r;
          ASSERT_NEAR(got, want, 1e-12 * want) << where << " rank " << r;
        }
        const sim::RankRange ranks{0, p};
        EXPECT_EQ(sync.comm_hidden_seconds(ranks), 0.0) << where;
        EXPECT_GT(over.comm_hidden_seconds(ranks), 0.0) << where;
        EXPECT_LE(over.max_clock(), sync.max_clock()) << where;
      }
    }
  }
}

class DistributedVsSequential : public ::testing::TestWithParam<int> {};

TEST_P(DistributedVsSequential, SameSolutionAsSequential) {
  // The partitioned solver with real halo exchange must reproduce the
  // sequential solver's solution bit for bit: both solvers evaluate the
  // shared flux kernel (mgcfd/flux.hpp) and every cell sums its edges in
  // ascending edge order. The returned norms are not compared: the
  // allreduce combines per-rank partial sums.
  const int parts = GetParam();
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  opt.cfl = 0.5;

  EulerSolver seq(m, opt);
  const State inf = freestream(0.4);
  seq.set_uniform(inf);
  State bump = inf;
  bump[0] *= 1.05;
  seq.mutable_solution()[100] = bump;
  seq.run(15);
  const auto& want = seq.solution();

  DistributedSolver dist(m, parts, opt);
  dist.set_uniform(inf);
  dist.set_cell(100, bump);  // the same perturbation
  dist.run(15);
  const auto got = dist.gather_solution();
  ASSERT_EQ(got.size(), want.size());
  std::size_t differing = 0;
  for (std::size_t c = 0; c < want.size(); ++c) {
    differing += differing_bits(got[c], want[c]);
  }
  EXPECT_EQ(differing, 0U) << "parts=" << parts;
}

TEST_P(DistributedVsSequential, DivergenceReturnsNaN) {
  // Divergence is a defined outcome of the distributed step too: the step
  // whose update leaves a non-finite density returns NaN (the same step
  // as the sequential solver's), run() stops there, and a further step's
  // primitive refresh flags the state and returns NaN before a flux reads
  // it, with no DCHECK tripped. With a cluster attached, a diverged step
  // leaves the virtual clock finite and stepping again does not throw.
  // CFL 3 is beyond forward Euler's stability limit, so the sequential
  // run diverges within the step budget it is given below.
  const int parts = GetParam();
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  opt.cfl = 3.0;
  const State inf = freestream(0.5);
  EulerSolver seq(m, opt);
  seq.set_uniform(inf);
  for (std::size_t c = 0; c < seq.solution().size(); c += 5) {
    seq.mutable_solution()[c][0] *= 1.02;
  }
  const State start = seq.solution()[0];
  int seq_steps = 0;
  while (seq_steps < 200 && !std::isnan(seq.run(1))) {
    ++seq_steps;
  }
  ASSERT_LT(seq_steps, 200) << "the sequential run did not diverge";

  for (const bool with_cluster : {false, true}) {
    DistributedSolver dist(m, parts, opt);
    sim::Cluster cluster(sim::MachineModel::archer2(), parts);
    if (with_cluster) {
      dist.attach_cluster(&cluster);
    }
    dist.set_uniform(inf);
    for (mesh::CellId c = 0; c < m.num_cells(); c += 5) {
      dist.set_cell(c, start);
    }
    int steps = 0;
    while (steps < 200 && !std::isnan(dist.step())) {
      ++steps;
    }
    EXPECT_EQ(steps, seq_steps)
        << "parts=" << parts << " cluster=" << with_cluster;
    // Stepping again neither throws nor leaves a non-finite clock.
    for (int again = 0; again < 2; ++again) {
      EXPECT_TRUE(std::isnan(dist.step()));
    }
    EXPECT_TRUE(std::isnan(dist.run(3)));
    EXPECT_TRUE(std::isfinite(cluster.max_clock()));
  }
}

INSTANTIATE_TEST_SUITE_P(PartCounts, DistributedVsSequential,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST(Distributed, HaloBytesMatchCutSurface) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(10, 10, 10);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  // Halo traffic equals the total send-list size times the state size,
  // reported through the shared comm/bytes accounting (the plan knows the
  // per-step payload; the communicator counts what actually moved).
  EXPECT_GT(dist.halo_bytes_per_exchange(), 0u);
  EXPECT_EQ(dist.halo_bytes_per_exchange() % sizeof(State), 0u);
  const std::int64_t before = dist.comm_stats().bytes;
  dist.step();
  const std::int64_t moved = dist.comm_stats().bytes - before;
  // One step = one halo exchange plus the 8-byte-per-rank allreduce.
  EXPECT_EQ(moved, static_cast<std::int64_t>(dist.halo_bytes_per_exchange()) +
                       4 * static_cast<std::int64_t>(sizeof(double)));
  // A single part exchanges no halo payload (only its allreduce entry).
  DistributedSolver solo(m, 1, opt);
  solo.set_uniform(freestream(0.3));
  solo.step();
  EXPECT_EQ(solo.halo_bytes_per_exchange(), 0u);
  EXPECT_EQ(solo.comm_stats().bytes,
            static_cast<std::int64_t>(sizeof(double)));
}

TEST(Distributed, CoSimulationChargesTheCluster) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(10, 10, 10);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  dist.attach_cluster(&cluster);
  dist.run(3);
  EXPECT_GT(cluster.max_clock(), 0.0);
  const sim::RegionId halo = cluster.profile().find_region("dist_mgcfd/halo");
  ASSERT_GE(halo, 0);
  EXPECT_GT(summed_over_ranks(cluster.profile(), halo, 4).comm, 0.0);
}

TEST(Distributed, RejectsMultigridLevels) {
  // Like EulerSolver, the distributed solver steps a single grid and
  // rejects a multigrid depth instead of overwriting it.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(4, 4, 4);
  EulerOptions opt;
  opt.mg_levels = 2;
  EXPECT_THROW(DistributedSolver(m, 2, opt), CheckError);
  opt.mg_levels = 1;
  EXPECT_NO_THROW(DistributedSolver(m, 2, opt));
}

TEST(Distributed, FreestreamFixedPointSurvivesPartitioning) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  EulerOptions opt;
  DistributedSolver dist(m, 5, opt);
  const State inf = freestream(0.6);
  dist.set_uniform(inf);
  const double res = dist.run(5);
  EXPECT_LT(res, 1e-12);
}

TEST(Distributed, SolutionIsPinnedBitwise) {
  // The distributed solution is an output that must never move: a density
  // and energy pulse on a small annulus row, 4 parts, 10 steps, with a
  // co-simulating cluster attached, which pins the virtual clock, each
  // rank's halo comm time and the bound schedule's traffic too.
  const mesh::UnstructuredMesh m =
      mesh::make_annulus_mesh(6, 24, 8, 1.0, 2.0, 30.0, 1.0, 5);
  EulerOptions opt;
  opt.cfl = 0.4;
  const State inf = freestream(0.4, 1.0, 1.0, {0, 0, 1});
  constexpr std::uint64_t kSolutionDigest = 0x7557f84be2e41fbfULL;
  constexpr std::uint64_t kClockBits = 0x3f46f7212a5c02d3ULL;
  constexpr std::uint64_t kHaloCommBits[] = {
      0x3eff75104d551d5eULL, 0x3eff75104d551d5eULL, 0x3f0040bfe3b03e37ULL,
      0x3f02ca5d05ea7ab3ULL};
  DistributedSolver dist(m, 4, opt);
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  dist.attach_cluster(&cluster);
  dist.set_uniform(inf);
  for (mesh::CellId c = 0; c < m.num_cells(); c += 7) {
    State bumped = inf;
    bumped[0] *= 1.08;
    bumped[4] *= 1.08;
    dist.set_cell(c, bumped);
  }
  dist.run(10);
  std::uint64_t h = 0;
  for (const State& u : dist.gather_solution()) {
    for (const double v : u) {
      h = hash_mix(h, std::bit_cast<std::uint64_t>(v));
    }
  }
  EXPECT_EQ(h, kSolutionDigest);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cluster.max_clock()), kClockBits);
  const sim::RegionId halo = cluster.profile().find_region("dist_mgcfd/halo");
  ASSERT_GE(halo, 0);
  for (sim::Rank r = 0; r < 4; ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  cluster.profile().rank_region(r, halo).comm),
              kHaloCommBits[r])
        << "rank " << r;
  }
  EXPECT_EQ(cluster.comm_bytes({0, 4}), 233520u);
  EXPECT_EQ(cluster.comm_messages({0, 4}), 160);
}

/// Everything one cluster was charged, compared bit for bit.
void expect_same_charges(const sim::Cluster& a, const sim::Cluster& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_EQ(a.profile().num_regions(), b.profile().num_regions());
  for (sim::Rank r = 0; r < a.num_ranks(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.clock(r)),
              std::bit_cast<std::uint64_t>(b.clock(r)))
        << "rank " << r;
    EXPECT_EQ(a.comm_bytes(r), b.comm_bytes(r)) << "rank " << r;
    EXPECT_EQ(a.comm_messages(r), b.comm_messages(r)) << "rank " << r;
    const auto regions = static_cast<sim::RegionId>(a.profile().num_regions());
    for (sim::RegionId g = 0; g < regions; ++g) {
      const sim::RegionTimes ta = a.profile().rank_region(r, g);
      const sim::RegionTimes tb = b.profile().rank_region(r, g);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ta.comm),
                std::bit_cast<std::uint64_t>(tb.comm))
          << "rank " << r << " region " << g;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ta.compute),
                std::bit_cast<std::uint64_t>(tb.compute))
          << "rank " << r << " region " << g;
    }
  }
}

TEST(Distributed, ReattachingRebindsTheHaloSchedule) {
  // The halo schedule is valid only on the cluster that built it, so a
  // re-attach rebinds it: a step on B after a step on A charges B exactly
  // what a solver only ever attached to B is charged. A step charges the
  // same whatever the state, and a detached step charges nothing.
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster a(sim::MachineModel::archer2(), 6);
  sim::Cluster b(sim::MachineModel::slow_network(), 4);
  dist.attach_cluster(&a);
  dist.step();
  dist.attach_cluster(&b);
  EXPECT_NO_THROW(dist.step());
  dist.attach_cluster(nullptr);
  dist.step();
  EXPECT_GT(b.max_clock(), 0.0);

  DistributedSolver only_b(m, 4, opt);
  only_b.set_uniform(freestream(0.3));
  sim::Cluster b_ref(sim::MachineModel::slow_network(), 4);
  only_b.attach_cluster(&b_ref);
  only_b.step();
  expect_same_charges(b, b_ref);
}

TEST(Distributed, DetachedStepChargesNothing) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  dist.attach_cluster(&cluster);
  dist.step();
  const double clock = cluster.max_clock();
  const std::int64_t messages = cluster.comm_messages({0, 4});
  const std::size_t bytes = cluster.comm_bytes({0, 4});
  EXPECT_GT(messages, 0);
  dist.attach_cluster(nullptr);
  EXPECT_NO_THROW(dist.step());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(cluster.max_clock()),
            std::bit_cast<std::uint64_t>(clock));
  EXPECT_EQ(cluster.comm_messages({0, 4}), messages);
  EXPECT_EQ(cluster.comm_bytes({0, 4}), bytes);
}

TEST(Distributed, TooSmallClusterIsRefusedAndLeavesTheSolverDetached) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(8, 8, 8);
  EulerOptions opt;
  DistributedSolver dist(m, 4, opt);
  dist.set_uniform(freestream(0.3));
  sim::Cluster small(sim::MachineModel::archer2(), 2);
  EXPECT_THROW(dist.attach_cluster(&small), CheckError);
  EXPECT_NO_THROW(dist.step());
  EXPECT_EQ(small.max_clock(), 0.0);
  EXPECT_EQ(small.comm_messages({0, 2}), 0);
  EXPECT_EQ(small.comm_bytes({0, 2}), 0u);
}

TEST(Instance, RejectsBadConstruction) {
  EXPECT_THROW(Instance("x", 10, {0, 100}), CheckError);
  EXPECT_THROW(Instance("x", 1000, {0, 0}), CheckError);
}

}  // namespace
}  // namespace cpx::mgcfd
