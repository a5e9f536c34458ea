#include "simpic/pic.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "ckpt/snapshot.hpp"
#include "simpic/particle.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"

namespace cpx::simpic {
namespace {

constexpr std::int64_t kParticleGrain = 8192;  ///< particles per task

/// -phi'' = rho with phi = 0 at both ends, the interior nodes as one Thomas
/// segment solved in place in phi; `c` is scratch (n - 2 entries).
void solve_dirichlet(std::span<const double> rho, double dx,
                     std::span<double> phi, std::span<double> c) {
  const std::size_t n = rho.size();
  const double h2 = dx * dx;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    phi[i] = rho[i] * h2;
  }
  const std::span<double> unknowns = phi.subspan(1, n - 2);
  EliminationCarry carry;
  eliminate_forward(unknowns, c, carry);
  double phi_next = 0.0;
  substitute_back(unknowns, c, /*ends_at_wall=*/true, phi_next);
  phi[0] = 0.0;
  phi[n - 1] = 0.0;
}

}  // namespace

Pic::Pic(const PicOptions& options)
    : options_(options), rng_(options.seed) {
  CPX_REQUIRE(options.cells >= 2, "Pic: need at least 2 cells");
  CPX_REQUIRE(options.length > 0.0 && options.dt > 0.0, "Pic: bad geometry");
  dx_ = options.length / static_cast<double>(options.cells);
  const auto nodes = static_cast<std::size_t>(num_nodes());
  rho_.assign(nodes, 0.0);
  phi_.assign(nodes, 0.0);
  e_.assign(nodes, 0.0);
  thomas_c_.assign(nodes - 2, 0.0);
  background_ = 0.0;
}

void Pic::load_uniform(int per_cell, double v_thermal, double perturbation) {
  CPX_REQUIRE(per_cell >= 1, "load_uniform: bad per_cell");
  const std::int64_t total = options_.cells * per_cell;
  x_.clear();
  v_.clear();
  w_.clear();
  x_.reserve(static_cast<std::size_t>(total));
  v_.reserve(static_cast<std::size_t>(total));
  w_.reserve(static_cast<std::size_t>(total));

  // Weight so that the mean electron density is 1 (omega_p = 1); electrons
  // carry negative charge, neutralised by a uniform ion background.
  const double weight = -options_.length / static_cast<double>(total);
  const double length = options_.length;
  const bool periodic = options_.boundary == Boundary::kPeriodic;
  uniform_load(total, length, v_thermal, perturbation, rng_,
               [&](double x, double v) {
                 x = periodic ? std::fmod(x + length, length)
                              : std::clamp(x, 0.0, length);
                 add_particle(x, v, weight);
               });
  background_ = 1.0;  // uniform neutralising background of density 1
}

void Pic::add_particle(double x, double v, double weight) {
  CPX_REQUIRE(x >= 0.0 && x <= options_.length,
              "add_particle: x out of domain");
  x_.push_back(x);
  v_.push_back(v);
  w_.push_back(weight);
}

void Pic::set_background(double density) {
  CPX_REQUIRE(density >= 0.0, "set_background: negative density");
  background_ = density;
}

void Pic::deposit() {
  CPX_METRICS_SCOPE("simpic/deposit");
  const auto nodes = static_cast<std::size_t>(num_nodes());
  const auto np = static_cast<std::int64_t>(x_.size());
  if (support::metrics::enabled()) {
    // Roofline accounting: cell/fraction/charge arithmetic plus the
    // two-node CIC scatter; streamed bytes = x/w reads + scatter r-m-w.
    support::metrics::counter_add("simpic/deposit_flops", 8 * np);
    support::metrics::counter_add("simpic/deposit_bytes", 48 * np);
  }

  // CIC weighting in element order: the scatter is serial per chunk, so a
  // pack path could only vectorise the cell and charge arithmetic, and
  // costs more.
  const GridView grid{dx_, options_.cells - 1, 0};
  const std::int64_t nchunks = support::num_chunks(0, np, kParticleGrain);
  if (nchunks <= 1) {
    // Single chunk: the plain serial scatter (bitwise identical to the
    // pre-threaded implementation).
    std::fill(rho_.begin(), rho_.end(), background_);
    deposit_charge(x_.data(), w_.data(), 0, np, grid, rho_.data());
  } else {
    // Scatter-reduction: each chunk deposits into its own partial grid,
    // partials are combined in chunk order. The chunk decomposition is
    // fixed by the grain, so the summation order — and the result — is
    // independent of the thread count. A step never adds particles, so a
    // warm assign reuses its storage.
    // cpx-lint: allow(solve-alloc) — same size when warm (SolverAllocations.WarmPicStepAllocatesNothing)
    deposit_partials_.assign(static_cast<std::size_t>(nchunks) * nodes, 0.0);
    double* partials = deposit_partials_.data();
    support::parallel_chunks(
        0, np, kParticleGrain,
        [&](std::int64_t chunk, std::int64_t i0, std::int64_t i1, int) {
          deposit_charge(x_.data(), w_.data(), i0, i1, grid,
                         partials + static_cast<std::size_t>(chunk) * nodes);
        });
    std::fill(rho_.begin(), rho_.end(), background_);
    for (std::int64_t chunk = 0; chunk < nchunks; ++chunk) {
      const double* partial =
          partials + static_cast<std::size_t>(chunk) * nodes;
      for (std::size_t nidx = 0; nidx < nodes; ++nidx) {
        rho_[nidx] += partial[nidx];
      }
    }
  }

  if (options_.boundary == Boundary::kPeriodic) {
    // Wrap the two wall nodes onto each other.
    const double wall = rho_.front() + rho_.back() - background_;
    rho_.front() = wall;
    rho_.back() = wall;
  }

  if (check::deep()) {
    double total_weight = 0.0;
    for (const double w : w_) {
      total_weight += w;
    }
    validate_charge_conservation(rho_, background_, dx_, options_.boundary,
                                 total_weight);
  }
}

std::vector<double> Pic::solve_poisson_dirichlet(
    std::span<const double> rho, double dx) {
  const std::size_t n = rho.size();
  CPX_REQUIRE(n >= 3, "solve_poisson_dirichlet: need >= 3 nodes");
  std::vector<double> phi(n, 0.0);
  std::vector<double> c(n - 2, 0.0);
  solve_dirichlet(rho, dx, phi, c);
  return phi;
}

void Pic::solve_field() {
  CPX_METRICS_SCOPE("simpic/field");
  const std::size_t n = rho_.size();
  if (options_.boundary == Boundary::kPeriodic) {
    // Periodic Poisson solve via cyclic reduction is overkill in 1-D; use
    // the standard trick: subtract the mean charge (solvability), then
    // solve with pinned phi[0] = 0 by integrating twice. The wall node
    // n-1 duplicates node 0, so the mean runs over the first n-1 nodes.
    const std::size_t m = n - 1;
    double mean = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      mean += rho_[i];
    }
    mean /= static_cast<double>(m);
    // E' = rho - mean  ->  integrate; then remove mean E so the periodic
    // integral of phi' vanishes.
    e_[0] = 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      e_[i] = e_[i - 1] +
              dx_ * 0.5 * ((rho_[i - 1] - mean) + (rho_[i % m] - mean));
    }
    double e_mean = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      e_mean += e_[i];
    }
    e_mean /= static_cast<double>(m);
    for (double& v : e_) {
      v -= e_mean;
    }
    // phi from E (for diagnostics only): phi' = -E.
    phi_[0] = 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      phi_[i] = phi_[i - 1] - dx_ * 0.5 * (e_[i - 1] + e_[i]);
    }
    return;
  }

  solve_dirichlet(rho_, dx_, phi_, thomas_c_);
  difference_field(phi_, 0.0, 0.0, true, true, dx_, e_);
}

void Pic::push() {
  CPX_METRICS_SCOPE("simpic/push");
  const auto np = static_cast<std::int64_t>(x_.size());
  if (support::metrics::enabled()) {
    support::metrics::counter_add("simpic/particles_pushed", np);
    // Roofline accounting: cell/fraction + E interpolation + leapfrog
    // update; streamed bytes = x/v reads, E gathers, x/v/keep writes.
    support::metrics::counter_add("simpic/push_flops", 10 * np);
    support::metrics::counter_add("simpic/push_bytes", 49 * np);
  }
  const bool periodic = options_.boundary == Boundary::kPeriodic;
  unsigned char* keep = nullptr;
  if (!periodic) {
    // cpx-lint: allow(solve-alloc) — never grows when warm (SolverAllocations.WarmPicStepAllocatesNothing)
    push_keep_.resize(static_cast<std::size_t>(np));
    keep = push_keep_.data();
  }

  // Gather + leapfrog advance in place, parallel over particles: each
  // particle reads and writes only its own x/v slot (E is read-only), so
  // the push is race-free and bitwise identical at any thread count.
  const double dx = dx_;
  const std::int64_t last_cell = options_.cells - 1;
  const double dt = options_.dt;
  const double length = options_.length;
  double* px = x_.data();
  double* pv = v_.data();
  const double* pe = e_.data();
  support::parallel_for(0, np, kParticleGrain, [=](std::int64_t i0,
                                                   std::int64_t i1) {
    // Built here, not captured, so the loop keeps it in registers.
    const GridView grid{dx, last_cell, 0};
    for (std::int64_t i = i0; i < i1; ++i) {
      double x = px[i];
      double v = pv[i];
      advance(x, v, pe, grid, dt);
      if (periodic) {
        // fmod(x, L) returns x exactly for 0 <= x < L (and -0.0), so only
        // particles that left the domain (or NaN) need the call.
        if (!(x >= 0.0 && x < length)) {
          x = std::fmod(x, length);
          if (x < 0.0) {
            x += length;
          }
        }
      } else {
        keep[i] = x < 0.0 || x > length ? 0 : 1;  // absorbed at the wall
      }
      px[i] = x;
      pv[i] = v;
    }
  });
  if (periodic) {
    return;
  }

  // Order-preserving compaction of the survivors, in place (alive <= i).
  // Serial: it is a trivial copy, and keeping the original particle order
  // makes the result independent of the execution schedule.
  std::size_t alive = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(np); ++i) {
    if (keep[i] != 0) {
      x_[alive] = x_[i];
      v_[alive] = v_[i];
      w_[alive] = w_[i];
      ++alive;
    }
  }
  // cpx-lint: allow(solve-alloc) — shrink only (SolverAllocations.WarmPicStepAllocatesNothing)
  x_.resize(alive);
  // cpx-lint: allow(solve-alloc) — shrink only (SolverAllocations.WarmPicStepAllocatesNothing)
  v_.resize(alive);
  // cpx-lint: allow(solve-alloc) — shrink only (SolverAllocations.WarmPicStepAllocatesNothing)
  w_.resize(alive);
}

void Pic::step() {
  deposit();
  solve_field();
  push();
  if (check::deep()) {
    validate();
  }
}

void Pic::validate() const {
  CPX_CHECK_MSG(v_.size() == x_.size() && w_.size() == x_.size(),
                "particle arrays out of sync: " << x_.size() << "/"
                                                << v_.size() << "/"
                                                << w_.size());
  const auto nodes = static_cast<std::size_t>(num_nodes());
  CPX_CHECK_MSG(rho_.size() == nodes && phi_.size() == nodes &&
                    e_.size() == nodes,
                "grid arrays not sized to " << nodes << " nodes");
  validate_particles(x_, options_.length);
  for (std::size_t i = 0; i < v_.size(); ++i) {
    CPX_CHECK_MSG(std::isfinite(v_[i]) && std::isfinite(w_[i]),
                  "particle " << i << " has non-finite velocity or weight");
  }
}

void validate_particles(std::span<const double> positions, double length) {
  for (std::size_t i = 0; i < positions.size(); ++i) {
    CPX_CHECK_MSG(std::isfinite(positions[i]) && positions[i] >= 0.0 &&
                      positions[i] <= length,
                  "particle " << i << " escaped the domain: x = "
                              << positions[i] << " not in [0, " << length
                              << "]");
  }
}

void validate_charge_conservation(std::span<const double> rho,
                                  double background, double dx,
                                  Boundary boundary, double total_weight) {
  CPX_REQUIRE(rho.size() >= 2 && dx > 0.0,
              "validate_charge_conservation: bad grid");
  // CIC deposit puts q(1-frac) and q*frac on the two bracketing nodes, so
  // summing (rho - background)*dx over the grid recovers the particle
  // charge exactly. Periodic wrap duplicates the folded wall value on both
  // wall nodes, so one of them is excluded from the sum.
  const std::size_t count =
      boundary == Boundary::kPeriodic ? rho.size() - 1 : rho.size();
  double grid_charge = 0.0;
  double scale = 1.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double c = (rho[i] - background) * dx;
    grid_charge += c;
    scale += std::abs(c);
  }
  CPX_CHECK_MSG(std::abs(grid_charge - total_weight) <= 1e-9 * scale,
                "charge not conserved by deposit: grid holds "
                    << grid_charge << ", particles carry " << total_weight);
}

void Pic::serialize(ckpt::Writer& w) const {
  w.begin_section("simpic/pic");
  w.put_i64(options_.cells);
  w.put_f64(options_.length);
  w.put_f64(options_.dt);
  w.put_u8(options_.boundary == Boundary::kPeriodic ? 0 : 1);
  w.put_u64(options_.seed);
  w.put_u64(rng_.counter());
  w.put_f64(background_);
  w.put_f64_span(x_);
  w.put_f64_span(v_);
  w.put_f64_span(w_);
  w.put_f64_span(rho_);
  w.put_f64_span(phi_);
  w.put_f64_span(e_);
  w.end_section();
}

void Pic::restore(ckpt::Reader& r) {
  r.open_section("simpic/pic");
  const std::int64_t cells = r.get_i64();
  const double length = r.get_f64();
  const double dt = r.get_f64();
  const Boundary boundary =
      r.get_u8() == 0 ? Boundary::kPeriodic : Boundary::kAbsorbing;
  const std::uint64_t seed = r.get_u64();
  CPX_CHECK_MSG(cells == options_.cells && length == options_.length &&
                    dt == options_.dt && boundary == options_.boundary &&
                    seed == options_.seed,
                "Pic::restore: snapshot was taken with different options");
  rng_.restore_state(seed, r.get_u64());
  background_ = r.get_f64();
  r.get_f64_vec(x_);
  r.get_f64_vec(v_);
  r.get_f64_vec(w_);
  CPX_CHECK_MSG(v_.size() == x_.size() && w_.size() == x_.size(),
                "Pic::restore: particle arrays out of sync in snapshot");
  // A non-finite or out-of-domain position would reach locate's integer
  // cast on the next step, so positions are checked at every check level.
  validate_particles(x_, options_.length);
  const auto nodes = static_cast<std::size_t>(num_nodes());
  r.get_f64_vec(rho_);
  r.get_f64_vec(phi_);
  r.get_f64_vec(e_);
  CPX_CHECK_MSG(rho_.size() == nodes && phi_.size() == nodes &&
                    e_.size() == nodes,
                "Pic::restore: grid arrays not sized to " << nodes
                                                          << " nodes");
  r.end_section();
  if (check::deep()) {
    validate();
  }
}

void Pic::run(int steps) {
  CPX_REQUIRE(steps >= 0, "run: bad step count");
  for (int s = 0; s < steps; ++s) {
    step();
  }
}

PicDiagnostics Pic::diagnostics() const {
  PicDiagnostics d;
  d.num_particles = num_particles();
  for (std::size_t i = 0; i < v_.size(); ++i) {
    // Mass of a particle equals |weight| in normalised units (q/m = -1).
    d.kinetic_energy += 0.5 * std::abs(w_[i]) * v_[i] * v_[i];
    d.total_charge += w_[i];
  }
  for (std::size_t i = 0; i + 1 < e_.size(); ++i) {
    const double em = 0.5 * (e_[i] + e_[i + 1]);
    d.field_energy += 0.5 * em * em * dx_;
  }
  return d;
}

}  // namespace cpx::simpic
