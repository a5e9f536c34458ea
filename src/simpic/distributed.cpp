#include "simpic/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "ckpt/snapshot.hpp"
#include "support/check.hpp"

namespace cpx::simpic {
namespace {

// Message tags of the per-step exchanges (one tag per logical channel so
// the pipeline carries can never match a boundary-merge payload).
enum Tag : int {
  kTagRho = 1,        ///< shared boundary-node charge, both directions
  kTagElim = 2,       ///< forward-elimination carry (c_prev, d_prev)
  kTagPhiBack = 3,    ///< back-substitution carry (phi of first unknown)
  kTagPhiShared = 4,  ///< shared-node phi, left owner -> right neighbour
  kTagGhostLeft = 5,  ///< phi[end-1] to the right neighbour (its left ghost)
  kTagGhostRight = 6, ///< phi[1] to the left neighbour (its right ghost)
  kTagMigrate = 7,    ///< packed (x, v, w) triplets of migrating particles
};

}  // namespace

DistributedPic::DistributedPic(const PicOptions& options, int parts)
    : options_(options),
      grid_(options.length / static_cast<double>(options.cells),
            options.cells - 1, 0),
      rng_(options.seed) {
  CPX_REQUIRE(parts >= 1, "DistributedPic: bad part count");
  CPX_REQUIRE(options.cells >= parts,
              "DistributedPic: fewer cells than parts");
  CPX_REQUIRE(options.boundary == Boundary::kAbsorbing,
              "DistributedPic: only absorbing walls are supported");

  comm_ = comm::Communicator::world(parts, "simpic");
  const auto p = static_cast<std::size_t>(parts);
  ranks_.resize(p);
  rho_from_left_.assign(p, 0.0);
  rho_from_right_.assign(p, 0.0);
  phi_shared_recv_.assign(p, 0.0);
  ghost_from_left_.assign(p, 0.0);
  ghost_from_right_.assign(p, 0.0);
  migr_pack_.resize(p);
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    rs.cell_begin = options.cells * r / parts;
    rs.cell_end = options.cells * (r + 1) / parts;
    rs.rho.assign(rs.nodes(), 0.0);
    rs.phi.assign(rs.nodes(), 0.0);
    rs.e.assign(rs.nodes(), 0.0);
    // The Thomas unknowns are the interior nodes 1..cells-1; a rank solves
    // those in (cell_begin, cell_end], so a shared node is its left rank's.
    rs.c.assign(static_cast<std::size_t>(
                    std::min(rs.cell_end, options.cells - 1) - rs.cell_begin),
                0.0);
  }
}

int DistributedPic::owner_of(std::int64_t cell) const {
  // Rank r owns cells [floor(C r / P), floor(C (r + 1) / P)), so the owner
  // is the largest r with C r < P (cell + 1).
  const std::int64_t parts = num_parts();
  return static_cast<int>((parts * (cell + 1) - 1) / options_.cells);
}

void DistributedPic::load_uniform(int per_cell, double v_thermal,
                                  double perturbation) {
  CPX_REQUIRE(per_cell >= 1, "load_uniform: bad per_cell");
  // Pic::load_uniform's particle sequence, each particle routed to the
  // rank owning its cell.
  const std::int64_t total = options_.cells * per_cell;
  const double weight = -options_.length / static_cast<double>(total);
  uniform_load(total, options_.length, v_thermal, perturbation, rng_,
               [&](double x, double v) {
                 x = std::clamp(x, 0.0, options_.length);
                 RankState& rs =
                     ranks_[static_cast<std::size_t>(owner_of(cell_of(x)))];
                 rs.x.push_back(x);
                 rs.v.push_back(v);
                 rs.w.push_back(weight);
               });
  background_ = 1.0;
}

void DistributedPic::deposit() {
  for (RankState& rs : ranks_) {
    std::fill(rs.rho.begin(), rs.rho.end(), background_);
    deposit_charge(rs.x.data(), rs.w.data(), 0,
                   static_cast<std::int64_t>(rs.x.size()),
                   {grid_.dx, grid_.last_cell, rs.cell_begin}, rs.rho.data());
  }
  // Merge the shared boundary nodes: both neighbours hold the node and
  // each contributed its own particles (plus the background once each).
  // Each rank sends its own edge value, then both sides apply the same
  // commutative merge — bitwise what the single-owner merge computed.
  const int parts = num_parts();
  for (int r = 0; r < parts; ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (r + 1 < parts) {
      comm_.isend_value(r, r + 1, kTagRho, rs.rho.back());
    }
    if (r > 0) {
      comm_.isend_value(r, r - 1, kTagRho, rs.rho.front());
    }
  }
  for (int r = 0; r + 1 < parts; ++r) {
    comm_.irecv_value(r + 1, r, kTagRho,
                      &rho_from_left_[static_cast<std::size_t>(r + 1)]);
    comm_.irecv_value(r, r + 1, kTagRho,
                      &rho_from_right_[static_cast<std::size_t>(r)]);
  }
  comm_.wait_all();
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (r + 1 < parts) {
      rs.rho.back() =
          rs.rho.back() + rho_from_right_[static_cast<std::size_t>(r)] -
          background_;
    }
    if (r > 0) {
      rs.rho.front() =
          rs.rho.front() + rho_from_left_[static_cast<std::size_t>(r)] -
          background_;
    }
  }
  if (check::deep()) {
    // The charge audit runs here, where rho and the particles agree (the
    // push may absorb some); the scratch keeps a warm step allocation-free.
    gather(&RankState::rho, rho_audit_);
    double total_weight = 0.0;
    for (const RankState& rs : ranks_) {
      for (const double w : rs.w) {
        total_weight += w;
      }
    }
    validate_charge_conservation(rho_audit_, background_, grid_.dx,
                                 options_.boundary, total_weight);
  }
}

void DistributedPic::solve_field() {
  // Distributed Thomas algorithm on -phi'' = rho, Dirichlet walls: each
  // rank runs the Thomas segments of simpic/particle.hpp over its unknowns
  // (nodes cell_begin + 1 onwards), staged in its phi slice, and the
  // carries continue the recurrence across rank boundaries — the forward
  // pass ripples left to right, the back substitution right to left: the
  // pipeline the performance instance charges.
  const std::int64_t n_nodes = options_.cells;  // unknowns 1..n_nodes-1
  const double h2 = grid_.dx * grid_.dx;

  // --- forward pass (rank r waits for rank r-1's carry) ---
  // Rank 0 always handles at least one unknown when there are >= 2 parts,
  // so a received carry is always live.
  const int parts = num_parts();
  EliminationCarry elim;
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::size_t count = rs.c.size();
    // Right-hand-side prep (rho * h^2 per unknown) needs no carry.
    for (std::size_t k = 1; k <= count; ++k) {
      rs.phi[k] = rs.rho[k] * h2;
    }
    if (r > 0) {
      double carry[2] = {0.0, 0.0};
      comm_.irecv_span(r, r - 1, kTagElim, std::span<double>(carry));
      comm_.wait_all();
      elim = {carry[0], carry[1], true};
    }
    eliminate_forward(std::span<double>(rs.phi).subspan(1, count), rs.c,
                      elim);
    if (r + 1 < parts) {
      const double carry[2] = {elim.c, elim.d};
      comm_.isend_span(r, r + 1, kTagElim, std::span<const double>(carry));
    }
  }

  // --- back substitution (rank r waits for rank r+1) ---
  double phi_next = 0.0;  // phi[n_nodes] = 0 wall
  for (int r = parts - 1; r >= 0; --r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (r + 1 < parts) {
      comm_.irecv_value(r, r + 1, kTagPhiBack, &phi_next);
      comm_.wait_all();
    }
    // The rank holding unknown n_nodes - 1 borders the right wall (a last
    // rank of one cell has no unknowns).
    substitute_back(std::span<double>(rs.phi).subspan(1, rs.c.size()), rs.c,
                    /*ends_at_wall=*/rs.cell_end >= n_nodes - 1, phi_next);
    // Walls stay zero; shared nodes are filled on both sides below.
    if (rs.cell_begin == 0) {
      rs.phi.front() = 0.0;
    }
    if (rs.cell_end == n_nodes) {
      rs.phi.back() = 0.0;
    }
    if (r > 0) {
      comm_.isend_value(r, r - 1, kTagPhiBack, phi_next);
    }
  }

  // Shared node phi values: the *left* rank computes the shared node (its
  // unknown range is (cell_begin, cell_end]); send to the right
  // neighbour's first node.
  for (int r = 0; r + 1 < parts; ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    comm_.isend_value(r, r + 1, kTagPhiShared, rs.phi.back());
  }
  for (int r = 1; r < parts; ++r) {
    comm_.irecv_value(r, r - 1, kTagPhiShared,
                      &phi_shared_recv_[static_cast<std::size_t>(r)]);
  }
  comm_.wait_all();
  for (int r = 1; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    rs.phi.front() = phi_shared_recv_[static_cast<std::size_t>(r)];
  }

  // --- E = -dphi/dx: central differences need one phi beyond each end ---
  // Ghost exchange: every rank sends its own second-from-edge phi values
  // (post shared-node update) to the neighbours that need them.
  for (int r = 0; r < parts; ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    if (r + 1 < parts) {
      comm_.isend_value(r, r + 1, kTagGhostLeft, rs.phi[rs.phi.size() - 2]);
    }
    if (r > 0) {
      comm_.isend_value(r, r - 1, kTagGhostRight, rs.phi[1]);
    }
  }
  for (int r = 0; r < parts; ++r) {
    if (r > 0) {
      comm_.irecv_value(r, r - 1, kTagGhostLeft,
                        &ghost_from_left_[static_cast<std::size_t>(r)]);
    }
    if (r + 1 < parts) {
      comm_.irecv_value(r, r + 1, kTagGhostRight,
                        &ghost_from_right_[static_cast<std::size_t>(r)]);
    }
  }
  comm_.wait_all();

  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    difference_field(rs.phi, ghost_from_left_[static_cast<std::size_t>(r)],
                     ghost_from_right_[static_cast<std::size_t>(r)],
                     rs.cell_begin == 0, rs.cell_end == n_nodes, grid_.dx,
                     rs.e);
  }
}

void DistributedPic::push_and_migrate() {
  last_migrations_ = 0;
  const int parts = num_parts();

  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    for (std::vector<double>& pack : migr_pack_) {
      pack.clear();
    }
    const GridView grid{grid_.dx, grid_.last_cell, rs.cell_begin};
    // A particle more than half a cell inside the rank's edges is in one
    // of its cells whatever the rounding of x / dx, so only the others go
    // through cell_of (a division unless dx is a power of two).
    const double inner_lo =
        (static_cast<double>(rs.cell_begin) + 0.5) * grid_.dx;
    const double inner_hi =
        (static_cast<double>(rs.cell_end) - 0.5) * grid_.dx;
    std::size_t alive = 0;
    for (std::size_t i = 0; i < rs.x.size(); ++i) {
      double x = rs.x[i];
      double v = rs.v[i];
      advance(x, v, rs.e.data(), grid, options_.dt);
      if (x < 0.0 || x > options_.length) {
        continue;  // absorbed at the wall
      }
      if ((x > inner_lo && x < inner_hi) || rs.owns(cell_of(x))) {
        rs.x[alive] = x;
        rs.v[alive] = v;
        rs.w[alive] = rs.w[i];
        ++alive;
      } else {
        // Pack (x, v, w) for the new owner; one message per destination.
        std::vector<double>& pack =
            migr_pack_[static_cast<std::size_t>(owner_of(cell_of(x)))];
        // cpx-lint: allow(solve-alloc) — grow-only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
        pack.insert(pack.end(), {x, v, rs.w[i]});
      }
    }
    // cpx-lint: allow(solve-alloc) — shrink only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
    rs.x.resize(alive);
    // cpx-lint: allow(solve-alloc) — shrink only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
    rs.v.resize(alive);
    // cpx-lint: allow(solve-alloc) — shrink only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
    rs.w.resize(alive);
    for (int dst = 0; dst < parts; ++dst) {
      const std::vector<double>& pack =
          migr_pack_[static_cast<std::size_t>(dst)];
      if (!pack.empty()) {
        comm_.isend_span(r, dst, kTagMigrate, std::span<const double>(pack));
        last_migrations_ += static_cast<std::int64_t>(pack.size() / 3);
      }
    }
  }

  // Deliver: sources ascending per destination, particles in push order —
  // the append order the single-array implementation produced. A rank's
  // arrays grow only past their largest population so far.
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    comm_.deliver(r, kTagMigrate,
                  [&rs](comm::Rank, std::span<const std::byte> payload) {
                    CPX_CHECK(payload.size() % (3 * sizeof(double)) == 0);
                    double p[3];
                    for (std::size_t off = 0; off < payload.size();
                         off += sizeof(p)) {
                      std::memcpy(p, payload.data() + off, sizeof(p));
                      // cpx-lint: allow(solve-alloc) — grow-only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
                      rs.x.push_back(p[0]);
                      // cpx-lint: allow(solve-alloc) — grow-only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
                      rs.v.push_back(p[1]);
                      // cpx-lint: allow(solve-alloc) — grow-only (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
                      rs.w.push_back(p[2]);
                    }
                  });
  }
}

void DistributedPic::step() {
  deposit();
  solve_field();
  push_and_migrate();
  if (check::deep()) {
    validate();
  }
}

void DistributedPic::validate() const {
  const RankState* left = nullptr;  // shares node cell_begin with rank r
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const RankState& rs = ranks_[r];
    CPX_CHECK_MSG(rs.v.size() == rs.x.size() && rs.w.size() == rs.x.size(),
                  "rank " << r << " particle arrays out of sync: "
                          << rs.x.size() << "/" << rs.v.size() << "/"
                          << rs.w.size());
    const std::size_t nodes = rs.nodes();
    CPX_CHECK_MSG(rs.rho.size() == nodes && rs.phi.size() == nodes &&
                      rs.e.size() == nodes,
                  "rank " << r << " grid arrays not sized to " << nodes
                          << " nodes");
    // Every step leaves both copies of a shared node equal.
    CPX_CHECK_MSG(left == nullptr || (left->rho.back() == rs.rho.front() &&
                                      left->phi.back() == rs.phi.front() &&
                                      left->e.back() == rs.e.front()),
                  "ranks " << r - 1 << " and " << r
                           << " disagree on their shared node "
                           << rs.cell_begin);
    left = &rs;
    validate_particles(rs.x, options_.length);
    for (std::size_t i = 0; i < rs.x.size(); ++i) {
      CPX_CHECK_MSG(std::isfinite(rs.v[i]) && std::isfinite(rs.w[i]),
                    "rank " << r << " particle " << i
                            << " has non-finite velocity or weight");
      CPX_CHECK_MSG(rs.owns(cell_of(rs.x[i])),
                    "rank " << r << " holds particle " << i << " at x = "
                            << rs.x[i] << " in cell " << cell_of(rs.x[i])
                            << ", outside its cells [" << rs.cell_begin
                            << ", " << rs.cell_end << ")");
    }
  }
}

void DistributedPic::run(int steps) {
  CPX_REQUIRE(steps >= 0, "run: bad step count");
  for (int s = 0; s < steps; ++s) {
    step();
  }
}

std::int64_t DistributedPic::num_particles() const {
  std::int64_t total = 0;
  for (const RankState& rs : ranks_) {
    total += static_cast<std::int64_t>(rs.x.size());
  }
  return total;
}

PicDiagnostics DistributedPic::diagnostics() const {
  PicDiagnostics d;
  d.num_particles = num_particles();
  for (const RankState& rs : ranks_) {
    for (std::size_t i = 0; i < rs.v.size(); ++i) {
      d.kinetic_energy += 0.5 * std::abs(rs.w[i]) * rs.v[i] * rs.v[i];
      d.total_charge += rs.w[i];
    }
    // Field energy over this rank's cells (nodes cell_begin..cell_end).
    for (std::size_t i = 0; i + 1 < rs.e.size(); ++i) {
      const double em = 0.5 * (rs.e[i] + rs.e[i + 1]);
      d.field_energy += 0.5 * em * em * grid_.dx;
    }
  }
  return d;
}

void DistributedPic::gather(std::vector<double> RankState::*field,
                            std::vector<double>& out) const {
  out.resize(static_cast<std::size_t>(options_.cells) + 1);
  for (const RankState& rs : ranks_) {
    std::copy((rs.*field).begin(), (rs.*field).end(),
              out.begin() + rs.cell_begin);
  }
}

std::vector<double> DistributedPic::gather_rho() const {
  std::vector<double> out;
  gather(&RankState::rho, out);
  return out;
}

std::vector<double> DistributedPic::gather_phi() const {
  std::vector<double> out;
  gather(&RankState::phi, out);
  return out;
}

std::vector<double> DistributedPic::gather_efield() const {
  std::vector<double> out;
  gather(&RankState::e, out);
  return out;
}

std::vector<double> DistributedPic::gather_positions() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(num_particles()));
  for (const RankState& rs : ranks_) {
    out.insert(out.end(), rs.x.begin(), rs.x.end());
  }
  return out;
}

void DistributedPic::serialize(ckpt::Writer& w) const {
  w.begin_section("simpic/distributed");
  w.put_i64(options_.cells);
  w.put_f64(options_.length);
  w.put_f64(options_.dt);
  w.put_u64(options_.seed);
  w.put_u32(static_cast<std::uint32_t>(num_parts()));
  w.put_u64(rng_.counter());
  w.put_f64(background_);
  w.put_i64(last_migrations_);
  for (const RankState& rs : ranks_) {
    w.put_f64_span(rs.x);
    w.put_f64_span(rs.v);
    w.put_f64_span(rs.w);
    w.put_f64_span(rs.rho);
    w.put_f64_span(rs.phi);
    w.put_f64_span(rs.e);
  }
  w.end_section();
}

void DistributedPic::restore(ckpt::Reader& r) {
  r.open_section("simpic/distributed");
  const std::int64_t cells = r.get_i64();
  const double length = r.get_f64();
  const double dt = r.get_f64();
  const std::uint64_t seed = r.get_u64();
  const auto parts = static_cast<int>(r.get_u32());
  CPX_CHECK_MSG(cells == options_.cells && length == options_.length &&
                    dt == options_.dt && seed == options_.seed &&
                    parts == num_parts(),
                "DistributedPic::restore: snapshot was taken with a "
                "different decomposition");
  rng_.restore_state(seed, r.get_u64());
  background_ = r.get_f64();
  last_migrations_ = r.get_i64();
  for (RankState& rs : ranks_) {
    r.get_f64_vec(rs.x);
    r.get_f64_vec(rs.v);
    r.get_f64_vec(rs.w);
    CPX_CHECK_MSG(rs.v.size() == rs.x.size() && rs.w.size() == rs.x.size(),
                  "DistributedPic::restore: particle arrays out of sync");
    // A particle outside its rank's cells would deposit past the rank's
    // node slice, so ownership is checked at every check level.
    for (const double x : rs.x) {
      CPX_CHECK_MSG(x >= 0.0 && x <= length && rs.owns(cell_of(x)),
                    "DistributedPic::restore: particle at x = "
                        << x << " lies outside its rank's cells ["
                        << rs.cell_begin << ", " << rs.cell_end << ")");
    }
    const std::size_t nodes = rs.nodes();
    r.get_f64_vec(rs.rho);
    r.get_f64_vec(rs.phi);
    r.get_f64_vec(rs.e);
    CPX_CHECK_MSG(rs.rho.size() == nodes && rs.phi.size() == nodes &&
                      rs.e.size() == nodes,
                  "DistributedPic::restore: grid arrays not sized to the "
                  "local node slice");
  }
  r.end_section();
  if (check::deep()) {
    validate();
  }
}

}  // namespace cpx::simpic
