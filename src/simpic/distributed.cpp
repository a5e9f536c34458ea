#include "simpic/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "ckpt/snapshot.hpp"
#include "sim/comm_bridge.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

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
    : options_(options), rng_(options.seed) {
  CPX_REQUIRE(parts >= 1, "DistributedPic: bad part count");
  CPX_REQUIRE(options.cells >= parts,
              "DistributedPic: fewer cells than parts");
  CPX_REQUIRE(options.boundary == Boundary::kAbsorbing,
              "DistributedPic: only absorbing walls are supported");
  dx_ = options.length / static_cast<double>(options.cells);

  ranks_.resize(static_cast<std::size_t>(parts));
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::int64_t cell_begin = options.cells * r / parts;
    const std::int64_t cell_end = options.cells * (r + 1) / parts;
    rs.node_begin = cell_begin;
    rs.node_end = cell_end;  // shared with the right neighbour
    rs.x_lo = static_cast<double>(cell_begin) * dx_;
    rs.x_hi = static_cast<double>(cell_end) * dx_;
    const auto nodes = static_cast<std::size_t>(rs.node_end - rs.node_begin + 1);
    rs.rho.assign(nodes, 0.0);
    rs.phi.assign(nodes, 0.0);
    rs.e.assign(nodes, 0.0);
  }

  comm_ = comm::Communicator::world(parts, "simpic");
  const auto p = static_cast<std::size_t>(parts);
  rho_from_left_.assign(p, 0.0);
  rho_from_right_.assign(p, 0.0);
  phi_shared_recv_.assign(p, 0.0);
  ghost_from_left_.assign(p, 0.0);
  ghost_from_right_.assign(p, 0.0);
  migr_pack_.resize(p);
  // Per-rank Thomas-solve staging, sized once so the field solve is
  // allocation-free: the right-hand side (rho * h^2 per unknown, then
  // eliminated in place) and the eliminated superdiagonal.
  rhs_scratch_.resize(p);
  elim_c_.resize(p);
  for (int r = 0; r < parts; ++r) {
    const RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::int64_t lo = std::max<std::int64_t>(rs.node_begin + 1, 1);
    const std::int64_t hi =
        std::min<std::int64_t>(rs.node_end, options.cells - 1);
    const auto unknowns =
        static_cast<std::size_t>(std::max<std::int64_t>(hi - lo + 1, 0));
    rhs_scratch_[static_cast<std::size_t>(r)].assign(unknowns, 0.0);
    elim_c_[static_cast<std::size_t>(r)].assign(unknowns, 0.0);
  }
}

int DistributedPic::owner_of(double x) const {
  // Slices are near-uniform; start from the proportional guess and walk.
  int r = std::clamp(
      static_cast<int>(x / options_.length * num_parts()), 0,
      num_parts() - 1);
  while (r > 0 && x < ranks_[static_cast<std::size_t>(r)].x_lo) {
    --r;
  }
  while (r + 1 < num_parts() && x >= ranks_[static_cast<std::size_t>(r)].x_hi) {
    ++r;
  }
  return r;
}

void DistributedPic::load_uniform(int per_cell, double v_thermal,
                                  double perturbation) {
  CPX_REQUIRE(per_cell >= 1, "load_uniform: bad per_cell");
  // Generate the exact global particle sequence of Pic::load_uniform (same
  // RNG stream and order), routing each particle to its owner, so the
  // distributed initial condition matches the sequential one bit-for-bit.
  const std::int64_t total = options_.cells * per_cell;
  const double weight = -options_.length / static_cast<double>(total);
  constexpr double kTwoPi = 6.28318530717958647692;
  for (std::int64_t i = 0; i < total; ++i) {
    const double x0 = (static_cast<double>(i) + 0.5) /
                      static_cast<double>(total) * options_.length;
    const double dx_pert = perturbation * options_.length / kTwoPi *
                           std::sin(kTwoPi * x0 / options_.length);
    const double x = std::clamp(x0 + dx_pert, 0.0, options_.length);
    const double v = v_thermal > 0.0 ? rng_.normal(0.0, v_thermal) : 0.0;
    RankState& rs = ranks_[static_cast<std::size_t>(owner_of(x))];
    rs.x.push_back(x);
    rs.v.push_back(v);
    rs.w.push_back(weight);
  }
  background_ = 1.0;
}

void DistributedPic::deposit() {
  for (RankState& rs : ranks_) {
    std::fill(rs.rho.begin(), rs.rho.end(), background_);
    for (std::size_t i = 0; i < rs.x.size(); ++i) {
      const double c = rs.x[i] / dx_;
      auto left = static_cast<std::int64_t>(c);
      left = std::clamp<std::int64_t>(left, 0, options_.cells - 1);
      const double frac = c - static_cast<double>(left);
      const double q = rs.w[i] / dx_;
      const auto l0 = static_cast<std::size_t>(left - rs.node_begin);
      CPX_DCHECK(left >= rs.node_begin && left + 1 <= rs.node_end);
      rs.rho[l0] += q * (1.0 - frac);
      rs.rho[l0 + 1] += q * frac;
    }
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
  if (cluster_ != nullptr) {
    sim::flush_sends(comm_, *cluster_, region_deposit_, 0);
  } else {
    comm_.clear_transfers();
  }
  if (cluster_ != nullptr) {
    for (int r = 0; r < num_parts(); ++r) {
      sim::Work w;
      w.flops = 12.0 * static_cast<double>(
                           ranks_[static_cast<std::size_t>(r)].x.size());
      w.bytes = 48.0 * static_cast<double>(
                           ranks_[static_cast<std::size_t>(r)].x.size());
      cluster_->compute(r, w, region_deposit_);
    }
  }
}

void DistributedPic::solve_field() {
  // Distributed Thomas algorithm on -phi'' = rho, Dirichlet walls.
  // Unknowns are interior nodes 1..N-1; rank r handles the unknowns in
  // (node_begin, node_end] (clipped to the interior). The elimination
  // recurrence continues across rank boundaries — the forward pass ripples
  // left to right, the back substitution right to left: the pipeline.
  const std::int64_t n_nodes = options_.cells;  // unknowns 1..n_nodes-1
  const double h2 = dx_ * dx_;

  // --- forward pass (rank r waits for rank r-1) ---
  // The elimination carry (c_prev, d_prev) travels one hop per rank; each
  // rank blocks on its left neighbour's carry before eliminating — the
  // pipeline the performance instance charges. Rank 0 always handles at
  // least one unknown when there are >= 2 parts, so a received carry is
  // always live (have_prev below).
  const int parts = num_parts();
  double carry[2] = {0.0, 0.0};
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::int64_t lo = std::max<std::int64_t>(rs.node_begin + 1, 1);
    const std::int64_t hi = std::min<std::int64_t>(rs.node_end, n_nodes - 1);
    const std::int64_t unknowns = std::max<std::int64_t>(hi - lo + 1, 0);

    // Right-hand-side prep (rho * h^2 per unknown) needs no carry — it is
    // the local work a rank can do while its left neighbour's carry is in
    // flight. Exact code motion: the recurrence below consumes the same
    // products it used to compute inline, so phi is bitwise unchanged.
    std::vector<double>& rhs = rhs_scratch_[static_cast<std::size_t>(r)];
    for (std::int64_t i = lo; i <= hi; ++i) {
      rhs[static_cast<std::size_t>(i - lo)] =
          rs.rho[static_cast<std::size_t>(i - rs.node_begin)] * h2;
    }
    const double prep_clock =
        cluster_ != nullptr ? cluster_->clock(r) : 0.0;
    sim::Work prep;
    prep.flops = 2.0 * static_cast<double>(unknowns);
    prep.bytes = 16.0 * static_cast<double>(unknowns);
    if (cluster_ != nullptr && overlap_) {
      // Overlap mode: prep is charged inside the carry's flight window.
      cluster_->compute(r, prep, region_field_);
    }
    if (r > 0) {
      comm_.irecv_span(r, r - 1, kTagElim, std::span<double>(carry));
      comm_.wait_all();
      if (cluster_ != nullptr) {
        if (overlap_) {
          cluster_->send_overlapped(r - 1, r, 2 * sizeof(double),
                                    prep_clock, region_field_);
        } else {
          cluster_->send(r - 1, r, 2 * sizeof(double), region_field_);
        }
      }
    }
    if (cluster_ != nullptr && !overlap_) {
      // Synchronous mode: the same prep cost lands after the carry wait —
      // both modes charge identical totals, placed differently.
      cluster_->compute(r, prep, region_field_);
    }
    // The eliminated rhs d overwrites rhs in place; c goes to elim_c_.
    std::vector<double>& c = elim_c_[static_cast<std::size_t>(r)];
    double c_prev = carry[0];
    double d_prev = carry[1];
    bool have_prev = r > 0;
    for (std::int64_t i = lo; i <= hi; ++i) {
      const double rhs_i = rhs[static_cast<std::size_t>(i - lo)];
      double ci;
      double di;
      if (!have_prev) {
        ci = -1.0 / 2.0;
        di = rhs_i / 2.0;
        have_prev = true;
      } else {
        const double denom = 2.0 + c_prev;
        ci = -1.0 / denom;
        di = (rhs_i + d_prev) / denom;
      }
      c[static_cast<std::size_t>(i - lo)] = ci;
      rhs[static_cast<std::size_t>(i - lo)] = di;
      c_prev = ci;
      d_prev = di;
    }
    if (cluster_ != nullptr) {
      sim::Work elim_work;
      elim_work.flops = 8.0 * static_cast<double>(unknowns);
      elim_work.bytes = 48.0 * static_cast<double>(unknowns);
      cluster_->compute(r, elim_work, region_field_);
    }
    if (r + 1 < parts) {
      carry[0] = c_prev;
      carry[1] = d_prev;
      comm_.isend_span(r, r + 1, kTagElim,
                       std::span<const double>(carry, 2));
    }
  }

  // --- back substitution (rank r waits for rank r+1) ---
  double phi_next = 0.0;  // phi[n_nodes] = 0 wall
  for (int r = parts - 1; r >= 0; --r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const std::vector<double>& c = elim_c_[static_cast<std::size_t>(r)];
    const std::vector<double>& d = rhs_scratch_[static_cast<std::size_t>(r)];
    const std::int64_t first = std::max<std::int64_t>(rs.node_begin + 1, 1);
    if (r + 1 < parts) {
      comm_.irecv_value(r, r + 1, kTagPhiBack, &phi_next);
      comm_.wait_all();
      if (cluster_ != nullptr) {
        cluster_->send(r + 1, r, sizeof(double), region_field_);
      }
    }
    for (std::int64_t k = static_cast<std::int64_t>(c.size()) - 1; k >= 0;
         --k) {
      const std::int64_t i = first + k;
      double phi_i;
      if (i == n_nodes - 1) {
        phi_i = d[static_cast<std::size_t>(k)];
      } else {
        phi_i = d[static_cast<std::size_t>(k)] -
                c[static_cast<std::size_t>(k)] * phi_next;
      }
      rs.phi[static_cast<std::size_t>(i - rs.node_begin)] = phi_i;
      phi_next = phi_i;
    }
    // Walls stay zero; shared nodes are filled on both sides below.
    if (rs.node_begin == 0) {
      rs.phi.front() = 0.0;
    }
    if (rs.node_end == n_nodes) {
      rs.phi.back() = 0.0;
    }
    if (cluster_ != nullptr) {
      sim::Work back;
      back.flops = 4.0 * static_cast<double>(c.size());
      back.bytes = 24.0 * static_cast<double>(c.size());
      cluster_->compute(r, back, region_field_);
    }
    if (r > 0) {
      comm_.isend_value(r, r - 1, kTagPhiBack, phi_next);
    }
  }
  // Pipeline hops are charged inline above (send / send_overlapped at
  // each receive), so the recorded transfers are accounting duplicates.
  comm_.clear_transfers();

  // Shared node phi values: the *left* rank computes the shared node (its
  // unknown range is (node_begin, node_end]); send to the right
  // neighbour's first node. Like the ghost exchange below, this is part
  // of the field compute's memory traffic, not a charged message.
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
  comm_.clear_transfers();  // shared/ghost phi is never cluster-charged

  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    const auto nodes = rs.phi.size();
    const double phi_left_ghost =
        rs.node_begin == 0 ? 0.0
                           : ghost_from_left_[static_cast<std::size_t>(r)];
    const double phi_right_ghost =
        rs.node_end == n_nodes
            ? 0.0
            : ghost_from_right_[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < nodes; ++i) {
      const std::int64_t g = rs.node_begin + static_cast<std::int64_t>(i);
      if (g == 0) {
        rs.e[i] = -(rs.phi[1] - rs.phi[0]) / dx_;
      } else if (g == n_nodes) {
        rs.e[i] = -(rs.phi[nodes - 1] - rs.phi[nodes - 2]) / dx_;
      } else {
        const double phi_m = i == 0 ? phi_left_ghost : rs.phi[i - 1];
        const double phi_p = i + 1 == nodes ? phi_right_ghost : rs.phi[i + 1];
        rs.e[i] = -(phi_p - phi_m) / (2.0 * dx_);
      }
    }
    if (cluster_ != nullptr) {
      sim::Work w;
      w.flops = 16.0 * static_cast<double>(nodes);
      w.bytes = 64.0 * static_cast<double>(nodes);
      cluster_->compute(r, w, region_field_);
    }
  }
}

void DistributedPic::push_and_migrate() {
  last_migrations_ = 0;
  const double qm = -1.0;
  const int parts = num_parts();

  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    for (std::vector<double>& pack : migr_pack_) {
      pack.clear();
    }
    std::size_t alive = 0;
    for (std::size_t i = 0; i < rs.x.size(); ++i) {
      const double c = rs.x[i] / dx_;
      auto left = static_cast<std::int64_t>(c);
      left = std::clamp<std::int64_t>(left, 0, options_.cells - 1);
      const double frac = c - static_cast<double>(left);
      const auto l0 = static_cast<std::size_t>(left - rs.node_begin);
      const double e_here = rs.e[l0] * (1.0 - frac) + rs.e[l0 + 1] * frac;
      const double v = rs.v[i] + options_.dt * qm * e_here;
      const double x = rs.x[i] + options_.dt * v;
      if (x < 0.0 || x > options_.length) {
        continue;  // absorbed at the wall
      }
      if (x >= rs.x_lo && x < rs.x_hi) {
        rs.x[alive] = x;
        rs.v[alive] = v;
        rs.w[alive] = rs.w[i];
        ++alive;
      } else {
        // Pack (x, v, w) for the new owner; one message per destination.
        std::vector<double>& pack =
            migr_pack_[static_cast<std::size_t>(owner_of(x))];
        pack.push_back(x);
        pack.push_back(v);
        pack.push_back(rs.w[i]);
      }
    }
    rs.x.resize(alive);
    rs.v.resize(alive);
    rs.w.resize(alive);
    for (int dst = 0; dst < parts; ++dst) {
      const std::vector<double>& pack =
          migr_pack_[static_cast<std::size_t>(dst)];
      if (!pack.empty()) {
        comm_.isend_span(r, dst, kTagMigrate, std::span<const double>(pack));
        last_migrations_ += static_cast<std::int64_t>(pack.size() / 3);
      }
    }
    if (cluster_ != nullptr) {
      sim::Work w;
      w.flops = 20.0 * static_cast<double>(alive);
      w.bytes = 72.0 * static_cast<double>(alive);
      cluster_->compute(r, w, region_push_);
    }
  }

  // Deliver: sources ascending per destination, particles in push order —
  // the append order the single-array implementation produced.
  for (int r = 0; r < parts; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    comm_.deliver(r, kTagMigrate,
                  [&rs](comm::Rank, std::span<const std::byte> payload) {
                    CPX_CHECK(payload.size() % (3 * sizeof(double)) == 0);
                    double p[3];
                    for (std::size_t off = 0; off < payload.size();
                         off += sizeof(p)) {
                      std::memcpy(p, payload.data() + off, sizeof(p));
                      rs.x.push_back(p[0]);
                      rs.v.push_back(p[1]);
                      rs.w.push_back(p[2]);
                    }
                  });
  }
  if (cluster_ != nullptr) {
    sim::flush_exchange(comm_, *cluster_, region_migrate_, 0,
                        message_scratch_);
  } else {
    comm_.clear_transfers();
  }
}

void DistributedPic::step() {
  deposit();
  solve_field();
  push_and_migrate();
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
    // Field energy over this rank's cells (nodes node_begin..node_end).
    for (std::size_t i = 0; i + 1 < rs.e.size(); ++i) {
      const double em = 0.5 * (rs.e[i] + rs.e[i + 1]);
      d.field_energy += 0.5 * em * em * dx_;
    }
  }
  return d;
}

std::vector<double> DistributedPic::gather_rho() const {
  std::vector<double> out(static_cast<std::size_t>(options_.cells) + 1, 0.0);
  for (const RankState& rs : ranks_) {
    for (std::size_t i = 0; i < rs.rho.size(); ++i) {
      out[static_cast<std::size_t>(rs.node_begin) + i] = rs.rho[i];
    }
  }
  return out;
}

std::vector<double> DistributedPic::gather_phi() const {
  std::vector<double> out(static_cast<std::size_t>(options_.cells) + 1, 0.0);
  for (const RankState& rs : ranks_) {
    for (std::size_t i = 0; i < rs.phi.size(); ++i) {
      out[static_cast<std::size_t>(rs.node_begin) + i] = rs.phi[i];
    }
  }
  return out;
}

std::vector<double> DistributedPic::gather_efield() const {
  std::vector<double> out(static_cast<std::size_t>(options_.cells) + 1, 0.0);
  for (const RankState& rs : ranks_) {
    for (std::size_t i = 0; i < rs.e.size(); ++i) {
      out[static_cast<std::size_t>(rs.node_begin) + i] = rs.e[i];
    }
  }
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

void DistributedPic::attach_cluster(sim::Cluster* cluster) {
  cluster_ = cluster;
  if (cluster_ != nullptr) {
    CPX_REQUIRE(cluster_->num_ranks() >= num_parts(),
                "attach_cluster: cluster too small");
    region_deposit_ = cluster_->region("dist_simpic/deposit");
    region_field_ = cluster_->region("dist_simpic/field");
    region_push_ = cluster_->region("dist_simpic/push");
    region_migrate_ = cluster_->region("dist_simpic/migrate");
  }
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
  w.put_u8(overlap_ ? 1 : 0);
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
  overlap_ = r.get_u8() != 0;
  for (RankState& rs : ranks_) {
    r.get_f64_vec(rs.x);
    r.get_f64_vec(rs.v);
    r.get_f64_vec(rs.w);
    CPX_CHECK_MSG(rs.v.size() == rs.x.size() && rs.w.size() == rs.x.size(),
                  "DistributedPic::restore: particle arrays out of sync");
    const auto nodes =
        static_cast<std::size_t>(rs.node_end - rs.node_begin + 1);
    r.get_f64_vec(rs.rho);
    r.get_f64_vec(rs.phi);
    r.get_f64_vec(rs.e);
    CPX_CHECK_MSG(rs.rho.size() == nodes && rs.phi.size() == nodes &&
                      rs.e.size() == nodes,
                  "DistributedPic::restore: grid arrays not sized to the "
                  "local node slice");
  }
  r.end_section();
}

}  // namespace cpx::simpic
