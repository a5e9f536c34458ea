#include "mgcfd/instance.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::mgcfd {
namespace {

/// Near-cubic 3-D factorisation of p (px >= py >= pz, px*py*pz == p).
std::array<int, 3> grid_dims(int p) {
  std::array<int, 3> best = {p, 1, 1};
  double best_score = 1e300;
  for (int pz = 1; pz * pz * pz <= p; ++pz) {
    if (p % pz != 0) {
      continue;
    }
    const int rest = p / pz;
    for (int py = pz; py * py <= rest; ++py) {
      if (rest % py != 0) {
        continue;
      }
      const int px = rest / py;
      // Prefer the most cubic shape (smallest max/min ratio).
      const double score = static_cast<double>(px) / pz;
      if (score < best_score) {
        best_score = score;
        best = {px, py, pz};
      }
    }
  }
  return best;
}

}  // namespace

Instance::Instance(std::string name, std::int64_t global_cells,
                   sim::RankRange ranks, const WorkModel& work)
    : name_(std::move(name)),
      ranks_(ranks),
      global_cells_(global_cells),
      work_(work) {
  CPX_REQUIRE(ranks.size() >= 1, "Instance: empty rank range");
  CPX_REQUIRE(global_cells >= ranks.size(),
              "Instance: fewer cells than ranks");
  build_analytic(global_cells);
}

Instance::Instance(std::string name, const mesh::UnstructuredMesh& mesh,
                   const mesh::Partitioning& partitioning,
                   sim::RankRange ranks, const WorkModel& work)
    : name_(std::move(name)),
      ranks_(ranks),
      global_cells_(mesh.num_cells()),
      work_(work) {
  CPX_REQUIRE(partitioning.num_parts == ranks.size(),
              "Instance: partitioning has " << partitioning.num_parts
                                            << " parts but rank range has "
                                            << ranks.size());
  const auto locals = mesh::extract_local_meshes(mesh, partitioning);
  owned_.reserve(locals.size());
  halo_cells_.reserve(locals.size());
  nbr_begin_.reserve(locals.size() + 1);
  nbr_begin_.push_back(0);
  for (std::size_t l = 0; l < locals.size(); ++l) {  // in part order
    owned_.push_back(locals[l].num_owned());
    std::int64_t halo_cells = 0;
    for (const auto& send : locals[l].sends) {
      const auto cells = static_cast<std::int64_t>(send.cells.size());
      halo_messages_.push_back({ranks_.begin + static_cast<sim::Rank>(l),
                                ranks_.begin + send.neighbor,
                                halo_bytes(cells)});
      halo_cells += cells;
    }
    halo_cells_.push_back(halo_cells);
    nbr_begin_.push_back(halo_messages_.size());
  }
}

void Instance::build_analytic(std::int64_t global_cells) {
  const int p = ranks_.size();
  const mesh::PartitionStats stats =
      mesh::PartitionStats::analytic(global_cells, p);
  const auto dims = grid_dims(p);
  const int px = dims[0];
  const int py = dims[1];
  const int pz = dims[2];
  // Spread the analytic mean halo over the mean neighbour count: every
  // face of every rank carries the same per-face halo.
  const std::int64_t per_face = std::max<std::int64_t>(
      static_cast<std::int64_t>(stats.halo_mean /
                                std::max(stats.neighbors_mean, 1.0)),
      1);
  // Directed neighbour pairs of the px x py x pz grid.
  const auto faces = static_cast<std::size_t>(
      2 * ((px - 1) * py * pz + px * (py - 1) * pz + px * py * (pz - 1)));

  const std::size_t face_bytes = halo_bytes(per_face);

  owned_.reserve(static_cast<std::size_t>(p));
  halo_cells_.reserve(static_cast<std::size_t>(p));
  nbr_begin_.reserve(static_cast<std::size_t>(p) + 1);
  halo_messages_.reserve(faces);
  nbr_begin_.push_back(0);
  for (int l = 0; l < p; ++l) {
    // Deterministic +-3% load jitter around the mean (production
    // partitioners are imbalanced at about this level).
    const double jitter =
        0.03 * (2.0 * (static_cast<double>(hash_mix(17, static_cast<std::uint64_t>(l)) >> 11) *
                       0x1.0p-53) -
                1.0);
    const auto owned =
        static_cast<std::int64_t>(stats.owned_mean * (1.0 + jitter));
    owned_.push_back(std::max<std::int64_t>(owned, 1));

    const int iz = l / (px * py);
    const int iy = (l / px) % py;
    const int ix = l % px;
    const auto add_neighbor = [&](int jx, int jy, int jz) {
      if (jx < 0 || jx >= px || jy < 0 || jy >= py || jz < 0 || jz >= pz) {
        return;
      }
      halo_messages_.push_back({ranks_.begin + l,
                                ranks_.begin + (jz * py + jy) * px + jx,
                                face_bytes});
    };
    add_neighbor(ix - 1, iy, iz);
    add_neighbor(ix + 1, iy, iz);
    add_neighbor(ix, iy - 1, iz);
    add_neighbor(ix, iy + 1, iz);
    add_neighbor(ix, iy, iz - 1);
    add_neighbor(ix, iy, iz + 1);
    const std::size_t n_nbrs = halo_messages_.size() - nbr_begin_.back();
    halo_cells_.push_back(per_face * static_cast<std::int64_t>(n_nbrs));
    nbr_begin_.push_back(halo_messages_.size());
  }
  CPX_DCHECK(halo_messages_.size() == faces);
}

double Instance::mean_owned() const {
  double sum = 0.0;
  for (const std::int64_t owned : owned_) {
    sum += static_cast<double>(owned);
  }
  return sum / static_cast<double>(owned_.size());
}

void Instance::bind(sim::Cluster& cluster) {
  region_flux_ = cluster.region(name_ + "/flux");
  region_halo_ = cluster.region(name_ + "/halo");
  region_mg_ = cluster.region(name_ + "/mg_coarse");
  region_reduce_ = cluster.region(name_ + "/reduce");
  const sim::MachineModel& m = cluster.machine();

  // Level visit multiplier of one V-cycle: every level is visited twice
  // (down and up) except the coarsest; smooth_steps sweeps per visit.
  double level_work = 0.0;
  double ratio_l = 1.0;
  for (int l = 0; l < work_.mg_levels; ++l) {
    const double visits = (l == work_.mg_levels - 1) ? 1.0 : 2.0;
    level_work += visits * ratio_l;
    ratio_l *= work_.level_cell_ratio;
  }
  const double sweeps_per_cycle =
      static_cast<double>(work_.smooth_steps) * level_work;

  // Per-rank sweep work of the whole V-cycle.
  const auto sweep_work = [&](std::int64_t owned) {
    const double cells = static_cast<double>(owned);
    const double edges = cells * work_.edges_per_cell;
    sim::Work w;
    w.flops = sweeps_per_cycle *
              (edges * work_.flops_per_edge + cells * work_.flops_per_cell);
    w.bytes = sweeps_per_cycle *
              (edges * work_.bytes_per_edge + cells * work_.bytes_per_cell);
    w.launches = sweeps_per_cycle * 2.0;  // flux kernel + update kernel
    return w;
  };

  // Finest-level halo round (halo_bytes): the extra fine rounds'
  // latencies are charged as delays. Coarse halos shrink with
  // cells^(2/3) and are latency-dominated.
  const int fine_rounds = 2 * work_.smooth_steps;
  const double per_round = m.lat_inter + 2.0 * m.msg_overhead;
  const int coarse_rounds =
      2 * work_.smooth_steps * std::max(work_.mg_levels - 1, 0);
  const auto p = static_cast<std::size_t>(ranks_.size());
  sweep_s_.resize(p);
  interior_s_.resize(p);
  boundary_s_.resize(p);
  delay_s_.resize(p);
  for (std::size_t l = 0; l < p; ++l) {
    const std::int64_t owned = owned_[l];
    const std::int64_t halo_total = halo_cells_[l];

    sweep_s_[l] = m.compute_time(sweep_work(owned));
    // Split-phase placement: the interior-cell share of the sweeps runs
    // inside the halo window, the boundary share after the data lands.
    const double boundary_frac = std::min(
        1.0, static_cast<double>(halo_total) /
                 static_cast<double>(std::max<std::int64_t>(owned, 1)));
    sim::Work interior = sweep_work(owned);
    interior.flops *= 1.0 - boundary_frac;
    interior.bytes *= 1.0 - boundary_frac;
    interior_s_[l] = m.compute_time(interior);
    sim::Work boundary = sweep_work(owned);
    boundary.flops *= boundary_frac;
    boundary.bytes *= boundary_frac;
    boundary.launches = 0.0;  // same kernels, already counted in the window
    boundary_s_[l] = m.compute_time(boundary);

    // Each extra round exchanges with every neighbour.
    const auto n_nbrs = static_cast<double>(
        std::max<std::size_t>(nbr_begin_[l + 1] - nbr_begin_[l], 1));
    delay_s_[l] = (fine_rounds - 1 + coarse_rounds) * per_round * n_nbrs;
  }
  halo_ = cluster.make_schedule(halo_messages_);
}

void Instance::step(sim::Cluster& cluster) {
  if (needs_bind(cluster)) {
    bind(cluster);
  }
  if (overlap_) {
    // Overlapped: the halo payload (previous step's boundary state) is
    // ready when the step starts, so the round is posted first; the
    // interior share of the sweeps runs inside the window and the
    // boundary share after the data lands. Totals match the synchronous
    // schedule; only placement differs.
    cluster.exchange(halo_, region_halo_,
                     {ranks_, interior_s_, region_flux_});
    cluster.compute_seconds(ranks_, boundary_s_, region_flux_);
  } else {
    cluster.compute_seconds(ranks_, sweep_s_, region_flux_);
    cluster.exchange(halo_, region_halo_);
  }

  // Latency of the remaining fine rounds and the coarse-level rounds.
  cluster.comm_delay(ranks_, delay_s_, region_mg_);

  // Residual allreduce closing the timestep.
  cluster.allreduce(ranks_, 5 * sizeof(double), region_reduce_);
}

}  // namespace cpx::mgcfd
