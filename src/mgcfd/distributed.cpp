#include "mgcfd/distributed.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "ckpt/snapshot.hpp"
#include "mgcfd/flux.hpp"
#include "support/check.hpp"

namespace cpx::mgcfd {

namespace {
constexpr double kDiverged = std::numeric_limits<double>::quiet_NaN();
}  // namespace

DistributedSolver::DistributedSolver(const mesh::UnstructuredMesh& mesh,
                                     int parts, const EulerOptions& options)
    : options_(options), global_cells_(mesh.num_cells()) {
  CPX_REQUIRE(parts >= 1, "DistributedSolver: bad part count");
  CPX_REQUIRE(options.mg_levels == 1,
              "DistributedSolver: mg_levels must be 1 (no multigrid)");

  const mesh::Partitioning partitioning = mesh::partition_rcb(mesh, parts);
  part_of_ = partitioning.part_of;
  auto locals = mesh::extract_local_meshes(mesh, partitioning);

  // The halo schedule comes straight from the mesh send lists; one plan
  // serves every step, so steady-state exchange is allocation-free.
  comm_ = comm::Communicator::world(parts, "mgcfd");
  halo_plan_ = mesh::build_halo_plan(locals);
  halo_plan_.finalize(sizeof(State));
  norm_partials_.assign(static_cast<std::size_t>(parts), 0.0);
  std::size_t max_slots = 0;
  for (const mesh::LocalMesh& lm : locals) {
    max_slots = std::max(
        max_slots, static_cast<std::size_t>(lm.num_owned() + lm.num_ghosts()));
  }
  primitives_.assign(max_slots, Primitives{});

  local_of_.assign(static_cast<std::size_t>(global_cells_), -1);
  parts_.reserve(locals.size());
  for (mesh::LocalMesh& lm : locals) {
    PartState ps;
    const auto owned = static_cast<std::size_t>(lm.num_owned());
    const auto total = owned + static_cast<std::size_t>(lm.num_ghosts());
    for (std::size_t i = 0; i < owned; ++i) {
      local_of_[static_cast<std::size_t>(lm.owned[i])] =
          static_cast<std::int32_t>(i);
    }
    ps.u.assign(total, State{1.0, 0.0, 0.0, 0.0, 2.5});
    ps.residual.assign(owned, State{});
    // Geometric closure and incident-edge count of each owned cell (every
    // global edge touching an owned cell appears in the local edge list).
    // The kept per-cell arrays are sized before the temporary, so freeing
    // it leaves no heap hole under live data.
    ps.closure.assign(owned, mesh::Vec3{0.0, 0.0, 0.0});
    ps.volumes.reserve(owned);
    ps.face_area.reserve(owned);
    std::vector<std::int32_t> degree(owned, 0);
    for (const auto& e : lm.edges) {
      if (e.a < lm.num_owned()) {
        auto& c = ps.closure[static_cast<std::size_t>(e.a)];
        c.x += e.area * e.normal.x;
        c.y += e.area * e.normal.y;
        c.z += e.area * e.normal.z;
        ++degree[static_cast<std::size_t>(e.a)];
      }
      if (e.b < lm.num_owned()) {
        auto& c = ps.closure[static_cast<std::size_t>(e.b)];
        c.x -= e.area * e.normal.x;
        c.y -= e.area * e.normal.y;
        c.z -= e.area * e.normal.z;
        ++degree[static_cast<std::size_t>(e.b)];
      }
    }
    for (std::size_t i = 0; i < owned; ++i) {
      const double vol =
          mesh.volumes()[static_cast<std::size_t>(lm.owned[i])];
      ps.volumes.push_back(vol);
      ps.face_area.push_back(cell_face_area(degree[i], vol));
    }

    ps.local = std::move(lm);
    parts_.push_back(std::move(ps));
  }
}

void DistributedSolver::set_uniform(const State& u) {
  for (PartState& ps : parts_) {
    std::fill(ps.u.begin(), ps.u.end(), u);
  }
}

void DistributedSolver::set_cell(mesh::CellId cell, const State& u) {
  CPX_REQUIRE(cell >= 0 && cell < global_cells_, "set_cell: bad cell");
  const int part = part_of_[static_cast<std::size_t>(cell)];
  parts_[static_cast<std::size_t>(part)]
      .u[static_cast<std::size_t>(local_of_[static_cast<std::size_t>(cell)])] =
      u;
  // Ghost copies become current at the next exchange.
}

void DistributedSolver::attach_cluster(sim::Cluster* cluster) {
  if (cluster == nullptr) {
    cluster_ = nullptr;
    return;
  }
  // A refused cluster must not stay attached: the next step would charge
  // ranks past its end.
  CPX_REQUIRE(cluster->num_ranks() >= num_parts(),
              "attach_cluster: cluster too small");
  // One halo round (src, dst, channel payload) in channel order, bound
  // once: a schedule is valid only on the cluster that built it.
  std::vector<sim::Message> messages;
  messages.reserve(halo_plan_.channels().size());
  for (const comm::ExchangePlan::Channel& ch : halo_plan_.channels()) {
    messages.push_back(
        {ch.src, ch.dst, ch.send_indices.size() * sizeof(State)});
  }
  halo_schedule_ = cluster->make_schedule(messages);
  region_flux_ = cluster->region("dist_mgcfd/flux");
  region_halo_ = cluster->region("dist_mgcfd/halo");
  region_reduce_ = cluster->region("dist_mgcfd/reduce");
  cluster_ = cluster;
}

bool DistributedSolver::refresh_primitives(const PartState& ps) {
  for (std::size_t i = 0; i < ps.u.size(); ++i) {
    if (!std::isfinite(ps.u[i][0])) {
      return false;  // diverged; primitives() needs a positive density
    }
    primitives_[i] = primitives(ps.u[i]);
  }
  return true;
}

void DistributedSolver::scatter_residuals(PartState& ps) const {
  // Edge-centric residual: one flux per local edge, in ascending edge
  // order, added into each owned endpoint, so every owned cell sums its
  // edges in the sequential solver's order. Ghost slots are read, never
  // written. The flux is applied on the fly, not stored: a per-edge flux
  // buffer would add 40 bytes per edge to the working set. The
  // dissipation and each edge's area are read into locals: a residual
  // store may alias any double, so the compiler would otherwise reload
  // them for every component.
  const auto owned = ps.local.num_owned();
  const double dissipation = options_.dissipation;
  for (const auto& e : ps.local.edges) {
    const auto a = static_cast<std::size_t>(e.a);
    const auto b = static_cast<std::size_t>(e.b);
    const double area = e.area;
    const State f = rusanov_flux(ps.u[a], primitives_[a], ps.u[b],
                                 primitives_[b], e.normal, dissipation);
    if (e.a < owned) {
      State& r = ps.residual[a];
      r[0] -= area * f[0];
      r[1] -= area * f[1];
      r[2] -= area * f[2];
      r[3] -= area * f[3];
      r[4] -= area * f[4];
    }
    if (e.b < owned) {
      State& r = ps.residual[b];
      r[0] += area * f[0];
      r[1] += area * f[1];
      r[2] += area * f[2];
      r[3] += area * f[3];
      r[4] += area * f[4];
    }
  }
}

double DistributedSolver::finalize_part(PartState& ps) {
  // Per owned cell, the sequential solver's boundary closure (transmissive)
  // and then its local-time-step update with positivity guard (flux.hpp):
  // both touch only the cell's own state and residual, so one pass does
  // both. An update that leaves a non-finite density makes the part's
  // norm, and so the step's, NaN.
  const auto owned = static_cast<std::size_t>(ps.local.num_owned());
  const double cfl = options_.cfl;
  double part_norm_sq = 0.0;
  bool finite = true;
  for (std::size_t c = 0; c < owned; ++c) {
    add_closure_flux(ps.residual[c], ps.u[c], primitives_[c], ps.closure[c]);
    update_cell(ps.u[c], ps.residual[c], primitives_[c].c, ps.volumes[c],
                ps.face_area[c], cfl, part_norm_sq);
    finite = finite && std::isfinite(ps.u[c][0]);
  }
  return finite ? part_norm_sq : kDiverged;
}

sim::Work DistributedSolver::flux_work(const PartState& ps) {
  const auto edges = static_cast<double>(ps.local.edges.size());
  const auto owned = static_cast<double>(ps.local.num_owned());
  sim::Work w;
  w.flops = edges * 120.0 + owned * 60.0;
  w.bytes = edges * 160.0 + owned * 100.0;
  return w;
}

double DistributedSolver::step() {
  // The halo lands before any flux: one plan execution packs each send
  // list, moves the bytes through the communicator and scatters them into
  // the neighbours' ghost slots. An attached cluster is charged the same
  // channels, bound as one schedule by attach_cluster.
  halo_plan_.execute(comm_, [this](comm::Rank r) {
    return std::as_writable_bytes(
        std::span<State>(parts_[static_cast<std::size_t>(r)].u));
  });
  if (cluster_ != nullptr) {
    cluster_->exchange(halo_schedule_, region_halo_);
  }

  for (PartState& ps : parts_) {
    if (!refresh_primitives(ps)) {
      return kDiverged;
    }
    std::fill(ps.residual.begin(), ps.residual.end(), State{});
    scatter_residuals(ps);
    norm_partials_[static_cast<std::size_t>(ps.local.part)] =
        finalize_part(ps);
    if (cluster_ != nullptr) {
      cluster_->compute(ps.local.part, flux_work(ps), region_flux_);
    }
  }
  // Deterministic allreduce of the per-rank partials (what an MPI run
  // computes: each rank reduces its owned cells, ranks combine in order).
  const double norm_sq = comm_.allreduce_sum(norm_partials_);
  if (cluster_ != nullptr && num_parts() > 1) {
    cluster_->allreduce({0, num_parts()}, sizeof(double), region_reduce_);
  }
  return std::sqrt(norm_sq);
}

double DistributedSolver::run(int steps) {
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

std::vector<State> DistributedSolver::gather_solution() const {
  std::vector<State> out(static_cast<std::size_t>(global_cells_));
  for (const PartState& ps : parts_) {
    for (std::size_t i = 0; i < ps.local.owned.size(); ++i) {
      out[static_cast<std::size_t>(ps.local.owned[i])] = ps.u[i];
    }
  }
  return out;
}

void DistributedSolver::serialize(ckpt::Writer& w) const {
  w.begin_section("mgcfd/distributed");
  w.put_i64(global_cells_);
  w.put_u32(static_cast<std::uint32_t>(num_parts()));
  for (const PartState& ps : parts_) {
    // Owned + ghost states, flattened: 5 doubles per cell slot. The ghost
    // tail is included so a restored solver can step without a priming
    // halo exchange, matching the in-memory state exactly.
    w.put_u64(static_cast<std::uint64_t>(ps.u.size()));
    for (const State& u : ps.u) {
      for (const double c : u) {
        w.put_f64(c);
      }
    }
  }
  w.end_section();
}

void DistributedSolver::restore(ckpt::Reader& r) {
  r.open_section("mgcfd/distributed");
  const std::int64_t cells = r.get_i64();
  const auto parts = static_cast<int>(r.get_u32());
  CPX_CHECK_MSG(cells == global_cells_ && parts == num_parts(),
                "DistributedSolver::restore: snapshot was taken with a "
                "different decomposition ("
                    << cells << " cells / " << parts << " parts, expected "
                    << global_cells_ << " / " << num_parts() << ")");
  for (PartState& ps : parts_) {
    const std::uint64_t slots = r.get_u64();
    CPX_CHECK_MSG(slots == ps.u.size(),
                  "DistributedSolver::restore: part state has "
                      << slots << " cell slots, expected " << ps.u.size());
    for (State& u : ps.u) {
      for (double& c : u) {
        c = r.get_f64();
      }
    }
  }
  r.end_section();
}

}  // namespace cpx::mgcfd
