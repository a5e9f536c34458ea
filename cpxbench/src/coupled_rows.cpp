// coupled-rows: the functional loop of examples/coupled_rows_demo, scaled
// up. Two rank-distributed MG-CFD annulus rows are joined by a sliding-plane
// FieldCoupler that remaps every step (k-d search + IDW stencils); a
// virtual cluster is attached to the upstream row. Real physics flows
// through the real coupler. The timed run uses pool width 1 (at this size a
// wider pool is slower, and its steps spread more on a shared host); the
// output check reruns the inputs at the library's default width.

#include <cmath>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "cpx/field_coupler.hpp"
#include "mesh/mesh.hpp"
#include "mgcfd/distributed.hpp"
#include "sim/cluster.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace cpxbench {
namespace {

using namespace cpx;

constexpr int kParts = 4;
/// Step after which the solution digest is compared with a rerun of the
/// same inputs at another pool width.
constexpr int kDigestStep = 20;

struct Inputs {
  int nr = 0;
  int ntheta = 0;
  int nz = 0;
  std::uint64_t mesh_seed = 0;
  double pulse = 0.0;  ///< relative density/energy bump at the exit plane
  double omega = 0.0;  ///< rotor rotation per step (rad)
};

struct Rows {
  mesh::UnstructuredMesh mesh;
  std::unique_ptr<mgcfd::DistributedSolver> up;
  std::unique_ptr<mgcfd::DistributedSolver> down;
  std::vector<mesh::CellId> exit_cells;
  std::vector<mesh::CellId> inlet_cells;
  std::unique_ptr<coupler::FieldCoupler> coupler;
  std::unique_ptr<sim::Cluster> cluster;
  std::vector<double> donor;
  std::vector<double> target;
  std::vector<mgcfd::State> inlet_states;

  explicit Rows(const Inputs& in) {
    mesh = mesh::make_annulus_mesh(in.nr, in.ntheta, in.nz, 1.0, 2.0, 30.0,
                                   1.0, in.mesh_seed);
    const double dz = 1.0 / in.nz;
    mgcfd::EulerOptions euler;
    euler.mg_levels = 1;
    euler.cfl = 0.4;
    up = std::make_unique<mgcfd::DistributedSolver>(mesh, kParts, euler);
    down = std::make_unique<mgcfd::DistributedSolver>(mesh, kParts, euler);
    const mgcfd::State inf = mgcfd::freestream(0.4, 1.0, 1.0, {0, 0, 1});
    up->set_uniform(inf);
    down->set_uniform(inf);
    exit_cells = coupler::extract_plane_cells(mesh, 1.0 - dz / 2.0, dz / 2.5);
    inlet_cells = coupler::extract_plane_cells(mesh, dz / 2.0, dz / 2.5);
    auto donor_pts = coupler::gather_centroids(mesh, exit_cells);
    auto target_pts = coupler::gather_centroids(mesh, inlet_cells);
    for (auto& p : target_pts) {
      p.z += 1.0 - dz;  // align the inlet band with the exit plane
    }
    coupler = std::make_unique<coupler::FieldCoupler>(
        std::move(donor_pts), std::move(target_pts),
        coupler::InterfaceKind::kSlidingPlane);
    cluster = std::make_unique<sim::Cluster>(sim::MachineModel::archer2(),
                                             2 * kParts);
    up->attach_cluster(cluster.get());
    for (mesh::CellId c : exit_cells) {
      mgcfd::State bumped = inf;
      bumped[0] *= 1.0 + in.pulse;
      bumped[4] *= 1.0 + in.pulse;
      up->set_cell(c, bumped);
    }
    donor.resize(exit_cells.size());
    target.resize(inlet_cells.size());
    inlet_states.resize(inlet_cells.size());
  }

  /// One coupled step; returns whether every produced value is finite.
  bool step(double omega) {
    double res_up = 0.0;
    double res_down = 0.0;
    {
      ScopedSpan span("mgcfd.step");
      res_up = up->step();
    }
    {
      ScopedSpan span("mgcfd.step");
      res_down = down->step();
    }
    coupler->advance_rotation(omega);
    std::vector<mgcfd::State> u;
    {
      ScopedSpan span("mgcfd.gather");
      u = up->gather_solution();
    }
    bool finite = std::isfinite(res_up) && std::isfinite(res_down);
    for (std::size_t k = 0; k < 5; ++k) {
      for (std::size_t i = 0; i < exit_cells.size(); ++i) {
        donor[i] = u[static_cast<std::size_t>(exit_cells[i])][k];
      }
      {
        ScopedSpan span("cpx.transfer");
        coupler->transfer(donor, target);
      }
      for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
        finite = finite && std::isfinite(target[i]);
        inlet_states[i][k] = target[i];
      }
    }
    for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
      down->set_cell(inlet_cells[i], inlet_states[i]);
    }
    return finite;
  }

  std::uint64_t digest() const {
    Digest d;
    for (const auto& s : up->gather_solution()) {
      d.add(s.data(), s.size());
    }
    for (const auto& s : down->gather_solution()) {
      d.add(s.data(), s.size());
    }
    d.add(cluster->max_clock());
    return d.value();
  }

  std::int64_t comm_messages() const {
    return up->comm_stats().messages + down->comm_stats().messages;
  }
  std::int64_t comm_bytes() const {
    return up->comm_stats().bytes + down->comm_stats().bytes;
  }
};

}  // namespace

void run_coupled_rows(const Context& ctx) {
  const int default_width = support::max_threads();
  apply_pool_width(ctx, 1);

  Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 29);
  Inputs in;
  in.nr = 16;
  in.ntheta = 96;
  in.nz = 32;
  in.mesh_seed = rng();
  in.pulse = 0.05 + 0.05 * rng.uniform();
  in.omega = 0.0015 + 0.001 * rng.uniform();
  emit("info mesh %dx%dx%d", in.nr, in.ntheta, in.nz);

  std::unique_ptr<Rows> rows;
  run_setups(ctx, 15, [&](int) {
    rows.reset();
    rows = std::make_unique<Rows>(in);
  });

  std::uint64_t digest_at = 0;
  std::int64_t msgs0 = rows->comm_messages();
  std::int64_t bytes0 = rows->comm_bytes();
  std::int64_t window_msgs = 0;
  std::int64_t window_bytes = 0;
  const int remaps0 = rows->coupler->remap_count();
  int window_remaps = 0;
  std::int64_t window_sim_msgs = 0;
  TimedLoop loop;
  loop.min_steps = kDigestStep;
  loop.trace_block = 10;
  const TimedResult r = run_timed(
      ctx, loop, [&](int) { return rows->step(in.omega); },
      [&](int i, bool) {
        if (i + 1 == kDigestStep) {
          digest_at = rows->digest();
          window_msgs = rows->comm_messages() - msgs0;
          window_bytes = rows->comm_bytes() - bytes0;
          window_remaps = rows->coupler->remap_count() - remaps0;
          window_sim_msgs =
              rows->cluster->comm_messages(sim::RankRange{0, 2 * kParts});
        }
      });

  // Bitwise-determinism contract: the same inputs at the library's default
  // pool width (at width 1 when the timed run was wider) must give the same
  // solution after kDigestStep steps.
  {
    const int width = support::max_threads();
    const int ref_width = width == 1 ? default_width : 1;
    support::set_max_threads(ref_width);
    Rows ref(in);
    for (int i = 0; i < kDigestStep; ++i) {
      ref.step(in.omega);
    }
    const std::uint64_t want = ref.digest();
    support::set_max_threads(width);
    emit("check digest_width%d_vs_width%d %d step=%d 0x%llx 0x%llx", width,
         ref_width, digest_at == want ? 1 : 0, kDigestStep,
         static_cast<unsigned long long>(digest_at),
         static_cast<unsigned long long>(want));
  }

  if (ctx.trace) {
    const double steps = r.traced_steps;
    emit("layer mgcfd.step_s %.9f", tracer().self_seconds("mgcfd.step") / steps);
    emit("layer mgcfd.gather_s %.9f",
         tracer().self_seconds("mgcfd.gather") / steps);
    emit("layer cpx.transfer_s %.9f",
         tracer().self_seconds("cpx.transfer") / steps);
    emit("layer cpx.remaps_per_step %.6f",
         static_cast<double>(window_remaps) / kDigestStep);
    emit("layer comm.messages_per_step %.6f",
         static_cast<double>(window_msgs) / kDigestStep);
    emit("layer comm.bytes_per_step %.6f",
         static_cast<double>(window_bytes) / kDigestStep);
    emit("layer sim.messages_per_step %.6f",
         static_cast<double>(window_sim_msgs) / kDigestStep);
    emit_kernel_counters(steps);
    emit_trace_summary(r);
  }
}

}  // namespace cpxbench
