// Fully functional coupled simulation at mini scale: two *real*
// rank-distributed Euler solvers (annulus blade-row sectors) exchanging
// boundary fields through the *real* CPX field coupler every step — the
// paper's architecture with actual physics end to end, plus co-simulated
// virtual timing from the attached cluster.
//
// A density pulse is injected near the upstream row's exit plane; the
// coupler carries it across the interface and it appears in the
// downstream row's inlet — the information flow a coupled simulation
// exists to provide (and what boundary-condition hand-offs lose).
//
//   ./coupled_rows_demo [--steps=40] [--parts=4]

#include <algorithm>
#include <cmath>
#include <iostream>

#include "cpx/field_coupler.hpp"
#include "mesh/mesh.hpp"
#include "mgcfd/distributed.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) try {
  using namespace cpx;
  const Options opts = Options::parse(argc, argv);
  opts.reject_unknown({"steps", "parts"});
  const int steps = static_cast<int>(opts.get_int("steps", 40));
  const int parts = static_cast<int>(opts.get_int("parts", 4));

  // Two identical annulus sectors; the downstream row sits axially behind
  // the upstream one (same local coordinates, shifted interpretation).
  const mesh::UnstructuredMesh row_mesh =
      mesh::make_annulus_mesh(6, 24, 10, 1.0, 2.0, 30.0, 1.0);
  const double dz = 1.0 / 10.0;

  mgcfd::EulerOptions euler;
  euler.cfl = 0.4;
  mgcfd::DistributedSolver upstream(row_mesh, parts, euler);
  mgcfd::DistributedSolver downstream(row_mesh, parts, euler);
  const mgcfd::State inf = mgcfd::freestream(0.4, 1.0, 1.0, {0, 0, 1});
  upstream.set_uniform(inf);
  downstream.set_uniform(inf);

  // Interface bands: the upstream exit layer feeds the downstream inlet
  // layer. Targets are matched in the donor plane (z aligned).
  const auto exit_cells =
      coupler::extract_plane_cells(row_mesh, 1.0 - dz / 2.0, dz / 2.5);
  const auto inlet_cells =
      coupler::extract_plane_cells(row_mesh, dz / 2.0, dz / 2.5);
  auto donor_pts = coupler::gather_centroids(row_mesh, exit_cells);
  auto target_pts = coupler::gather_centroids(row_mesh, inlet_cells);
  for (auto& p : target_pts) {
    p.z += 1.0 - dz;  // align the inlet band with the exit plane
  }
  coupler::FieldCoupler coupler_unit(donor_pts, target_pts,
                                     coupler::InterfaceKind::kSlidingPlane);

  // Virtual-cluster co-simulation of both rows (2 * parts ranks).
  sim::Cluster cluster(sim::MachineModel::archer2(), 2 * parts);
  upstream.attach_cluster(&cluster);

  // Inject a density pulse just before the upstream exit.
  for (mesh::CellId c : exit_cells) {
    mgcfd::State bumped = inf;
    bumped[0] *= 1.08;
    bumped[4] *= 1.08;
    upstream.set_cell(c, bumped);
  }

  print_banner(std::cout, "Coupled blade rows — density pulse crossing the "
                          "interface");
  Table history({"step", "upstream exit rho", "downstream inlet rho",
                 "rotation (rad)"});
  history.set_precision(6);

  std::vector<double> donor_field(exit_cells.size());
  std::vector<double> target_field(inlet_cells.size());
  const double omega = 0.002;  // relative rotor rotation per step

  for (int s = 0; s <= steps; ++s) {
    const auto u_up = upstream.gather_solution();
    const auto u_down = downstream.gather_solution();
    double exit_rho = 0.0;
    for (std::size_t i = 0; i < exit_cells.size(); ++i) {
      exit_rho += u_up[static_cast<std::size_t>(exit_cells[i])][0];
    }
    exit_rho /= static_cast<double>(exit_cells.size());
    double inlet_rho = 0.0;
    for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
      inlet_rho += u_down[static_cast<std::size_t>(inlet_cells[i])][0];
    }
    inlet_rho /= static_cast<double>(inlet_cells.size());
    if (s % std::max(steps / 8, 1) == 0) {
      history.add_row({static_cast<long long>(s), exit_rho, inlet_rho,
                       coupler_unit.rotation()});
    }
    if (s == steps) {
      break;
    }

    // Advance both rows, then transfer all five conserved fields through
    // the (sliding) interface into the downstream inlet band.
    upstream.step();
    downstream.step();
    coupler_unit.advance_rotation(omega);
    const auto u = upstream.gather_solution();
    std::vector<mgcfd::State> inlet_states(inlet_cells.size());
    for (int k = 0; k < 5; ++k) {
      for (std::size_t i = 0; i < exit_cells.size(); ++i) {
        donor_field[i] = u[static_cast<std::size_t>(exit_cells[i])]
                          [static_cast<std::size_t>(k)];
      }
      coupler_unit.transfer(donor_field, target_field);
      for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
        inlet_states[i][static_cast<std::size_t>(k)] = target_field[i];
      }
    }
    for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
      downstream.set_cell(inlet_cells[i], inlet_states[i]);
    }
  }
  history.print(std::cout);
  std::cout << "coupler remaps: " << coupler_unit.remap_count()
            << " (sliding plane: one per moved transfer)\n"
            << "upstream co-simulated virtual time: "
            << cluster.max_clock() << " s over " << steps << " steps\n"
            << "The downstream inlet density rises as the pulse crosses "
               "the interface — unsteady information a steady "
               "boundary-condition hand-off would have lost.\n";
  return 0;
} catch (const cpx::CheckError& e) {
  std::cerr << "coupled_rows_demo: " << e.what() << '\n';
  return 2;
}
