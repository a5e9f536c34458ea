// Tests for the CPX coupler: k-d tree vs brute-force search equivalence
// and complexity, inverse-distance interpolation properties, sliding-plane
// rotation, and the coupler-unit performance model on the virtual cluster.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "cpx/field_coupler.hpp"
#include "cpx/interpolation.hpp"
#include "cpx/search.hpp"
#include "cpx/unit.hpp"
#include "mgcfd/distributed.hpp"
#include "mgcfd/instance.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::coupler {
namespace {

std::vector<mesh::Vec3> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<mesh::Vec3> pts(n);
  for (auto& p : pts) {
    p = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
         rng.uniform(-1.0, 1.0)};
  }
  return pts;
}

/// Brute-force nearest neighbour, the reference of the k-d tree: O(n) per
/// query, a distance tie resolved to the lower index.
std::int64_t nearest_brute(const std::vector<mesh::Vec3>& points,
                           const mesh::Vec3& query) {
  std::int64_t best = 0;
  double best_d2 = distance_squared(points[0], query);
  for (std::size_t i = 1; i < points.size(); ++i) {
    const double d2 = distance_squared(points[i], query);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

/// `points` turned by `radians` about the z axis.
std::vector<mesh::Vec3> rotated(const std::vector<mesh::Vec3>& points,
                                double radians) {
  std::vector<mesh::Vec3> out(points.size());
  rotate_z(points, radians, out);
  return out;
}

class KdTreeVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(KdTreeVsBrute, SameNearestNeighbour) {
  const auto pts = random_points(static_cast<std::size_t>(GetParam()), 17);
  const KdTree tree(pts);
  Rng rng(99);
  for (int q = 0; q < 200; ++q) {
    const mesh::Vec3 query{rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                           rng.uniform(-1.2, 1.2)};
    // Both resolve a distance tie to the lower index.
    EXPECT_EQ(tree.nearest(query), nearest_brute(pts, query));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KdTreeVsBrute,
                         ::testing::Values(1, 2, 10, 100, 5000));

TEST(KdTree, VisitsLogarithmicallyFewNodes) {
  const auto pts = random_points(100'000, 3);
  const KdTree tree(pts);
  Rng rng(5);
  std::int64_t total_visited = 0;
  const int queries = 100;
  for (int q = 0; q < queries; ++q) {
    tree.nearest({rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                  rng.uniform(-1.0, 1.0)});
    total_visited += tree.last_visited();
  }
  // Expected ~log2(1e5) * small constant, certainly far below n.
  EXPECT_LT(total_visited / queries, 2000);
}

TEST(KdTree, FarQueriesVisitFewNodes) {
  // Queries ten radii outside the cloud, like the targets of a sliding
  // plane turned away from its donors: pruning on each subtree's bounding
  // box keeps them as cheap as queries inside the cloud, and exact.
  const auto pts = random_points(100'000, 3);
  const KdTree tree(pts);
  Rng rng(6);
  const double radius = std::sqrt(3.0);  // the cloud fills [-1, 1]^3
  std::int64_t total_visited = 0;
  const int queries = 100;
  for (int q = 0; q < queries; ++q) {
    mesh::Vec3 d{rng.normal(), rng.normal(), rng.normal()};
    const double scale = 10.0 * radius / std::sqrt(d.x * d.x + d.y * d.y +
                                                   d.z * d.z);
    const mesh::Vec3 query{scale * d.x, scale * d.y, scale * d.z};
    EXPECT_EQ(tree.nearest(query), nearest_brute(pts, query));
    total_visited += tree.last_visited();
  }
  EXPECT_LT(total_visited / queries, 2000);
}

TEST(KdTree, RebuildMatchesAFreshTree) {
  // rebuild() reuses the buffers of the last build; the queries see only
  // the new points.
  const auto a = random_points(3000, 11);
  const auto b = rotated(random_points(3000, 12), 1.0);
  KdTree tree(a);
  tree.rebuild(b);
  const KdTree fresh(b);
  std::vector<KdTree::Neighbour> got(6);
  std::vector<KdTree::Neighbour> want(6);
  for (const mesh::Vec3& q : random_points(200, 13)) {
    tree.k_nearest(q, got);
    fresh.k_nearest(q, want);
    for (std::size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j].index, want[j].index);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[j].d2),
                std::bit_cast<std::uint64_t>(want[j].d2));
    }
  }
}

TEST(KdTree, ExactHitFindsItself) {
  const auto pts = random_points(1000, 7);
  const KdTree tree(pts);
  for (std::size_t i = 0; i < pts.size(); i += 97) {
    EXPECT_EQ(tree.nearest(pts[i]), static_cast<std::int64_t>(i));
  }
}

TEST(Idw, WeightsArePartitionOfUnity) {
  const auto donors = random_points(500, 21);
  const auto targets = random_points(50, 22);
  const auto stencils = build_idw_stencils(donors, targets, 4);
  ASSERT_EQ(stencils.size(), targets.size());
  for (const Stencil& s : stencils) {
    EXPECT_EQ(s.donors.size(), 4u);
    double sum = 0.0;
    for (double w : s.weights) {
      EXPECT_GE(w, 0.0);
      sum += w;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Idw, ReproducesConstantFieldExactly) {
  const auto donors = random_points(300, 31);
  const auto targets = random_points(40, 32);
  const auto stencils = build_idw_stencils(donors, targets, 4);
  const std::vector<double> field(donors.size(), 3.25);
  std::vector<double> out(targets.size());
  apply_stencils(stencils, field, out);
  for (double v : out) {
    EXPECT_NEAR(v, 3.25, 1e-12);
  }
}

TEST(Idw, ExactHitInjectsDonorValue) {
  const auto donors = random_points(100, 41);
  const std::vector<mesh::Vec3> targets = {donors[7]};
  const auto stencils = build_idw_stencils(donors, targets, 4);
  std::vector<double> field(donors.size(), 0.0);
  field[7] = 42.0;
  std::vector<double> out(1);
  apply_stencils(stencils, field, out);
  EXPECT_DOUBLE_EQ(out[0], 42.0);
}

TEST(Idw, SmoothFieldInterpolatedAccurately) {
  // Dense donors, linear field: IDW should be close (not exact).
  const auto donors = random_points(20'000, 51);
  const auto targets = random_points(20, 52);
  const auto stencils = build_idw_stencils(donors, targets, 4);
  std::vector<double> field(donors.size());
  for (std::size_t i = 0; i < donors.size(); ++i) {
    field[i] = 2.0 * donors[i].x - donors[i].y + 0.5 * donors[i].z;
  }
  std::vector<double> out(targets.size());
  apply_stencils(stencils, field, out);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const double expected =
        2.0 * targets[t].x - targets[t].y + 0.5 * targets[t].z;
    EXPECT_NEAR(out[t], expected, 0.08);
  }
}

/// Brute-force reference stencils: partial_sort of every donor by
/// (d2, index), then inverse-distance weights with an exact-hit guard.
/// build_idw_stencils must match it bit for bit.
std::vector<Stencil> brute_idw_stencils(const std::vector<mesh::Vec3>& donors,
                                        const std::vector<mesh::Vec3>& targets,
                                        int k) {
  const int kk = std::min<int>(k, static_cast<int>(donors.size()));
  std::vector<Stencil> stencils(targets.size());
  std::vector<std::pair<double, std::int64_t>> d;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    d.clear();
    for (std::size_t j = 0; j < donors.size(); ++j) {
      d.emplace_back(distance_squared(donors[j], targets[t]),
                     static_cast<std::int64_t>(j));
    }
    std::partial_sort(d.begin(), d.begin() + kk, d.end());
    Stencil& s = stencils[t];
    double total = 0.0;
    bool exact = false;
    for (int j = 0; j < kk; ++j) {
      s.donors.push_back(d[static_cast<std::size_t>(j)].second);
      s.weights.push_back(0.0);
    }
    for (std::size_t j = 0; j < s.donors.size(); ++j) {
      const double d2 = distance_squared(
          donors[static_cast<std::size_t>(s.donors[j])], targets[t]);
      if (d2 < 1e-24) {
        std::fill(s.weights.begin(), s.weights.end(), 0.0);
        s.weights[j] = 1.0;
        exact = true;
        break;
      }
      s.weights[j] = 1.0 / std::sqrt(d2);
      total += s.weights[j];
    }
    if (!exact) {
      for (double& w : s.weights) {
        w /= total;
      }
    }
  }
  return stencils;
}

/// Donor ids and weight bit patterns equal, stencil by stencil.
void expect_same_stencils(const std::vector<Stencil>& got,
                          const std::vector<Stencil>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t t = 0; t < got.size(); ++t) {
    ASSERT_EQ(got[t].donors, want[t].donors) << what << " target " << t;
    ASSERT_EQ(got[t].weights.size(), want[t].weights.size()) << what;
    for (std::size_t j = 0; j < got[t].weights.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[t].weights[j]),
                std::bit_cast<std::uint64_t>(want[t].weights[j]))
          << what << " target " << t << " weight " << j;
    }
  }
}

/// The coupled-rows interface: cell centroids of a 16 x 96 band of a 30
/// degree annulus sector, the donors on the exit plane and the targets
/// on the inlet plane moved onto it.
std::pair<std::vector<mesh::Vec3>, std::vector<mesh::Vec3>>
coupled_rows_interface() {
  const int nz = 4;
  const double dz = 1.0 / nz;
  const mesh::UnstructuredMesh m =
      mesh::make_annulus_mesh(16, 96, nz, 1.0, 2.0, 30.0, 1.0);
  auto donors =
      gather_centroids(m, extract_plane_cells(m, 1.0 - dz / 2.0, dz / 2.5));
  auto targets =
      gather_centroids(m, extract_plane_cells(m, dz / 2.0, dz / 2.5));
  for (mesh::Vec3& p : targets) {
    p.z += 1.0 - dz;
  }
  return {std::move(donors), std::move(targets)};
}

TEST(Idw, TreeStencilsMatchBruteForce) {
  // Random 3-D clouds, with a few exact hits among the targets.
  const auto donors = random_points(700, 71);
  auto targets = random_points(300, 72);
  for (std::size_t i = 0; i < 10; ++i) {
    targets[i * 17] = donors[i * 61];
  }
  // A planar lattice (like an annulus interface: one z-plane) whose
  // spacing is exact in binary, so many donors tie in distance exactly;
  // targets on lattice points, cell centres and edge midpoints.
  std::vector<mesh::Vec3> lattice;
  for (int i = 0; i < 24; ++i) {
    for (int j = 0; j < 24; ++j) {
      lattice.push_back({0.25 * i, 0.25 * j, 1.5});
    }
  }
  std::vector<mesh::Vec3> lattice_targets;
  for (int i = 0; i < 46; i += 3) {
    for (int j = 0; j < 46; j += 2) {
      lattice_targets.push_back({0.125 * i, 0.125 * j, 1.5});
    }
  }
  // The same lattice after a sliding-plane rotation of the donor side.
  const auto turned = rotated(lattice, 0.0125);
  const std::vector<mesh::Vec3> few = {
      {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0}, {0.5, 0.5, 0}};
  // The coupled-rows interface with the donor side turned far from the
  // targets, where most of the tree lies near the worst candidate's
  // distance.
  const auto [band_donors, band_targets] = coupled_rows_interface();
  ASSERT_EQ(band_donors.size(), 16u * 96u);
  ASSERT_EQ(band_targets.size(), band_donors.size());
  const double degree = 3.14159265358979323846 / 180.0;
  const auto band60 = rotated(band_donors, 60.0 * degree);
  const auto band180 = rotated(band_donors, 180.0 * degree);
  const auto band240 = rotated(band_donors, 240.0 * degree);
  // A target cloud ten radii away from a random donor cloud.
  auto far_targets = random_points(300, 73);
  for (mesh::Vec3& p : far_targets) {
    p.x += 10.0 * std::sqrt(3.0);
  }

  struct Case {
    const char* name;
    const std::vector<mesh::Vec3>& donors;
    const std::vector<mesh::Vec3>& targets;
  };
  const Case cases[] = {{"random", donors, targets},
                        {"lattice", lattice, lattice_targets},
                        {"rotated lattice", turned, lattice_targets},
                        {"fewer donors than k", few, lattice_targets},
                        {"coupled-rows band at 60 degrees", band60,
                         band_targets},
                        {"coupled-rows band at 180 degrees", band180,
                         band_targets},
                        {"coupled-rows band at 240 degrees", band240,
                         band_targets},
                        {"far targets", donors, far_targets}};
  for (const Case& c : cases) {
    for (const int k : {1, 2, 4, 12}) {
      expect_same_stencils(build_idw_stencils(c.donors, c.targets, k),
                           brute_idw_stencils(c.donors, c.targets, k),
                           std::string(c.name) + " k=" + std::to_string(k));
    }
  }
}

TEST(RotateZ, PreservesRadiusAndZ) {
  const auto pts = random_points(100, 61);
  const auto turned = rotated(pts, 0.3);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double r0 = std::hypot(pts[i].x, pts[i].y);
    const double r1 = std::hypot(turned[i].x, turned[i].y);
    EXPECT_NEAR(r0, r1, 1e-12);
    EXPECT_DOUBLE_EQ(pts[i].z, turned[i].z);
  }
}

TEST(RotateZ, RejectsMismatchedOutput) {
  const auto pts = random_points(8, 63);
  std::vector<mesh::Vec3> short_out(7);
  EXPECT_THROW(rotate_z(pts, 0.3, short_out), CheckError);
  std::vector<mesh::Vec3> long_out(9);
  EXPECT_THROW(rotate_z(pts, 0.3, long_out), CheckError);
}

TEST(RotateZ, FullTurnIsIdentity) {
  const auto pts = random_points(20, 62);
  const auto turned = rotated(pts, 2.0 * 3.14159265358979323846);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_NEAR(pts[i].x, turned[i].x, 1e-9);
    EXPECT_NEAR(pts[i].y, turned[i].y, 1e-9);
  }
}

// --- Functional field coupling ---

TEST(FieldCoupler, ExtractsInterfaceBand) {
  const mesh::UnstructuredMesh m =
      mesh::make_annulus_mesh(6, 24, 10, 1.0, 2.0, 60.0, 1.0);
  // One axial layer of cells sits near z = 0.05 (dz = 0.1).
  const auto cells = extract_plane_cells(m, 0.05, 0.035);
  EXPECT_EQ(static_cast<int>(cells.size()), 6 * 24);
  for (mesh::CellId c : cells) {
    EXPECT_LT(std::abs(m.centroids()[static_cast<std::size_t>(c)].z - 0.05),
              0.05);
  }
}

TEST(FieldCoupler, TransfersConstantExactly) {
  const auto donors = random_points(400, 71);
  const auto targets = random_points(60, 72);
  FieldCoupler fc(donors, targets, InterfaceKind::kSteadyState);
  const std::vector<double> field(donors.size(), 7.5);
  std::vector<double> out(targets.size());
  fc.transfer(field, out);
  for (double v : out) {
    EXPECT_NEAR(v, 7.5, 1e-12);
  }
}

TEST(FieldCoupler, SteadyMapsOnceSlidingRemapsWhenMoved) {
  const auto donors = random_points(200, 73);
  const auto targets = random_points(50, 74);
  std::vector<double> field(donors.size(), 1.0);
  std::vector<double> out(targets.size());

  FieldCoupler steady(donors, targets, InterfaceKind::kSteadyState);
  steady.transfer(field, out);
  steady.transfer(field, out);
  steady.transfer(field, out);
  EXPECT_EQ(steady.remap_count(), 1);

  FieldCoupler sliding(donors, targets, InterfaceKind::kSlidingPlane);
  sliding.transfer(field, out);
  sliding.advance_rotation(0.01);
  sliding.transfer(field, out);
  sliding.advance_rotation(0.01);
  sliding.transfer(field, out);
  EXPECT_EQ(sliding.remap_count(), 3);
  // No motion between transfers: no remap.
  sliding.transfer(field, out);
  EXPECT_EQ(sliding.remap_count(), 3);
}

TEST(FieldCoupler, RotationallySymmetricFieldIsRotationInvariant) {
  // Donor field depending only on radius: transferring before and after a
  // donor-side rotation must give the same target values.
  const mesh::UnstructuredMesh donor_mesh =
      mesh::make_annulus_mesh(16, 96, 1, 1.0, 2.0, 360.0, 0.1);
  const mesh::UnstructuredMesh target_mesh =
      mesh::make_annulus_mesh(12, 72, 1, 1.0, 2.0, 360.0, 0.1, 77);
  const auto donors = donor_mesh.centroids();
  const auto targets = target_mesh.centroids();
  std::vector<double> field(donors.size());
  for (std::size_t i = 0; i < donors.size(); ++i) {
    field[i] = std::hypot(donors[i].x, donors[i].y);  // radius
  }
  FieldCoupler fc(donors, targets, InterfaceKind::kSlidingPlane);
  std::vector<double> before(targets.size());
  fc.transfer(field, before);
  fc.advance_rotation(0.37);
  std::vector<double> after(targets.size());
  fc.transfer(field, after);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    // Tolerance ~ the radial donor spacing: the rotated stencil samples
    // different donors, so values agree to interpolation accuracy.
    EXPECT_NEAR(before[t], after[t], 0.04) << "target " << t;
  }
}

TEST(FieldCoupler, StencilHashIsPinnedBitwise) {
  // The mapping is an output that must never move: donor choice (ties
  // included) and weight bits after a sliding-plane rotation, on two
  // interfaces — two different annulus meshes, and the exit/inlet bands of
  // one 3-D row as in the coupled-rows benchmark.
  const mesh::UnstructuredMesh donor_mesh =
      mesh::make_annulus_mesh(16, 96, 1, 1.0, 2.0, 360.0, 0.1);
  const mesh::UnstructuredMesh target_mesh =
      mesh::make_annulus_mesh(12, 72, 1, 1.0, 2.0, 360.0, 0.1, 77);
  FieldCoupler annuli(donor_mesh.centroids(), target_mesh.centroids(),
                      InterfaceKind::kSlidingPlane);
  std::vector<double> field(annuli.num_donors(), 1.0);
  std::vector<double> out(annuli.num_targets());
  annuli.advance_rotation(0.37);
  annuli.transfer(field, out);
  EXPECT_EQ(annuli.stencil_hash(), 0x76ef6b9833d78f55ULL);

  const mesh::UnstructuredMesh row =
      mesh::make_annulus_mesh(8, 48, 8, 1.0, 2.0, 30.0, 1.0, 9);
  const double dz = 1.0 / 8.0;
  const auto exit_cells = extract_plane_cells(row, 1.0 - dz / 2, dz / 2.5);
  const auto inlet_cells = extract_plane_cells(row, dz / 2, dz / 2.5);
  auto targets = gather_centroids(row, inlet_cells);
  for (auto& p : targets) {
    p.z += 1.0 - dz;
  }
  FieldCoupler plane(gather_centroids(row, exit_cells), targets,
                     InterfaceKind::kSlidingPlane);
  field.assign(plane.num_donors(), 1.0);
  out.assign(plane.num_targets(), 0.0);
  for (int step = 0; step < 3; ++step) {
    plane.advance_rotation(0.002);
    plane.transfer(field, out);
  }
  EXPECT_EQ(plane.stencil_hash(), 0x482fa3b530106154ULL);
}

TEST(FieldCoupler, SmoothFieldAccuracyAcrossMeshes) {
  // Transfer a smooth azimuthal field between two differently refined
  // annulus interfaces and check pointwise accuracy.
  const mesh::UnstructuredMesh donor_mesh =
      mesh::make_annulus_mesh(10, 96, 1, 1.0, 2.0, 360.0, 0.05);
  const mesh::UnstructuredMesh target_mesh =
      mesh::make_annulus_mesh(7, 64, 1, 1.0, 2.0, 360.0, 0.05, 5);
  const auto donors = donor_mesh.centroids();
  const auto targets = target_mesh.centroids();
  std::vector<double> field(donors.size());
  for (std::size_t i = 0; i < donors.size(); ++i) {
    field[i] = std::atan2(donors[i].y, donors[i].x);
  }
  FieldCoupler fc(donors, targets, InterfaceKind::kSteadyState);
  std::vector<double> out(targets.size());
  fc.transfer(field, out);
  int checked = 0;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const double expected = std::atan2(targets[t].y, targets[t].x);
    // Skip the branch cut of atan2.
    if (std::abs(expected) > 2.8) {
      continue;
    }
    EXPECT_NEAR(out[t], expected, 0.1) << "target " << t;
    ++checked;
  }
  EXPECT_GT(checked, 300);
}

TEST(FieldCoupler, RejectsBadUsage) {
  const auto donors = random_points(10, 81);
  const auto targets = random_points(10, 82);
  FieldCoupler steady(donors, targets, InterfaceKind::kSteadyState);
  EXPECT_THROW(steady.advance_rotation(0.1), CheckError);
  std::vector<double> small(3);
  std::vector<double> out(targets.size());
  EXPECT_THROW(steady.transfer(small, out), CheckError);
}

TEST(FieldCoupler, EndToEndCoupledRowsTransferPhysics) {
  // Integration: two real distributed Euler rows coupled through the
  // field coupler. Uniform flow must stay uniform (exact constant
  // transfer + free-stream fixed point); a density pulse at the upstream
  // exit must appear at the downstream inlet after transfer.
  const mesh::UnstructuredMesh row =
      mesh::make_annulus_mesh(5, 16, 8, 1.0, 2.0, 30.0, 1.0);
  const double dz = 1.0 / 8.0;
  mgcfd::EulerOptions euler;
  euler.cfl = 0.4;
  mgcfd::DistributedSolver upstream(row, 3, euler);
  mgcfd::DistributedSolver downstream(row, 3, euler);
  const mgcfd::State inf = mgcfd::freestream(0.4, 1.0, 1.0, {0, 0, 1});
  upstream.set_uniform(inf);
  downstream.set_uniform(inf);

  const auto exit_cells = extract_plane_cells(row, 1.0 - dz / 2, dz / 2.5);
  const auto inlet_cells = extract_plane_cells(row, dz / 2, dz / 2.5);
  ASSERT_FALSE(exit_cells.empty());
  auto targets = gather_centroids(row, inlet_cells);
  for (auto& p : targets) {
    p.z += 1.0 - dz;
  }
  FieldCoupler fc(gather_centroids(row, exit_cells), targets,
                  InterfaceKind::kSteadyState);

  const auto couple_once = [&]() {
    const auto u = upstream.gather_solution();
    std::vector<double> donor(exit_cells.size());
    std::vector<double> target(inlet_cells.size());
    std::vector<mgcfd::State> states(inlet_cells.size());
    for (int k = 0; k < 5; ++k) {
      for (std::size_t i = 0; i < exit_cells.size(); ++i) {
        donor[i] = u[static_cast<std::size_t>(exit_cells[i])]
                    [static_cast<std::size_t>(k)];
      }
      fc.transfer(donor, target);
      for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
        states[i][static_cast<std::size_t>(k)] = target[i];
      }
    }
    for (std::size_t i = 0; i < inlet_cells.size(); ++i) {
      downstream.set_cell(inlet_cells[i], states[i]);
    }
  };

  // Phase 1: uniform flow stays uniform under coupling.
  for (int s = 0; s < 5; ++s) {
    upstream.step();
    downstream.step();
    couple_once();
  }
  for (const mgcfd::State& u : downstream.gather_solution()) {
    for (int k = 0; k < 5; ++k) {
      EXPECT_NEAR(u[static_cast<std::size_t>(k)],
                  inf[static_cast<std::size_t>(k)], 1e-9);
    }
  }

  // Phase 2: a pulse at the upstream exit crosses the interface.
  for (mesh::CellId c : exit_cells) {
    mgcfd::State bumped = inf;
    bumped[0] *= 1.05;
    bumped[4] *= 1.05;
    upstream.set_cell(c, bumped);
  }
  upstream.step();
  downstream.step();
  couple_once();
  double inlet_rho = 0.0;
  const auto d = downstream.gather_solution();
  for (mesh::CellId c : inlet_cells) {
    inlet_rho += d[static_cast<std::size_t>(c)][0];
  }
  inlet_rho /= static_cast<double>(inlet_cells.size());
  EXPECT_GT(inlet_rho, 1.02 * inf[0]);
}

// --- Coupler unit on the virtual cluster ---

struct UnitFixture {
  sim::Cluster cluster{sim::MachineModel::archer2(), 300};
  mgcfd::Instance a{"a", 8'000'000, {0, 128}};
  mgcfd::Instance b{"b", 8'000'000, {128, 256}};
};

TEST(CouplerUnit, ExchangeAdvancesClocksOnBothSides) {
  UnitFixture f;
  UnitConfig cfg;
  cfg.interface_cells = 50'000;
  CouplerUnit cu("cu_test", cfg, {256, 300}, f.a, f.b);
  cu.exchange(f.cluster);
  EXPECT_GT(f.cluster.clock(0), 0.0);    // side A boundary
  EXPECT_GT(f.cluster.clock(128), 0.0);  // side B boundary
  EXPECT_GT(f.cluster.clock(256), 0.0);  // CU rank
}

TEST(CouplerUnit, SlidingRemapsEveryExchangeSteadyOnlyOnce) {
  UnitFixture fs;
  UnitConfig sliding;
  sliding.kind = InterfaceKind::kSlidingPlane;
  sliding.interface_cells = 200'000;
  CouplerUnit cu_s("cu_s", sliding, {256, 300}, fs.a, fs.b);
  cu_s.exchange(fs.cluster);
  const double t1 = fs.cluster.max_clock({256, 300});
  cu_s.exchange(fs.cluster);
  const double sliding_second = fs.cluster.max_clock({256, 300}) - t1;

  UnitFixture ft;
  UnitConfig steady = sliding;
  steady.kind = InterfaceKind::kSteadyState;
  CouplerUnit cu_t("cu_t", steady, {256, 300}, ft.a, ft.b);
  cu_t.exchange(ft.cluster);
  const double u1 = ft.cluster.max_clock({256, 300});
  cu_t.exchange(ft.cluster);
  const double steady_second = ft.cluster.max_clock({256, 300}) - u1;

  // After the first exchange the steady interface skips the mapping.
  EXPECT_LT(steady_second, 0.8 * sliding_second);
}

TEST(CouplerUnit, TreeSearchBeatsBruteForce) {
  UnitFixture f;
  UnitConfig tree;
  tree.interface_cells = 500'000;
  tree.tree_search = true;
  UnitConfig brute = tree;
  brute.tree_search = false;
  CouplerUnit cu_tree("cu_tree", tree, {256, 300}, f.a, f.b);
  CouplerUnit cu_brute("cu_brute", brute, {256, 300}, f.a, f.b);
  const double t_tree = cu_tree.mapping_seconds(f.cluster);
  const double t_brute = cu_brute.mapping_seconds(f.cluster);
  EXPECT_GT(t_brute / t_tree, 100.0);
}

TEST(CouplerUnit, MoreCuRanksCutMappingTime) {
  UnitFixture f;
  UnitConfig cfg;
  cfg.interface_cells = 500'000;
  CouplerUnit small("cu1", cfg, {256, 260}, f.a, f.b);
  CouplerUnit large("cu2", cfg, {256, 300}, f.a, f.b);
  EXPECT_GT(small.mapping_seconds(f.cluster),
            5.0 * large.mapping_seconds(f.cluster));
}

TEST(CouplerUnit, ResetRestoresMappingLatch) {
  UnitFixture f;
  UnitConfig steady;
  steady.kind = InterfaceKind::kSteadyState;
  steady.interface_cells = 200'000;
  CouplerUnit cu("cu", steady, {256, 300}, f.a, f.b);
  cu.exchange(f.cluster);
  const double t1 = f.cluster.max_clock({256, 300});
  cu.reset();
  cu.exchange(f.cluster);
  // Second exchange remaps again after reset, costing as much compute.
  const double second = f.cluster.max_clock({256, 300}) - t1;
  EXPECT_GT(second, 0.5 * t1);
}

TEST(CouplerUnit, VirtualTimeAndTrafficArePinnedBitwise) {
  // The CU's messages exist only on the virtual cluster, so its clock,
  // traffic and hidden-comm bits are outputs that must never move: a
  // sliding and a steady unit, three exchanges each, overlap off and on.
  // Literals recorded when the unit still posted through a communicator.
  struct Pin {
    InterfaceKind kind;
    bool overlap;
    std::uint64_t clock_bits[3];  ///< max_clock() after each exchange
    std::uint64_t hidden_bits;    ///< comm_hidden_seconds() after three
  };
  constexpr Pin kPins[] = {
      {InterfaceKind::kSlidingPlane,
       false,
       {0x3f601a2aab11fb0aULL, 0x3f70191e3b97efaaULL, 0x3f78252721a6e1caULL},
       0},
      {InterfaceKind::kSlidingPlane,
       true,
       {0x3f5aebab9926aa23ULL, 0x3f692ecf9ab2955eULL, 0x3f7273e4b468ead2ULL},
       0x3faf4eed58d4ce75ULL},
      {InterfaceKind::kSteadyState,
       false,
       {0x3f601a2aab11fb0aULL, 0x3f6bd32479313b56ULL, 0x3f73c60f23a83dcdULL},
       0},
      {InterfaceKind::kSteadyState,
       true,
       {0x3f5aebab9926aa23ULL, 0x3f692ecf9ab2955eULL, 0x3f7273e4b468ead2ULL},
       0x3f8d0fa58f7121a9ULL},
  };
  for (const Pin& pin : kPins) {
    UnitFixture f;
    UnitConfig cfg;
    cfg.kind = pin.kind;
    cfg.interface_cells = 200'000;
    CouplerUnit cu("cu", cfg, {256, 300}, f.a, f.b);
    cu.set_overlap(pin.overlap);
    const std::string label =
        std::string(pin.kind == InterfaceKind::kSteadyState ? "steady"
                                                            : "sliding") +
        (pin.overlap ? " overlap" : " sync");
    for (int i = 0; i < 3; ++i) {
      cu.exchange(f.cluster);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(f.cluster.max_clock()),
                pin.clock_bits[i])
          << label << " exchange " << i + 1 << ": " << std::hexfloat
          << f.cluster.max_clock();
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(f.cluster.comm_hidden_seconds(
                  {0, f.cluster.num_ranks()})),
              pin.hidden_bits)
        << label;
    // Gather senders, scatter senders (the CU) and the traffic total.
    EXPECT_EQ(f.cluster.comm_bytes({0, 128}), 24'000'000U) << label;
    EXPECT_EQ(f.cluster.comm_messages({0, 128}), 384) << label;
    EXPECT_EQ(f.cluster.comm_bytes({128, 256}), 24'000'000U) << label;
    EXPECT_EQ(f.cluster.comm_messages({128, 256}), 384) << label;
    EXPECT_EQ(f.cluster.comm_bytes({256, 300}), 47'999'232U) << label;
    EXPECT_EQ(f.cluster.comm_messages({256, 300}), 768) << label;
  }
}

TEST(CouplerUnit, EndpointsOutsideTheClusterAreRejected) {
  // Side B's ranks [128, 256) lie past a 100-rank cluster: the first
  // exchange on it throws before any clock moves.
  UnitFixture f;
  sim::Cluster small(sim::MachineModel::archer2(), 100);
  CouplerUnit cu("cu", UnitConfig{}, {0, 4}, f.a, f.b);
  EXPECT_THROW(cu.exchange(small), CheckError);
  EXPECT_EQ(small.max_clock(), 0.0);
  cu.exchange(f.cluster);  // a cluster holding every endpoint binds
  EXPECT_GT(f.cluster.max_clock(), 0.0);
}

}  // namespace
}  // namespace cpx::coupler
