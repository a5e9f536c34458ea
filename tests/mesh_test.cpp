// Tests for meshes, partitioning, halos, and the analytic
// partition-statistics model (including its validation against measured
// RCB partitions — the property the paper-scale runs depend on).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>

#include "mesh/mesh.hpp"
#include "mesh/partition.hpp"
#include "mesh/stats.hpp"
#include "reference_mesh.hpp"
#include "support/check.hpp"

namespace cpx::mesh {
namespace {

using testing::measure_partition_stats;

/// Dual-graph degree of every cell, counted from the edge list.
std::vector<int> degrees(const UnstructuredMesh& m) {
  std::vector<int> d(static_cast<std::size_t>(m.num_cells()), 0);
  for (const Edge& e : m.edges()) {
    ++d[static_cast<std::size_t>(e.a)];
    ++d[static_cast<std::size_t>(e.b)];
  }
  return d;
}

TEST(Mesh, BoxMeshCountsAndDegrees) {
  const UnstructuredMesh m = make_box_mesh(4, 3, 2);
  EXPECT_EQ(m.num_cells(), 24);
  // Edge count of a structured box: 3*n - boundary deficits.
  EXPECT_EQ(m.num_edges(), (4 - 1) * 3 * 2 + 4 * (3 - 1) * 2 + 4 * 3 * (2 - 1));
  // Interior cell of a big box has degree 6.
  const std::vector<int> big = degrees(make_box_mesh(5, 5, 5));
  EXPECT_NE(std::find(big.begin(), big.end(), 6), big.end());
}

TEST(Mesh, JitterIsDeterministic) {
  const UnstructuredMesh a = make_box_mesh(3, 3, 3, 99);
  const UnstructuredMesh b = make_box_mesh(3, 3, 3, 99);
  for (std::size_t i = 0; i < a.centroids().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.centroids()[i].x, b.centroids()[i].x);
  }
  const UnstructuredMesh c = make_box_mesh(3, 3, 3, 100);
  EXPECT_NE(a.centroids()[0].x, c.centroids()[0].x);
}

TEST(Mesh, AnnulusMeshGeometry) {
  const UnstructuredMesh m =
      make_annulus_mesh(8, 16, 4, 1.0, 2.0, 30.0, 0.5);
  EXPECT_EQ(m.num_cells(), 8 * 16 * 4);
  for (const Vec3& p : m.centroids()) {
    const double r = std::sqrt(p.x * p.x + p.y * p.y);
    EXPECT_GT(r, 0.9);
    EXPECT_LT(r, 2.1);
  }
  m.validate();
}

TEST(Mesh, FullWheelAnnulusHasPeriodicEdges) {
  const UnstructuredMesh wedge =
      make_annulus_mesh(4, 16, 2, 1.0, 2.0, 90.0, 0.5);
  const UnstructuredMesh wheel =
      make_annulus_mesh(4, 16, 2, 1.0, 2.0, 360.0, 0.5);
  // Same cell counts, but the wheel closes the azimuthal direction.
  EXPECT_EQ(wedge.num_cells(), wheel.num_cells());
  EXPECT_GT(wheel.num_edges(), wedge.num_edges());
}

TEST(Mesh, BoxEdgeNormalsAreUnitAndPointFromAToB) {
  // The jitter stays below half a cell, so each face normal must point
  // from its edge's first cell towards its second.
  const UnstructuredMesh m = make_box_mesh(5, 4, 3, 7);
  for (const Edge& e : m.edges()) {
    const Vec3& n = e.normal;
    EXPECT_DOUBLE_EQ(n.x * n.x + n.y * n.y + n.z * n.z, 1.0);
    const Vec3& ca = m.centroids()[static_cast<std::size_t>(e.a)];
    const Vec3& cb = m.centroids()[static_cast<std::size_t>(e.b)];
    const double along = (cb.x - ca.x) * n.x + (cb.y - ca.y) * n.y +
                         (cb.z - ca.z) * n.z;
    EXPECT_GT(along, 0.5) << "edge " << e.a << "-" << e.b;
    EXPECT_EQ(e.area, 1.0);
  }
}

TEST(Mesh, PeriodicBoxIsSixRegularWithoutDuplicateEdges) {
  const UnstructuredMesh m = make_box_mesh(4, 3, 5, 42, /*periodic=*/true);
  EXPECT_EQ(m.num_edges(), 3 * m.num_cells());
  const std::vector<int> d = degrees(m);
  for (std::size_t c = 0; c < d.size(); ++c) {
    EXPECT_EQ(d[c], 6) << "cell " << c;
  }
  std::set<std::pair<CellId, CellId>> unique;
  for (const Edge& e : m.edges()) {
    unique.insert({std::min(e.a, e.b), std::max(e.a, e.b)});
  }
  EXPECT_EQ(static_cast<std::int64_t>(unique.size()), m.num_edges());
}

TEST(Mesh, PeriodicWrapNeedsMoreThanTwoCellsPerDirection) {
  // With two cells along an axis the wrap edge would repeat the interior
  // one, so that axis stays open; the others still wrap.
  const UnstructuredMesh open = make_box_mesh(2, 3, 3);
  const UnstructuredMesh wrapped = make_box_mesh(2, 3, 3, 42, true);
  EXPECT_EQ(wrapped.num_edges(),
            open.num_edges() + 2 * 3 /*y wrap*/ + 2 * 3 /*z wrap*/);
  std::set<std::pair<CellId, CellId>> unique;
  for (const Edge& e : wrapped.edges()) {
    unique.insert({std::min(e.a, e.b), std::max(e.a, e.b)});
  }
  EXPECT_EQ(static_cast<std::int64_t>(unique.size()), wrapped.num_edges());
}

TEST(Mesh, AnnulusVolumesSumToTheSectorVolume) {
  // Each cell's volume is r dr dtheta dz at its (jittered) radius, so the
  // total differs from the sector's pi (ro^2 - ri^2) (deg/360) L by at most
  // the jitter bound, 0.1 dr per cell.
  constexpr int kNr = 6;
  constexpr int kNtheta = 10;
  constexpr int kNz = 4;
  constexpr double kRi = 1.0;
  constexpr double kRo = 2.5;
  constexpr double kDeg = 45.0;
  constexpr double kLen = 0.8;
  const UnstructuredMesh m =
      make_annulus_mesh(kNr, kNtheta, kNz, kRi, kRo, kDeg, kLen);
  double total = 0.0;
  for (double v : m.volumes()) {
    total += v;
  }
  const double pi = 3.14159265358979323846;
  const double dtheta = kDeg * pi / 180.0 / kNtheta;
  const double dr = (kRo - kRi) / kNr;
  const double dz = kLen / kNz;
  const double sector = 0.5 * (kRo * kRo - kRi * kRi) * kDeg * pi / 180.0 *
                        kLen;
  const double bound =
      static_cast<double>(m.num_cells()) * 0.1 * dr * dr * dtheta * dz;
  EXPECT_NEAR(total, sector, bound);
  EXPECT_LT(bound, 0.02 * sector);
}

TEST(Partition, RcbBalancesCells) {
  const UnstructuredMesh m = make_box_mesh(20, 20, 20);
  for (int parts : {2, 3, 7, 16}) {
    const Partitioning p = partition_rcb(m, parts);
    std::int64_t mn = m.num_cells();
    std::int64_t mx = 0;
    for (int i = 0; i < parts; ++i) {
      const std::int64_t c = p.owned_count(i);
      mn = std::min(mn, c);
      mx = std::max(mx, c);
    }
    EXPECT_GT(mn, 0);
    // RCB with proportional splits is near-perfectly balanced.
    EXPECT_LE(static_cast<double>(mx) / static_cast<double>(mn), 1.05)
        << "parts=" << parts;
  }
}

TEST(Partition, EveryCellAssigned) {
  const UnstructuredMesh m = make_box_mesh(10, 10, 10);
  const Partitioning p = partition_rcb(m, 8);
  for (int part : p.part_of) {
    EXPECT_GE(part, 0);
    EXPECT_LT(part, 8);
  }
}

TEST(Partition, LocalMeshesCoverAllEdges) {
  const UnstructuredMesh m = make_box_mesh(12, 12, 12);
  const Partitioning p = partition_rcb(m, 8);
  const auto locals = extract_local_meshes(m, p);
  ASSERT_EQ(locals.size(), 8u);
  std::int64_t owned_total = 0;
  std::int64_t interior_edges = 0;
  std::int64_t cut_edges = 0;
  for (const LocalMesh& lm : locals) {
    owned_total += lm.num_owned();
    for (const auto& e : lm.edges) {
      const bool a_ghost = e.a >= lm.num_owned();
      const bool b_ghost = e.b >= lm.num_owned();
      EXPECT_FALSE(a_ghost && b_ghost);
      if (a_ghost || b_ghost) {
        ++cut_edges;
      } else {
        ++interior_edges;
      }
    }
  }
  EXPECT_EQ(owned_total, m.num_cells());
  // Each cut edge appears in exactly two parts.
  EXPECT_EQ(interior_edges + cut_edges / 2, m.num_edges());
  EXPECT_EQ(cut_edges % 2, 0);
}

TEST(Partition, SendListsMatchRecvCounts) {
  const UnstructuredMesh m = make_box_mesh(10, 10, 10);
  const Partitioning p = partition_rcb(m, 6);
  const auto locals = extract_local_meshes(m, p);
  const auto send_count_to = [&](int from_part, int to_part) -> std::int64_t {
    for (const auto& s : locals[static_cast<std::size_t>(from_part)].sends) {
      if (s.neighbor == to_part) {
        return static_cast<std::int64_t>(s.cells.size());
      }
    }
    ADD_FAILURE() << "no send list from " << from_part << " to " << to_part;
    return -1;
  };
  for (const LocalMesh& lm : locals) {
    ASSERT_EQ(lm.sends.size(), lm.recvs.size());
    for (const auto& rc : lm.recvs) {
      // My ghost count from a neighbour == that neighbour's send list to me.
      EXPECT_EQ(rc.count, send_count_to(rc.neighbor, lm.part));
    }
    // Ghost total matches sum of recv counts.
    std::int64_t recv_total = 0;
    for (const auto& rc : lm.recvs) {
      recv_total += rc.count;
    }
    EXPECT_EQ(recv_total, lm.num_ghosts());
  }
}

TEST(Partition, HaloShrinksRelativeToOwnedAsPartsGrow) {
  const UnstructuredMesh m = make_box_mesh(24, 24, 24);
  const PartitionStats s8 = measure_partition_stats(m, partition_rcb(m, 8));
  const PartitionStats s64 =
      measure_partition_stats(m, partition_rcb(m, 64));
  // Surface-to-volume: owned shrinks by 8x, halo only by ~4x.
  EXPECT_LT(s64.owned_mean, s8.owned_mean / 7.0);
  EXPECT_GT(s64.halo_mean, s8.halo_mean / 5.0);
}

TEST(PartitionStats, AnalyticMatchesMeasuredWithin35Percent) {
  // The analytic surface model must track real RCB partitions well enough
  // to drive the performance model at unmeasurable scales.
  const UnstructuredMesh m = make_box_mesh(32, 32, 32);
  for (int parts : {8, 16, 64}) {
    const PartitionStats measured =
        measure_partition_stats(m, partition_rcb(m, parts));
    const PartitionStats analytic =
        PartitionStats::analytic(m.num_cells(), parts);
    EXPECT_NEAR(analytic.owned_mean, measured.owned_mean,
                0.01 * measured.owned_mean);
    EXPECT_NEAR(analytic.halo_mean, measured.halo_mean,
                0.35 * measured.halo_mean)
        << "parts=" << parts;
  }
}

TEST(PartitionStats, SinglePartHasNoHalo) {
  const PartitionStats s = PartitionStats::analytic(1'000'000, 1);
  EXPECT_EQ(s.halo_mean, 0.0);
  EXPECT_EQ(s.neighbors_mean, 0.0);
}

TEST(PartitionStats, HaloCappedByRemoteCells) {
  // Tiny mesh, many parts: halo cannot exceed what exists.
  const PartitionStats s = PartitionStats::analytic(100, 50);
  EXPECT_LE(s.halo_mean, 98.0);
}

TEST(Mesh, RejectsInvalidConstruction) {
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}};
  std::vector<double> vols = {1.0, 1.0};
  std::vector<Edge> bad_edge = {{0, 5, 1.0, {1, 0, 0}}};
  EXPECT_THROW(UnstructuredMesh(pts, vols, bad_edge), CheckError);
  std::vector<Edge> self_edge = {{1, 1, 1.0, {1, 0, 0}}};
  EXPECT_THROW(UnstructuredMesh(pts, vols, self_edge), CheckError);
  std::vector<double> bad_vols = {1.0, -1.0};
  EXPECT_THROW(UnstructuredMesh(pts, bad_vols, {}), CheckError);
  std::vector<double> one_vol = {1.0};
  EXPECT_THROW(UnstructuredMesh(pts, one_vol, {}), CheckError);
}

TEST(Mesh, RejectsNonPositiveFaceArea) {
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}};
  std::vector<double> vols = {1.0, 1.0};
  std::vector<Edge> flat = {{0, 1, 0.0, {1, 0, 0}}};
  EXPECT_THROW(UnstructuredMesh(pts, vols, flat), CheckError);
  EXPECT_NO_THROW(UnstructuredMesh(pts, vols, {{0, 1, 1.0, {1, 0, 0}}}));
}

TEST(Partition, RejectsMorePartsThanCells) {
  const UnstructuredMesh m = make_box_mesh(2, 2, 1);
  EXPECT_THROW(partition_rcb(m, 10), CheckError);
}

}  // namespace
}  // namespace cpx::mesh
