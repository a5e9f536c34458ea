#include "mesh/mesh.hpp"

#include <cmath>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace cpx::mesh {

UnstructuredMesh::UnstructuredMesh(std::vector<Vec3> centroids,
                                   std::vector<double> volumes,
                                   std::vector<Edge> edges)
    : centroids_(std::move(centroids)),
      volumes_(std::move(volumes)),
      edges_(std::move(edges)) {
  CPX_REQUIRE(centroids_.size() == volumes_.size(),
              "UnstructuredMesh: centroid/volume count mismatch");
  validate();
}

void UnstructuredMesh::validate() const {
  const auto n = num_cells();
  for (const Edge& e : edges_) {
    CPX_CHECK_MSG(e.a >= 0 && e.a < n && e.b >= 0 && e.b < n,
                  "edge endpoint out of range: " << e.a << "-" << e.b);
    CPX_CHECK_MSG(e.a != e.b, "self-edge at cell " << e.a);
    CPX_CHECK_MSG(e.area > 0.0, "non-positive face area");
  }
  for (double v : volumes_) {
    CPX_CHECK_MSG(v > 0.0, "non-positive cell volume");
  }
}

namespace {

/// Deterministic per-cell jitter in [-amp, amp].
double jitter(std::uint64_t seed, std::int64_t cell, int axis, double amp) {
  const std::uint64_t h =
      hash_mix(seed, static_cast<std::uint64_t>(cell),
               static_cast<std::uint64_t>(axis) + 0x1234);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0,1)
  return amp * (2.0 * u - 1.0);
}

}  // namespace

UnstructuredMesh make_box_mesh(int nx, int ny, int nz, std::uint64_t seed,
                               bool periodic) {
  CPX_REQUIRE(nx >= 1 && ny >= 1 && nz >= 1, "make_box_mesh: bad dims");
  const std::int64_t n = static_cast<std::int64_t>(nx) * ny * nz;
  std::vector<Vec3> centroids(static_cast<std::size_t>(n));
  std::vector<double> volumes(static_cast<std::size_t>(n), 1.0);
  const auto index = [&](int i, int j, int k) {
    return (static_cast<std::int64_t>(k) * ny + j) * nx + i;
  };
  constexpr double kJitterAmp = 0.15;  // < 0.5 keeps ordering monotone
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::int64_t c = index(i, j, k);
        centroids[static_cast<std::size_t>(c)] = {
            i + 0.5 + jitter(seed, c, 0, kJitterAmp),
            j + 0.5 + jitter(seed, c, 1, kJitterAmp),
            k + 0.5 + jitter(seed, c, 2, kJitterAmp)};
      }
    }
  }
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(3 * n));
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const std::int64_t c = index(i, j, k);
        if (i + 1 < nx) {
          edges.push_back({c, index(i + 1, j, k), 1.0, {1.0, 0.0, 0.0}});
        } else if (periodic && nx > 2) {
          edges.push_back({c, index(0, j, k), 1.0, {1.0, 0.0, 0.0}});
        }
        if (j + 1 < ny) {
          edges.push_back({c, index(i, j + 1, k), 1.0, {0.0, 1.0, 0.0}});
        } else if (periodic && ny > 2) {
          edges.push_back({c, index(i, 0, k), 1.0, {0.0, 1.0, 0.0}});
        }
        if (k + 1 < nz) {
          edges.push_back({c, index(i, j, k + 1), 1.0, {0.0, 0.0, 1.0}});
        } else if (periodic && nz > 2) {
          edges.push_back({c, index(i, j, 0), 1.0, {0.0, 0.0, 1.0}});
        }
      }
    }
  }
  return UnstructuredMesh(std::move(centroids), std::move(volumes),
                          std::move(edges));
}

UnstructuredMesh make_annulus_mesh(int nr, int ntheta, int nz, double r_inner,
                                   double r_outer, double sector_degrees,
                                   double length, std::uint64_t seed) {
  CPX_REQUIRE(nr >= 1 && ntheta >= 1 && nz >= 1, "make_annulus_mesh: bad dims");
  CPX_REQUIRE(r_outer > r_inner && r_inner > 0.0,
              "make_annulus_mesh: bad radii");
  CPX_REQUIRE(sector_degrees > 0.0 && sector_degrees <= 360.0,
              "make_annulus_mesh: bad sector");
  const std::int64_t n = static_cast<std::int64_t>(nr) * ntheta * nz;
  const double dr = (r_outer - r_inner) / nr;
  const double dtheta = sector_degrees * (3.14159265358979323846 / 180.0) /
                        ntheta;
  const double dz = length / nz;
  const bool full_wheel = sector_degrees >= 360.0 - 1e-9 && ntheta > 2;

  std::vector<Vec3> centroids(static_cast<std::size_t>(n));
  std::vector<double> volumes(static_cast<std::size_t>(n));
  const auto index = [&](int ir, int it, int iz) {
    return (static_cast<std::int64_t>(iz) * ntheta + it) * nr + ir;
  };
  constexpr double kJitterFrac = 0.1;
  for (int iz = 0; iz < nz; ++iz) {
    for (int it = 0; it < ntheta; ++it) {
      for (int ir = 0; ir < nr; ++ir) {
        const std::int64_t c = index(ir, it, iz);
        const double r = r_inner + (ir + 0.5) * dr +
                         jitter(seed, c, 0, kJitterFrac * dr);
        const double theta =
            (it + 0.5) * dtheta + jitter(seed, c, 1, kJitterFrac * dtheta);
        const double z =
            (iz + 0.5) * dz + jitter(seed, c, 2, kJitterFrac * dz);
        centroids[static_cast<std::size_t>(c)] = {r * std::cos(theta),
                                                  r * std::sin(theta), z};
        volumes[static_cast<std::size_t>(c)] = r * dr * dtheta * dz;
      }
    }
  }

  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(3 * n));
  for (int iz = 0; iz < nz; ++iz) {
    for (int it = 0; it < ntheta; ++it) {
      for (int ir = 0; ir < nr; ++ir) {
        const std::int64_t c = index(ir, it, iz);
        const double r = r_inner + (ir + 0.5) * dr;
        if (ir + 1 < nr) {
          edges.push_back({c, index(ir + 1, it, iz), r * dtheta * dz,
                           {1.0, 0.0, 0.0}});
        }
        if (it + 1 < ntheta) {
          edges.push_back({c, index(ir, it + 1, iz), dr * dz,
                           {0.0, 1.0, 0.0}});
        } else if (full_wheel) {
          edges.push_back({c, index(ir, 0, iz), dr * dz, {0.0, 1.0, 0.0}});
        }
        if (iz + 1 < nz) {
          edges.push_back({c, index(ir, it, iz + 1), r * dr * dtheta,
                           {0.0, 0.0, 1.0}});
        }
      }
    }
  }
  return UnstructuredMesh(std::move(centroids), std::move(volumes),
                          std::move(edges));
}

}  // namespace cpx::mesh
