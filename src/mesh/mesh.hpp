#pragma once
// Unstructured mesh representation and synthetic generators.
//
// MG-CFD (and the production density solver it proxies) is an edge-based
// finite-volume code: unknowns live on cells, fluxes are accumulated over
// the edges of the dual graph. We therefore store a mesh as cells with 3-D
// centroids and volumes plus an undirected edge list with face areas.
//
// The paper's meshes (NASA Rotor37 rows, Rolls-Royce engine sectors,
// 8M-380M cells) are proprietary; we generate synthetic equivalents — a
// box mesh and an annulus-sector mesh with the aspect ratio of a blade-row
// passage — whose partition statistics (surface-to-volume of RCB parts,
// neighbour counts) drive the performance behaviour. Sizes too large to
// instantiate are handled analytically by PartitionStats (stats.hpp).

#include <cstdint>
#include <vector>

namespace cpx::mesh {

using CellId = std::int64_t;

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;
};

/// Undirected edge of the dual graph between two cells.
struct Edge {
  CellId a = 0;
  CellId b = 0;
  double area = 1.0;       ///< shared face area (flux weight)
  Vec3 normal{1.0, 0.0, 0.0};  ///< unit face normal (a -> b)
};

class UnstructuredMesh {
 public:
  UnstructuredMesh() = default;
  UnstructuredMesh(std::vector<Vec3> centroids, std::vector<double> volumes,
                   std::vector<Edge> edges);

  std::int64_t num_cells() const {
    return static_cast<std::int64_t>(centroids_.size());
  }
  std::int64_t num_edges() const {
    return static_cast<std::int64_t>(edges_.size());
  }

  const std::vector<Vec3>& centroids() const { return centroids_; }
  const std::vector<double>& volumes() const { return volumes_; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Validates internal consistency (edge endpoints in range, positive
  /// volumes/areas). Throws CheckError on violation.
  void validate() const;

 private:
  std::vector<Vec3> centroids_;
  std::vector<double> volumes_;
  std::vector<Edge> edges_;
};

/// Structured box mesh of nx*ny*nz cells with 6-point stencil connectivity,
/// jittered centroids (deterministic from `seed`) so spatial partitioners
/// see realistic, non-degenerate coordinates. With `periodic` true, wrap
/// edges close every direction (a 3-torus: no boundary, so finite-volume
/// schemes conserve exactly).
UnstructuredMesh make_box_mesh(int nx, int ny, int nz, std::uint64_t seed = 42,
                               bool periodic = false);

/// Annulus-sector mesh: nr radial x ntheta azimuthal x nz axial cells
/// spanning [r_inner, r_outer] and a `sector_degrees` wedge — the shape of
/// a blade-row passage. Connectivity is the 6-point cylindrical stencil.
UnstructuredMesh make_annulus_mesh(int nr, int ntheta, int nz, double r_inner,
                                   double r_outer, double sector_degrees,
                                   double length, std::uint64_t seed = 42);

}  // namespace cpx::mesh
