#pragma once
// Functional field coupling: the data-plane counterpart of the coupler-
// unit performance model. Extracts interface point sets from meshes,
// builds interpolation stencils through the k-d tree, transfers real
// fields, and — for sliding-plane interfaces — tracks the rotor/stator
// rotation, rebuilding the mapping whenever the relative position has
// changed (the per-timestep remap whose cost §II-A discusses). The remap
// rotates, rebuilds the tree and refills the stencils in buffers the
// coupler keeps, so a warm one touches no heap.

#include <cstdint>
#include <span>
#include <vector>

#include "cpx/interpolation.hpp"
#include "cpx/unit.hpp"
#include "mesh/mesh.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::coupler {

/// Cells of `mesh` whose centroid lies within `tolerance` of the axial
/// plane z = z_plane — the interface band of a blade-row coupling.
std::vector<mesh::CellId> extract_plane_cells(
    const mesh::UnstructuredMesh& mesh, double z_plane, double tolerance);

/// Centroids of the given cells.
std::vector<mesh::Vec3> gather_centroids(const mesh::UnstructuredMesh& mesh,
                                         std::span<const mesh::CellId> cells);

class FieldCoupler {
 public:
  /// Builds a coupler transferring donor-side fields onto target points.
  /// For kSlidingPlane the donor side rotates about z (advance_rotation);
  /// for kSteadyState the mapping is computed once and reused.
  FieldCoupler(std::vector<mesh::Vec3> donor_points,
               std::vector<mesh::Vec3> target_points, InterfaceKind kind,
               int stencil_size = 4);

  std::size_t num_donors() const { return donors_.size(); }
  std::size_t num_targets() const { return targets_.size(); }

  /// Advances the donor side's rotation about the z axis (radians). Only
  /// meaningful for sliding-plane interfaces.
  void advance_rotation(double radians);
  double rotation() const { return rotation_; }

  /// Interpolates donor_field (per donor point) onto target_field (per
  /// target point), remapping first if the interface moved.
  void transfer(std::span<const double> donor_field,
                std::span<double> target_field);

  /// Number of times the mapping has been (re)built — 1 after the first
  /// transfer for steady interfaces, once per moved transfer for sliding.
  int remap_count() const { return remap_count_; }

  /// Order-sensitive 64-bit digest of the current stencils (donor ids and
  /// weight bit patterns). The snapshot stores it instead of the stencils
  /// themselves; restore rebuilds the mapping and validates against it.
  std::uint64_t stencil_hash() const;

  /// Snapshot section "coupler/field" (docs/checkpoint.md): rotation
  /// state, remap counter, and the stencil digest. The stencils are a
  /// deterministic function of the geometry and the last-mapped rotation,
  /// so restore rebuilds them and throws CheckError if the digest of the
  /// rebuilt mapping disagrees with the stored one.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  void remap();

  std::vector<mesh::Vec3> donors_;       // geometry
  std::vector<mesh::Vec3> targets_;      // geometry
  InterfaceKind kind_;
  int stencil_size_;
  double rotation_ = 0.0;
  double mapped_rotation_ = -1.0;  ///< rotation at last remap (-1 = never)
  int remap_count_ = 0;
  // The mapping, rebuilt in place by every remap: the donor side at the
  // mapped rotation, the tree over it, the stencils and the per-lane query
  // scratch. A warm remap allocates nothing.
  std::vector<mesh::Vec3> rotated_;  // cpx-lint: allow(ckpt)
  KdTree tree_;                      // cpx-lint: allow(ckpt)
  std::vector<Stencil> stencils_;    // cpx-lint: allow(ckpt)
  NeighbourLanes lanes_;             // cpx-lint: allow(ckpt)
};

}  // namespace cpx::coupler
