#pragma once
// Interface interpolation: once donors are located, field values are
// transferred with inverse-distance weighting over the k nearest donors
// (k = 1 degenerates to nearest-neighbour injection). This is the "map
// values/fields from one simulation to the other, interpolating data" role
// of the coupler.

#include <cstdint>
#include <span>
#include <vector>

#include "cpx/search.hpp"
#include "support/parallel.hpp"

namespace cpx::coupler {

/// Interpolation stencil of one target point.
struct Stencil {
  std::vector<std::int64_t> donors;
  std::vector<double> weights;  ///< sum to 1
};

/// Per-lane k-nearest scratch of fill_idw_stencils, kept by the caller.
using NeighbourLanes =
    std::vector<support::Padded<std::vector<KdTree::Neighbour>>>;

/// Refills `stencils` (one per target) in place with inverse-distance
/// stencils over the k nearest points of `tree`, located by exact
/// k-nearest queries (KdTree::k_nearest) and ordered by ascending
/// (distance, index); k is clamped to tree.size(). Stencil arrays are
/// resized, not rebuilt, and `lanes` is sized before the parallel region,
/// so a refill with the last call's k and pool width allocates nothing.
void fill_idw_stencils(const KdTree& tree,
                       std::span<const mesh::Vec3> targets, int k,
                       std::span<Stencil> stencils, NeighbourLanes& lanes);

/// One-shot fill_idw_stencils: builds the tree over `donors` and returns
/// the stencils of `targets`.
std::vector<Stencil> build_idw_stencils(std::span<const mesh::Vec3> donors,
                                        std::span<const mesh::Vec3> targets,
                                        int k = 4);

/// Applies stencils: out[t] = sum_j w_j * field[donor_j].
void apply_stencils(std::span<const Stencil> stencils,
                    std::span<const double> donor_field,
                    std::span<double> target_field);

/// Deep validator (tier 2, support/check.hpp): every stencil is non-empty
/// with matching donor/weight arrays, donor indices in [0, num_donors),
/// finite non-negative weights summing to 1 within 1e-9. Runs
/// automatically after every FieldCoupler remap when check::deep() is on.
/// Throws CheckError.
void validate_stencils(std::span<const Stencil> stencils,
                       std::size_t num_donors);

/// Rotates points about the z axis by `radians` — the relative motion of a
/// sliding-plane interface between timesteps — into `out` (same size).
void rotate_z(std::span<const mesh::Vec3> points, double radians,
              std::span<mesh::Vec3> out);

}  // namespace cpx::coupler
