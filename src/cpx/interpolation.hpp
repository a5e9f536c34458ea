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

namespace cpx::coupler {

/// Interpolation stencil of one target point.
struct Stencil {
  std::vector<std::int64_t> donors;
  std::vector<double> weights;  ///< sum to 1
};

/// Builds inverse-distance stencils from `donors` to `targets`. Donors are
/// located by exact k-nearest queries (KdTree::k_nearest) on a k-d tree
/// over `donors`, ordered by ascending (distance, index). k is clamped to
/// the donor count.
std::vector<Stencil> build_idw_stencils(
    const std::vector<mesh::Vec3>& donors,
    const std::vector<mesh::Vec3>& targets, int k = 4);

/// Applies stencils: out[t] = sum_j w_j * field[donor_j].
void apply_stencils(std::span<const Stencil> stencils,
                    std::span<const double> donor_field,
                    std::span<double> target_field);

/// Deep validator (tier 2, support/check.hpp): every stencil is non-empty
/// with matching donor/weight arrays, donor indices in [0, num_donors),
/// finite non-negative weights, and — when partition_of_unity is true (the
/// consistent/IDW case; conservative stencils rescale per donor instead) —
/// weights summing to 1 within 1e-9. Runs automatically after every
/// FieldCoupler remap when check::deep() is on. Throws CheckError.
void validate_stencils(std::span<const Stencil> stencils,
                       std::size_t num_donors,
                       bool partition_of_unity = true);

/// Rotates points about the z axis by `radians` — the relative motion of a
/// sliding-plane interface between timesteps.
std::vector<mesh::Vec3> rotate_z(const std::vector<mesh::Vec3>& points,
                                 double radians);

/// Conservative redistribution of the IDW stencils: rescales the weights
/// per *donor* so that the total transferred quantity is preserved,
///     sum_t out[t] == sum_d field[d]   (for donors reached by a stencil).
/// Consistent (IDW) transfer preserves constants; conservative transfer
/// preserves integrals — the classic coupler trade-off. Use conservative
/// stencils for extensive quantities (mass/heat flux through the
/// interface), consistent ones for intensive fields (velocity, pressure).
std::vector<Stencil> make_conservative(std::span<const Stencil> stencils,
                                       std::size_t num_donors);

}  // namespace cpx::coupler
