#include "mesh/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace cpx::mesh {

PartitionStats PartitionStats::analytic(std::int64_t global_cells,
                                        int num_parts, double surface_coeff,
                                        double imbalance) {
  CPX_REQUIRE(global_cells >= 1 && num_parts >= 1,
              "PartitionStats::analytic: bad inputs");
  PartitionStats s;
  s.global_cells = global_cells;
  s.num_parts = num_parts;
  s.owned_mean = static_cast<double>(global_cells) / num_parts;
  s.owned_max = s.owned_mean * imbalance;
  if (num_parts == 1) {
    return s;  // halo/neighbours stay zero
  }
  // A compact 3-D part of V cells has ~surface_coeff * V^(2/3) faces, but
  // faces on the domain boundary have no neighbour: with p parts tiling the
  // domain, a fraction ~(1 - p^(-1/3)) of each part's surface is internal.
  // The ghost ring is one cell deep, and a part cannot have more ghosts
  // than there are remote cells.
  const double internal_fraction =
      1.0 - std::pow(static_cast<double>(num_parts), -1.0 / 3.0);
  const double surface = surface_coeff * internal_fraction *
                         std::pow(s.owned_mean, 2.0 / 3.0);
  const double remote =
      static_cast<double>(global_cells) - s.owned_mean;
  s.halo_mean = std::min(surface, remote);
  s.halo_max = std::min(surface * 1.3, remote);
  // Face neighbours of a 3-D tiling approach 6; small part counts see
  // fewer, very fragmented partitions see a few corner contacts more.
  s.neighbors_mean = std::min(static_cast<double>(num_parts - 1), 6.0);
  return s;
}

}  // namespace cpx::mesh
