#pragma once
// Partition statistics from mesh size and part count alone.
//
// The analytic model is what lets the simulator run the paper's 8M-380M
// cell instances on thousands of ranks without instantiating the meshes:
// only owned-cell counts, halo sizes and neighbour counts enter the
// performance model. The analytic form is validated against measured RCB
// partitions at small scale (see tests/mesh_test.cpp).

#include <cstdint>

#include "mesh/partition.hpp"

namespace cpx::mesh {

struct PartitionStats {
  std::int64_t global_cells = 0;
  int num_parts = 0;
  double owned_mean = 0.0;
  double owned_max = 0.0;   ///< includes load imbalance
  double halo_mean = 0.0;   ///< ghost cells per part
  double halo_max = 0.0;
  double neighbors_mean = 0.0;

  /// Analytic 3-D model: owned = N/p, halo ~= surface_coeff *
  /// (1 - p^(-1/3)) * owned^(2/3) (boundary-corrected surface-to-volume),
  /// neighbours saturating at ~6 face contacts.
  /// `imbalance` is max/mean owned cells (RCB achieves ~1.0 by construction
  /// on cell counts; production graph partitioners sit near 1.03).
  static PartitionStats analytic(std::int64_t global_cells, int num_parts,
                                 double surface_coeff = 6.0,
                                 double imbalance = 1.03);
};

}  // namespace cpx::mesh
