#pragma once
// Measured partition statistics: the reference the analytic model
// (mesh::PartitionStats::analytic, mesh/stats.hpp) is validated against,
// counted from the local meshes of a real partitioning. Test-only — no
// program measures a partitioning this way.

#include <algorithm>
#include <cstddef>

#include "mesh/partition.hpp"
#include "mesh/stats.hpp"

namespace cpx::testing {

inline mesh::PartitionStats measure_partition_stats(
    const mesh::UnstructuredMesh& mesh, const mesh::Partitioning& partitioning) {
  const auto locals = mesh::extract_local_meshes(mesh, partitioning);
  mesh::PartitionStats s;
  s.global_cells = mesh.num_cells();
  s.num_parts = partitioning.num_parts;
  double owned_sum = 0.0;
  double halo_sum = 0.0;
  double neighbors_sum = 0.0;
  for (const mesh::LocalMesh& lm : locals) {
    const auto owned = static_cast<double>(lm.num_owned());
    const auto halo = static_cast<double>(lm.num_ghosts());
    s.owned_max = std::max(s.owned_max, owned);
    s.halo_max = std::max(s.halo_max, halo);
    owned_sum += owned;
    halo_sum += halo;
    neighbors_sum += lm.num_neighbors();
  }
  const auto n = static_cast<double>(locals.size());
  s.owned_mean = owned_sum / n;
  s.halo_mean = halo_sum / n;
  s.neighbors_mean = neighbors_sum / n;
  return s;
}

}  // namespace cpx::testing
