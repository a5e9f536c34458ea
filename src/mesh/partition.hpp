#pragma once
// Geometric partitioning (recursive coordinate bisection) and halo
// construction. Production codes use ParMETIS-class partitioners; RCB over
// jittered centroids gives parts with the same statistical character
// (balanced sizes, compact shapes, surface-to-volume halo growth), which
// is what the performance behaviour depends on.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/exchange_plan.hpp"
#include "mesh/mesh.hpp"

namespace cpx::mesh {

struct Partitioning {
  int num_parts = 0;
  std::vector<int> part_of;  ///< per global cell

  std::int64_t owned_count(int part) const;
};

/// Recursive coordinate bisection on cell centroids. Supports arbitrary
/// (non-power-of-two) part counts by proportional splits.
Partitioning partition_rcb(const UnstructuredMesh& mesh, int num_parts);

/// A part's view of the mesh: owned cells, ghost ring, local edges, and the
/// communication lists to exchange ghost data with neighbouring parts.
/// Local cell indices: [0, num_owned) are owned, [num_owned, num_owned +
/// num_ghosts) are ghosts, in the order of `ghosts`.
struct LocalMesh {
  int part = 0;
  std::vector<CellId> owned;   ///< global ids of owned cells
  std::vector<CellId> ghosts;  ///< global ids of ghost cells

  /// Edges with at least one owned endpoint, in local indices. Edges
  /// between two owned cells appear once; cut edges appear in both parts.
  struct LocalEdge {
    std::int32_t a = 0;
    std::int32_t b = 0;
    double area = 1.0;
    Vec3 normal{1.0, 0.0, 0.0};
  };
  std::vector<LocalEdge> edges;

  /// Per neighbouring part: local owned indices whose values must be sent.
  struct SendList {
    int neighbor = 0;
    std::vector<std::int32_t> cells;
  };
  std::vector<SendList> sends;

  /// Per neighbouring part: number of ghost cells received from it.
  struct RecvCount {
    int neighbor = 0;
    std::int64_t count = 0;
  };
  std::vector<RecvCount> recvs;

  std::int64_t num_owned() const {
    return static_cast<std::int64_t>(owned.size());
  }
  std::int64_t num_ghosts() const {
    return static_cast<std::int64_t>(ghosts.size());
  }
  int num_neighbors() const { return static_cast<int>(sends.size()); }
};

/// Extracts the local view of every part in one sweep.
std::vector<LocalMesh> extract_local_meshes(const UnstructuredMesh& mesh,
                                            const Partitioning& partitioning);

/// Builds the halo-exchange schedule of a set of local meshes: one comm
/// channel per directed neighbour pair, send indices the owner's send-list
/// cells, receive indices the matching ghost slots on the destination
/// (local indices into the owned+ghost cell array). Channels are emitted
/// in (part, send-list) order — the deterministic order the per-site halo
/// loops used before the comm refactor. The caller finalizes the plan
/// with its per-cell element size. Throws CheckError if a sent cell has
/// no ghost slot on the receiver (halo asymmetry).
comm::ExchangePlan build_halo_plan(std::span<const LocalMesh> locals);

/// Deep validator (tier 2, support/check.hpp): partition shape and every
/// part id in range. Throws CheckError on violation.
void validate_partitioning(const UnstructuredMesh& mesh,
                           const Partitioning& partitioning);

/// Deep validator for extracted local meshes: every cell owned by exactly
/// one part (and by the part the partitioning assigns it to), halo
/// symmetry — each ghost of part p is owned by some other part q, appears
/// in q's send list to p, and p's receive count from q matches q's send
/// list — and local edge endpoints in range with at least one owned end.
/// Runs automatically at the end of extract_local_meshes when
/// check::deep() is on. Throws CheckError on violation.
void validate_local_meshes(const UnstructuredMesh& mesh,
                           const Partitioning& partitioning,
                           std::span<const LocalMesh> locals);

}  // namespace cpx::mesh
