#include "mesh/partition.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <unordered_map>

#include "support/check.hpp"

namespace cpx::mesh {

std::int64_t Partitioning::owned_count(int part) const {
  CPX_REQUIRE(part >= 0 && part < num_parts, "owned_count: bad part " << part);
  return std::count(part_of.begin(), part_of.end(), part);
}

namespace {

/// Recursively assigns parts [part_begin, part_end) to the cells in
/// indices[lo, hi), bisecting along the widest coordinate axis.
void rcb_recurse(const std::vector<Vec3>& pts, std::vector<std::int64_t>& idx,
                 std::int64_t lo, std::int64_t hi, int part_begin,
                 int part_end, std::vector<int>& part_of) {
  const int parts = part_end - part_begin;
  if (parts == 1) {
    for (std::int64_t i = lo; i < hi; ++i) {
      part_of[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])] =
          part_begin;
    }
    return;
  }
  // Widest axis of the bounding box of this subset.
  Vec3 mn = pts[static_cast<std::size_t>(idx[static_cast<std::size_t>(lo)])];
  Vec3 mx = mn;
  for (std::int64_t i = lo; i < hi; ++i) {
    const Vec3& p =
        pts[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
    mn.x = std::min(mn.x, p.x);
    mn.y = std::min(mn.y, p.y);
    mn.z = std::min(mn.z, p.z);
    mx.x = std::max(mx.x, p.x);
    mx.y = std::max(mx.y, p.y);
    mx.z = std::max(mx.z, p.z);
  }
  const double dx = mx.x - mn.x;
  const double dy = mx.y - mn.y;
  const double dz = mx.z - mn.z;
  int axis = 0;
  if (dy >= dx && dy >= dz) {
    axis = 1;
  } else if (dz >= dx && dz >= dy) {
    axis = 2;
  }
  const auto key = [&](std::int64_t cell) {
    const Vec3& p = pts[static_cast<std::size_t>(cell)];
    return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
  };

  const int left_parts = parts / 2;
  const std::int64_t count = hi - lo;
  const std::int64_t left_count =
      count * left_parts / parts;  // proportional share
  auto begin = idx.begin() + lo;
  auto nth = idx.begin() + lo + left_count;
  auto end = idx.begin() + hi;
  std::nth_element(begin, nth, end, [&](std::int64_t a, std::int64_t b) {
    return key(a) < key(b);
  });
  rcb_recurse(pts, idx, lo, lo + left_count, part_begin,
              part_begin + left_parts, part_of);
  rcb_recurse(pts, idx, lo + left_count, hi, part_begin + left_parts,
              part_end, part_of);
}

}  // namespace

Partitioning partition_rcb(const UnstructuredMesh& mesh, int num_parts) {
  CPX_REQUIRE(num_parts >= 1, "partition_rcb: bad part count " << num_parts);
  CPX_REQUIRE(mesh.num_cells() >= num_parts,
              "partition_rcb: more parts (" << num_parts << ") than cells ("
                                            << mesh.num_cells() << ")");
  Partitioning p;
  p.num_parts = num_parts;
  p.part_of.assign(static_cast<std::size_t>(mesh.num_cells()), 0);
  if (num_parts == 1) {
    return p;
  }
  std::vector<std::int64_t> idx(static_cast<std::size_t>(mesh.num_cells()));
  std::iota(idx.begin(), idx.end(), 0);
  rcb_recurse(mesh.centroids(), idx, 0, mesh.num_cells(), 0, num_parts,
              p.part_of);
  return p;
}

std::vector<LocalMesh> extract_local_meshes(const UnstructuredMesh& mesh,
                                            const Partitioning& partitioning) {
  CPX_REQUIRE(partitioning.part_of.size() ==
                  static_cast<std::size_t>(mesh.num_cells()),
              "extract_local_meshes: partitioning size mismatch");
  const int p = partitioning.num_parts;
  std::vector<LocalMesh> locals(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) {
    locals[static_cast<std::size_t>(i)].part = i;
  }

  // Owned cells per part (global ids in ascending order) and a global->local
  // index map.
  std::vector<std::int32_t> local_index(
      static_cast<std::size_t>(mesh.num_cells()), -1);
  for (CellId c = 0; c < mesh.num_cells(); ++c) {
    LocalMesh& lm =
        locals[static_cast<std::size_t>(partitioning.part_of
                                            [static_cast<std::size_t>(c)])];
    local_index[static_cast<std::size_t>(c)] =
        static_cast<std::int32_t>(lm.owned.size());
    lm.owned.push_back(c);
  }

  // Ghosts: cells adjacent across a cut, per part, discovered from edges.
  // ghost_index[part] maps global id -> local ghost slot.
  std::vector<std::unordered_map<CellId, std::int32_t>> ghost_index(
      static_cast<std::size_t>(p));
  // send_map[part][neighbor] -> set of owned local indices (kept sorted
  // later). An ordered map: finalisation iterates it, and neighbour counts
  // are small, so deterministic order costs nothing (lint rule
  // `deterministic-kernels`, docs/static_analysis.md).
  std::vector<std::map<int, std::vector<std::int32_t>>> send_map(
      static_cast<std::size_t>(p));

  const auto ghost_slot = [&](int part, CellId global) {
    auto& gi = ghost_index[static_cast<std::size_t>(part)];
    auto it = gi.find(global);
    if (it != gi.end()) {
      return it->second;
    }
    LocalMesh& lm = locals[static_cast<std::size_t>(part)];
    const auto slot = static_cast<std::int32_t>(lm.owned.size() +
                                                lm.ghosts.size());
    lm.ghosts.push_back(global);
    gi.emplace(global, slot);
    return slot;
  };

  for (const Edge& e : mesh.edges()) {
    const int pa = partitioning.part_of[static_cast<std::size_t>(e.a)];
    const int pb = partitioning.part_of[static_cast<std::size_t>(e.b)];
    const std::int32_t la = local_index[static_cast<std::size_t>(e.a)];
    const std::int32_t lb = local_index[static_cast<std::size_t>(e.b)];
    if (pa == pb) {
      locals[static_cast<std::size_t>(pa)].edges.push_back(
          {la, lb, e.area, e.normal});
      continue;
    }
    // Cut edge: each side gets the edge with the remote endpoint as ghost,
    // and must send its own endpoint to the other part.
    const std::int32_t ga = ghost_slot(pa, e.b);
    locals[static_cast<std::size_t>(pa)].edges.push_back(
        {la, ga, e.area, e.normal});
    send_map[static_cast<std::size_t>(pa)][pb].push_back(la);

    const std::int32_t gb = ghost_slot(pb, e.a);
    locals[static_cast<std::size_t>(pb)].edges.push_back(
        {gb, lb, e.area, e.normal});
    send_map[static_cast<std::size_t>(pb)][pa].push_back(lb);
  }

  // Finalise send lists (dedup) and recv counts. send_map is ordered by
  // neighbour id, so the send lists come out sorted without a second pass.
  for (int part = 0; part < p; ++part) {
    LocalMesh& lm = locals[static_cast<std::size_t>(part)];
    for (auto& [neighbor, cells] : send_map[static_cast<std::size_t>(part)]) {
      std::sort(cells.begin(), cells.end());
      cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
      lm.sends.push_back({neighbor, cells});
    }
  }
  // recv counts mirror the neighbour's send list sizes.
  for (int part = 0; part < p; ++part) {
    LocalMesh& lm = locals[static_cast<std::size_t>(part)];
    for (const auto& s : lm.sends) {
      const LocalMesh& other = locals[static_cast<std::size_t>(s.neighbor)];
      for (const auto& os : other.sends) {
        if (os.neighbor == part) {
          lm.recvs.push_back(
              {s.neighbor, static_cast<std::int64_t>(os.cells.size())});
          break;
        }
      }
    }
  }

  if (check::deep()) {
    validate_local_meshes(mesh, partitioning, locals);
  }
  return locals;
}

comm::ExchangePlan build_halo_plan(std::span<const LocalMesh> locals) {
  // Global id -> local ghost slot, per part.
  std::vector<std::unordered_map<CellId, std::int32_t>> ghost_slot(
      locals.size());
  for (std::size_t part = 0; part < locals.size(); ++part) {
    const LocalMesh& lm = locals[part];
    for (std::size_t j = 0; j < lm.ghosts.size(); ++j) {
      ghost_slot[part].emplace(
          lm.ghosts[j],
          static_cast<std::int32_t>(lm.owned.size() + j));
    }
  }

  comm::ExchangePlan plan;
  std::vector<std::int32_t> send_indices;
  std::vector<std::int32_t> recv_indices;
  for (const LocalMesh& lm : locals) {
    for (const LocalMesh::SendList& s : lm.sends) {
      CPX_CHECK_MSG(s.neighbor >= 0 &&
                        static_cast<std::size_t>(s.neighbor) < locals.size(),
                    "halo plan: part " << lm.part
                                       << " sends to invalid neighbour "
                                       << s.neighbor);
      const auto& slots = ghost_slot[static_cast<std::size_t>(s.neighbor)];
      send_indices.assign(s.cells.begin(), s.cells.end());
      recv_indices.clear();
      recv_indices.reserve(s.cells.size());
      for (const std::int32_t local : s.cells) {
        CPX_CHECK_MSG(local >= 0 && static_cast<std::size_t>(local) <
                                        lm.owned.size(),
                      "halo plan: part " << lm.part
                                         << " send list references local "
                                         << local
                                         << " outside its owned range");
        const CellId global = lm.owned[static_cast<std::size_t>(local)];
        const auto it = slots.find(global);
        CPX_CHECK_MSG(it != slots.end(),
                      "halo plan: cell " << global << " sent by part "
                                         << lm.part << " has no ghost slot "
                                         << "on part " << s.neighbor
                                         << " (halo asymmetry)");
        recv_indices.push_back(it->second);
      }
      plan.add_channel(lm.part, s.neighbor, send_indices, recv_indices);
    }
  }
  return plan;
}

void validate_partitioning(const UnstructuredMesh& mesh,
                           const Partitioning& partitioning) {
  CPX_CHECK_MSG(partitioning.num_parts >= 1, "partitioning has no parts");
  CPX_CHECK_MSG(partitioning.part_of.size() ==
                    static_cast<std::size_t>(mesh.num_cells()),
                "part_of size " << partitioning.part_of.size()
                                << " != cell count " << mesh.num_cells());
  for (std::size_t c = 0; c < partitioning.part_of.size(); ++c) {
    const int part = partitioning.part_of[c];
    CPX_CHECK_MSG(part >= 0 && part < partitioning.num_parts,
                  "cell " << c << " assigned to invalid part " << part);
  }
}

void validate_local_meshes(const UnstructuredMesh& mesh,
                           const Partitioning& partitioning,
                           std::span<const LocalMesh> locals) {
  validate_partitioning(mesh, partitioning);
  CPX_CHECK_MSG(locals.size() ==
                    static_cast<std::size_t>(partitioning.num_parts),
                "local mesh count " << locals.size() << " != parts "
                                    << partitioning.num_parts);

  // Every cell owned exactly once, by the part the partitioning says.
  std::vector<std::int8_t> seen(static_cast<std::size_t>(mesh.num_cells()),
                                0);
  for (const LocalMesh& lm : locals) {
    for (const CellId c : lm.owned) {
      CPX_CHECK_MSG(c >= 0 && c < mesh.num_cells(),
                    "part " << lm.part << " owns out-of-range cell " << c);
      CPX_CHECK_MSG(partitioning.part_of[static_cast<std::size_t>(c)] ==
                        lm.part,
                    "cell " << c << " owned by part " << lm.part
                            << " but assigned to part "
                            << partitioning.part_of[static_cast<std::size_t>(
                                   c)]);
      CPX_CHECK_MSG(seen[static_cast<std::size_t>(c)] == 0,
                    "cell " << c << " owned by more than one part");
      seen[static_cast<std::size_t>(c)] = 1;
    }
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    CPX_CHECK_MSG(seen[c] != 0, "cell " << c << " owned by no part");
  }

  // Transport-level halo invariants — send-list locals in range, halo
  // send/recv symmetry, and exactly-once coverage of every ghost slot —
  // are properties of the exchange schedule, so build it and delegate to
  // the comm-layer validator (the plan builder itself rejects a sent cell
  // with no ghost slot on the receiver).
  const comm::ExchangePlan plan = build_halo_plan(locals);
  std::vector<std::int64_t> extents(locals.size(), 0);
  std::vector<std::int64_t> required(locals.size(), 0);
  for (std::size_t i = 0; i < locals.size(); ++i) {
    extents[i] = locals[i].num_owned() + locals[i].num_ghosts();
    required[i] = locals[i].num_owned();
  }
  comm::validate_plan(plan, {extents, extents, required});

  for (const LocalMesh& lm : locals) {
    // Ghosts reference real cells owned by another part.
    for (const CellId g : lm.ghosts) {
      CPX_CHECK_MSG(g >= 0 && g < mesh.num_cells(),
                    "part " << lm.part << " has out-of-range ghost " << g);
      const int owner = partitioning.part_of[static_cast<std::size_t>(g)];
      CPX_CHECK_MSG(owner != lm.part,
                    "part " << lm.part << " lists owned cell " << g
                            << " as a ghost");
    }
    // Receive counts mirror the neighbour's send lists and cover exactly
    // the ghost ring.
    std::int64_t recv_total = 0;
    for (const LocalMesh::RecvCount& rc : lm.recvs) {
      CPX_CHECK_MSG(rc.neighbor >= 0 && rc.neighbor < partitioning.num_parts,
                    "part " << lm.part << " receives from invalid neighbour "
                            << rc.neighbor);
      std::int64_t expected = 0;
      for (const LocalMesh::SendList& os :
           locals[static_cast<std::size_t>(rc.neighbor)].sends) {
        if (os.neighbor == lm.part) {
          expected = static_cast<std::int64_t>(os.cells.size());
          break;
        }
      }
      CPX_CHECK_MSG(rc.count == expected,
                    "part " << lm.part << " expects " << rc.count
                            << " ghosts from " << rc.neighbor << " but "
                            << rc.neighbor << " sends " << expected);
      recv_total += rc.count;
    }
    CPX_CHECK_MSG(recv_total == lm.num_ghosts(),
                  "part " << lm.part << " receive total " << recv_total
                          << " != ghost count " << lm.num_ghosts());
    // Local edges: endpoints in range, no self-edges, at least one owned
    // endpoint (pure-ghost edges belong to other parts).
    const auto local_cells =
        static_cast<std::int32_t>(lm.num_owned() + lm.num_ghosts());
    for (const LocalMesh::LocalEdge& e : lm.edges) {
      CPX_CHECK_MSG(e.a >= 0 && e.a < local_cells && e.b >= 0 &&
                        e.b < local_cells && e.a != e.b,
                    "part " << lm.part << " local edge " << e.a << "-" << e.b
                            << " out of range");
      CPX_CHECK_MSG(e.a < lm.num_owned() || e.b < lm.num_owned(),
                    "part " << lm.part << " edge " << e.a << "-" << e.b
                            << " connects two ghosts");
    }
  }
}

}  // namespace cpx::mesh
