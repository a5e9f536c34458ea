#pragma once
// Donor search for coupling interfaces.
//
// Mapping an interface requires finding, for every target point, the
// nearest donor point on the other side. The original CPX/JM76 coupler
// used a brute-force search; the production coupler later adopted a
// tree-based search with prefetching, which the paper credits for cutting
// coupling overhead to <0.5% of runtime. Both are implemented here: the
// brute-force baseline and a k-d tree, with an ablation bench comparing
// them (bench_coupler_overhead).
//
// The tree answers exact k-nearest queries (the donors of an IDW stencil;
// k = 1 is donor injection). Each node splits its points at the median
// along the axis of their largest extent, so planar point sets — an
// annulus interface lies in one z-plane — never waste a level on an axis
// that prunes nothing. Leaves hold up to kLeafSize points, copied into
// tree order with their original indices, and every node keeps the
// bounding box of its points. A query prunes a subtree on the distance to
// that box, so a target far from every donor (a sliding plane turned away
// from its aligned position) visits O(log n) nodes, not most of the tree.

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"

namespace cpx::coupler {

/// Static k-d tree over a point set: O(log n) expected per query.
class KdTree {
 public:
  KdTree() = default;
  explicit KdTree(std::span<const mesh::Vec3> points) { rebuild(points); }

  /// Rebuilds the tree over `points` (non-empty), reusing every buffer:
  /// a rebuild over as many points as the last one allocates nothing.
  void rebuild(std::span<const mesh::Vec3> points);

  std::int64_t size() const {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Index (into the built point set) of the nearest point; a distance tie
  /// resolves to the lower index. This is k_nearest with k = 1.
  std::int64_t nearest(const mesh::Vec3& query) const;

  /// A candidate of a k-nearest query, ordered by (d2, index).
  struct Neighbour {
    double d2 = 0.0;         ///< distance_squared(point, query)
    std::int64_t index = -1;
    bool operator<(const Neighbour& o) const {
      return d2 < o.d2 || (d2 == o.d2 && index < o.index);
    }
  };

  /// The k = out.size() nearest points to `query` (1 <= k <= size()),
  /// written to `out` in ascending (d2, index) order — exactly the first k
  /// entries of a full sort of every point by (d2, index), so distance
  /// ties resolve to the lower index as a brute-force partial_sort would.
  /// Touches no shared state, so concurrent queries are safe.
  void k_nearest(const mesh::Vec3& query, std::span<Neighbour> out) const;

  /// Nearest donor for every query point, searched in parallel over a
  /// deterministic chunk decomposition (the batched donor query of an
  /// interface mapping). After the call last_visited() holds the total
  /// node count visited across the whole batch.
  std::vector<std::int64_t> nearest_batch(
      std::span<const mesh::Vec3> queries) const;

  /// Number of nodes visited by the last nearest()/nearest_batch() call
  /// (for the complexity tests and the ablation bench; k_nearest() does
  /// not count).
  std::int64_t last_visited() const { return visited_; }

 private:
  /// Largest number of points in one leaf.
  static constexpr std::int64_t kLeafSize = 8;

  /// A point in tree order with its index in the built point set.
  struct Entry {
    mesh::Vec3 p;
    std::int64_t index = -1;
  };
  /// Bounding box of entries_[begin, end). The left child of an inner
  /// node is the next node (pre-order); `right` is -1 for a leaf.
  struct Node {
    mesh::Vec3 lower;
    mesh::Vec3 upper;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t right = -1;
  };

  void build(std::int64_t begin, std::int64_t end);
  /// The one search: best[0, count) is the sorted candidate list, and
  /// visited a caller-owned counter, so concurrent queries never touch
  /// shared state.
  void search(std::int64_t node, const mesh::Vec3& query,
              std::span<Neighbour> best, std::int64_t& count,
              std::int64_t& visited) const;

  std::vector<Entry> entries_;
  std::vector<Node> nodes_;
  mutable std::int64_t visited_ = 0;
};

double distance_squared(const mesh::Vec3& a, const mesh::Vec3& b);

}  // namespace cpx::coupler
