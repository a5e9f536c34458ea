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
// The tree answers nearest-point queries (donor injection) and exact
// k-nearest queries (the donors of an IDW stencil). Each node splits its
// points at the median along the axis of their largest extent, so planar
// point sets — an annulus interface lies in one z-plane — never waste a
// level on an axis that prunes nothing.

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/mesh.hpp"

namespace cpx::coupler {

/// Brute-force nearest neighbour: O(n) per query.
std::int64_t nearest_brute(const std::vector<mesh::Vec3>& points,
                           const mesh::Vec3& query);

/// Static k-d tree over a point set: O(log n) expected per query.
class KdTree {
 public:
  explicit KdTree(std::vector<mesh::Vec3> points);

  std::int64_t size() const {
    return static_cast<std::int64_t>(points_.size());
  }

  /// Index (into the constructor's point vector) of the nearest point.
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
  struct Node {
    std::int64_t point = -1;    ///< index into points_
    int axis = 0;
    std::int64_t left = -1;     ///< node indices, -1 = leaf
    std::int64_t right = -1;
  };

  std::int64_t build(std::vector<std::int64_t>& idx, std::int64_t lo,
                     std::int64_t hi);
  /// visited is a caller-owned counter so concurrent batch queries never
  /// touch shared state.
  void search(std::int64_t node, const mesh::Vec3& query, std::int64_t& best,
              double& best_d2, std::int64_t& visited) const;
  /// best[0, count) is the sorted candidate list of k_nearest.
  void search_k(std::int64_t node, const mesh::Vec3& query,
                std::span<Neighbour> best, std::int64_t& count) const;

  std::vector<mesh::Vec3> points_;
  std::vector<Node> nodes_;
  std::int64_t root_ = -1;
  mutable std::int64_t visited_ = 0;
};

double distance_squared(const mesh::Vec3& a, const mesh::Vec3& b);

}  // namespace cpx::coupler
