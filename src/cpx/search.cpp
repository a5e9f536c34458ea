#include "cpx/search.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"

namespace cpx::coupler {
namespace {

constexpr std::int64_t kQueryGrain = 256;  ///< donor queries per task

/// Squared distance from `q` to the box [lower, upper]. It never exceeds
/// the computed distance_squared(p, q) of a point p in the box: per axis
/// the gap is 0 inside the slab and otherwise the difference to the nearer
/// face, which |fl(p - q)| cannot undercut because rounding is monotone
/// and symmetric; the squares and distance_squared's sum are monotone too.
double box_distance_squared(const mesh::Vec3& lower, const mesh::Vec3& upper,
                            const mesh::Vec3& q) {
  const auto gap = [](double lo, double hi, double c) {
    return c < lo ? lo - c : (c > hi ? c - hi : 0.0);
  };
  const double dx = gap(lower.x, upper.x, q.x);
  const double dy = gap(lower.y, upper.y, q.y);
  const double dz = gap(lower.z, upper.z, q.z);
  return dx * dx + dy * dy + dz * dz;
}

}  // namespace

double distance_squared(const mesh::Vec3& a, const mesh::Vec3& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

void KdTree::rebuild(std::span<const mesh::Vec3> points) {
  CPX_REQUIRE(!points.empty(), "KdTree: empty point set");
  entries_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    entries_[i] = {points[i], static_cast<std::int64_t>(i)};
  }
  // Every leaf above the root holds at least kLeafSize / 2 points, so
  // there are at most n / 4 leaves and n / 2 nodes.
  nodes_.clear();
  nodes_.reserve(points.size() / 2 + 1);
  build(0, size());
}

void KdTree::build(std::int64_t begin, std::int64_t end) {
  const auto at = [&](std::int64_t i) -> Entry& {
    return entries_[static_cast<std::size_t>(i)];
  };
  Node node;
  node.lower = at(begin).p;
  node.upper = node.lower;
  for (std::int64_t i = begin + 1; i < end; ++i) {
    const mesh::Vec3& p = at(i).p;
    node.lower = {std::min(node.lower.x, p.x), std::min(node.lower.y, p.y),
                  std::min(node.lower.z, p.z)};
    node.upper = {std::max(node.upper.x, p.x), std::max(node.upper.y, p.y),
                  std::max(node.upper.z, p.z)};
  }
  node.begin = begin;
  node.end = end;
  const std::size_t id = nodes_.size();
  nodes_.push_back(node);
  if (end - begin <= kLeafSize) {
    return;
  }
  // Split at the median on the axis of largest extent (lowest axis on a
  // tie).
  const double ex = node.upper.x - node.lower.x;
  const double ey = node.upper.y - node.lower.y;
  const double ez = node.upper.z - node.lower.z;
  const int axis = ex >= ey && ex >= ez ? 0 : (ey >= ez ? 1 : 2);
  const auto coord = [axis](const Entry& e) {
    return axis == 0 ? e.p.x : (axis == 1 ? e.p.y : e.p.z);
  };
  const std::int64_t mid = begin + (end - begin) / 2;
  std::nth_element(entries_.begin() + begin, entries_.begin() + mid,
                   entries_.begin() + end,
                   [&](const Entry& a, const Entry& b) {
                     return coord(a) < coord(b);
                   });
  build(begin, mid);
  const auto right = static_cast<std::int64_t>(nodes_.size());
  build(mid, end);
  nodes_[id].right = right;
}

void KdTree::search(std::int64_t node, const mesh::Vec3& query,
                    std::span<Neighbour> best, std::int64_t& count,
                    std::int64_t& visited) const {
  ++visited;
  const auto k = static_cast<std::int64_t>(best.size());
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.right < 0) {
    for (std::int64_t e = n.begin; e < n.end; ++e) {
      const Entry& entry = entries_[static_cast<std::size_t>(e)];
      const Neighbour cand{distance_squared(entry.p, query), entry.index};
      if (count < k || cand < best[static_cast<std::size_t>(k - 1)]) {
        // Insertion into the sorted list, dropping the worst when full.
        std::int64_t i = count < k ? count++ : k - 1;
        for (; i > 0 && cand < best[static_cast<std::size_t>(i - 1)]; --i) {
          best[static_cast<std::size_t>(i)] =
              best[static_cast<std::size_t>(i - 1)];
        }
        best[static_cast<std::size_t>(i)] = cand;
      }
    }
    return;
  }
  std::int64_t near_side = node + 1;
  std::int64_t far_side = n.right;
  const auto box_d2 = [&](std::int64_t child) {
    const Node& c = nodes_[static_cast<std::size_t>(child)];
    return box_distance_squared(c.lower, c.upper, query);
  };
  double near_d2 = box_d2(near_side);
  double far_d2 = box_d2(far_side);
  if (far_d2 < near_d2) {
    std::swap(near_side, far_side);
    std::swap(near_d2, far_d2);
  }
  // Only a box strictly farther than the k-th best prunes: a point at
  // exactly the worst distance may still win on its lower index.
  const auto reachable = [&](double box) {
    return count < k || box <= best[static_cast<std::size_t>(k - 1)].d2;
  };
  if (reachable(near_d2)) {
    search(near_side, query, best, count, visited);
  }
  if (reachable(far_d2)) {
    search(far_side, query, best, count, visited);
  }
}

std::int64_t KdTree::nearest(const mesh::Vec3& query) const {
  CPX_DCHECK(size() > 0);
  Neighbour best[1];
  std::int64_t count = 0;
  std::int64_t visited = 0;
  search(0, query, best, count, visited);
  visited_ = visited;
  return best[0].index;
}

void KdTree::k_nearest(const mesh::Vec3& query,
                       std::span<Neighbour> out) const {
  CPX_DCHECK(!out.empty() && static_cast<std::int64_t>(out.size()) <= size());
  std::int64_t count = 0;
  std::int64_t visited = 0;
  search(0, query, out, count, visited);
}

std::vector<std::int64_t> KdTree::nearest_batch(
    std::span<const mesh::Vec3> queries) const {
  CPX_METRICS_SCOPE("coupler/search");
  const auto nq = static_cast<std::int64_t>(queries.size());
  std::vector<std::int64_t> out(queries.size(), -1);
  const std::int64_t nchunks = support::num_chunks(0, nq, kQueryGrain);
  std::vector<support::Padded<std::int64_t>> visited(
      static_cast<std::size_t>(nchunks));
  support::parallel_chunks(0, nq, kQueryGrain, [&](std::int64_t chunk,
                                                   std::int64_t q0,
                                                   std::int64_t q1, int) {
    std::int64_t v = 0;
    for (std::int64_t q = q0; q < q1; ++q) {
      Neighbour best[1];
      std::int64_t count = 0;
      search(0, queries[static_cast<std::size_t>(q)], best, count, v);
      out[static_cast<std::size_t>(q)] = best[0].index;
    }
    visited[static_cast<std::size_t>(chunk)].value = v;
  });
  std::int64_t total = 0;
  for (const auto& v : visited) {
    total += v.value;
  }
  visited_ = total;
  if (support::metrics::enabled()) {
    support::metrics::counter_add("coupler/search_queries", nq);
    support::metrics::counter_add("coupler/search_visited", total);
  }
  return out;
}

}  // namespace cpx::coupler
