#include "cpx/search.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"

namespace cpx::coupler {
namespace {

constexpr std::int64_t kQueryGrain = 256;  ///< donor queries per task

}  // namespace

double distance_squared(const mesh::Vec3& a, const mesh::Vec3& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  const double dz = a.z - b.z;
  return dx * dx + dy * dy + dz * dz;
}

std::int64_t nearest_brute(const std::vector<mesh::Vec3>& points,
                           const mesh::Vec3& query) {
  CPX_REQUIRE(!points.empty(), "nearest_brute: empty point set");
  std::int64_t best = 0;
  double best_d2 = distance_squared(points[0], query);
  for (std::size_t i = 1; i < points.size(); ++i) {
    const double d2 = distance_squared(points[i], query);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<std::int64_t>(i);
    }
  }
  return best;
}

KdTree::KdTree(std::vector<mesh::Vec3> points) : points_(std::move(points)) {
  CPX_REQUIRE(!points_.empty(), "KdTree: empty point set");
  std::vector<std::int64_t> idx(points_.size());
  std::iota(idx.begin(), idx.end(), 0);
  nodes_.reserve(points_.size());
  root_ = build(idx, 0, static_cast<std::int64_t>(points_.size()));
}

std::int64_t KdTree::build(std::vector<std::int64_t>& idx, std::int64_t lo,
                           std::int64_t hi) {
  if (lo >= hi) {
    return -1;
  }
  // Split on the axis of largest extent (lowest axis on a tie).
  const auto point_at = [&](std::int64_t i) -> const mesh::Vec3& {
    return points_[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])];
  };
  mesh::Vec3 lower = point_at(lo);
  mesh::Vec3 upper = lower;
  for (std::int64_t i = lo + 1; i < hi; ++i) {
    const mesh::Vec3& p = point_at(i);
    lower = {std::min(lower.x, p.x), std::min(lower.y, p.y),
             std::min(lower.z, p.z)};
    upper = {std::max(upper.x, p.x), std::max(upper.y, p.y),
             std::max(upper.z, p.z)};
  }
  const double ex = upper.x - lower.x;
  const double ey = upper.y - lower.y;
  const double ez = upper.z - lower.z;
  const int axis = ex >= ey && ex >= ez ? 0 : (ey >= ez ? 1 : 2);
  const auto coord = [&](std::int64_t i) {
    const mesh::Vec3& p = points_[static_cast<std::size_t>(i)];
    return axis == 0 ? p.x : (axis == 1 ? p.y : p.z);
  };
  const std::int64_t mid = lo + (hi - lo) / 2;
  std::nth_element(idx.begin() + lo, idx.begin() + mid, idx.begin() + hi,
                   [&](std::int64_t a, std::int64_t b) {
                     return coord(a) < coord(b);
                   });
  const auto node_id = static_cast<std::int64_t>(nodes_.size());
  nodes_.push_back({idx[static_cast<std::size_t>(mid)], axis, -1, -1});
  const std::int64_t left = build(idx, lo, mid);
  const std::int64_t right = build(idx, mid + 1, hi);
  nodes_[static_cast<std::size_t>(node_id)].left = left;
  nodes_[static_cast<std::size_t>(node_id)].right = right;
  return node_id;
}

void KdTree::search(std::int64_t node, const mesh::Vec3& query,
                    std::int64_t& best, double& best_d2,
                    std::int64_t& visited) const {
  if (node < 0) {
    return;
  }
  ++visited;
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const mesh::Vec3& p = points_[static_cast<std::size_t>(n.point)];
  const double d2 = distance_squared(p, query);
  if (d2 < best_d2) {
    best_d2 = d2;
    best = n.point;
  }
  const double qc = n.axis == 0 ? query.x : (n.axis == 1 ? query.y : query.z);
  const double pc = n.axis == 0 ? p.x : (n.axis == 1 ? p.y : p.z);
  const double delta = qc - pc;
  const std::int64_t near_side = delta < 0.0 ? n.left : n.right;
  const std::int64_t far_side = delta < 0.0 ? n.right : n.left;
  search(near_side, query, best, best_d2, visited);
  if (delta * delta < best_d2) {
    search(far_side, query, best, best_d2, visited);
  }
}

std::int64_t KdTree::nearest(const mesh::Vec3& query) const {
  std::int64_t visited = 0;
  std::int64_t best = -1;
  double best_d2 = std::numeric_limits<double>::infinity();
  search(root_, query, best, best_d2, visited);
  visited_ = visited;
  return best;
}

void KdTree::search_k(std::int64_t node, const mesh::Vec3& query,
                      std::span<Neighbour> best, std::int64_t& count) const {
  if (node < 0) {
    return;
  }
  const auto k = static_cast<std::int64_t>(best.size());
  const Node& n = nodes_[static_cast<std::size_t>(node)];
  const mesh::Vec3& p = points_[static_cast<std::size_t>(n.point)];
  const Neighbour cand{distance_squared(p, query), n.point};
  if (count < k || cand < best[static_cast<std::size_t>(k - 1)]) {
    // Insertion into the sorted list, dropping the worst when full.
    std::int64_t i = count < k ? count++ : k - 1;
    for (; i > 0 && cand < best[static_cast<std::size_t>(i - 1)]; --i) {
      best[static_cast<std::size_t>(i)] =
          best[static_cast<std::size_t>(i - 1)];
    }
    best[static_cast<std::size_t>(i)] = cand;
  }
  const double qc = n.axis == 0 ? query.x : (n.axis == 1 ? query.y : query.z);
  const double pc = n.axis == 0 ? p.x : (n.axis == 1 ? p.y : p.z);
  const double delta = qc - pc;
  const std::int64_t near_side = delta < 0.0 ? n.left : n.right;
  const std::int64_t far_side = delta < 0.0 ? n.right : n.left;
  search_k(near_side, query, best, count);
  // Far-side points lie at least |delta| away (rounding is monotone, so
  // also in floating point). Only a strictly larger bound prunes: a point
  // at exactly the worst distance may still win on its lower index.
  if (count < k ||
      delta * delta <= best[static_cast<std::size_t>(k - 1)].d2) {
    search_k(far_side, query, best, count);
  }
}

void KdTree::k_nearest(const mesh::Vec3& query,
                       std::span<Neighbour> out) const {
  CPX_DCHECK(!out.empty() && static_cast<std::int64_t>(out.size()) <= size());
  std::int64_t count = 0;
  search_k(root_, query, out, count);
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
      std::int64_t best = -1;
      double best_d2 = std::numeric_limits<double>::infinity();
      search(root_, queries[static_cast<std::size_t>(q)], best, best_d2, v);
      out[static_cast<std::size_t>(q)] = best;
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
