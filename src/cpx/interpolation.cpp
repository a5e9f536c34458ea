#include "cpx/interpolation.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/simd.hpp"

namespace cpx::coupler {
namespace {

constexpr std::int64_t kStencilGrain = 256;  ///< targets per task

using support::simd::kWidth;
using Pack = support::simd::pack<kWidth>;

/// Inverse-distance weights over the sorted k nearest donors, with an
/// exact-hit guard. Each d2 is the query's distance_squared(donor,
/// target), so the weights need no second distance pass.
void fill_idw_weights(std::span<const KdTree::Neighbour> nearest,
                      Stencil& s) {
  const std::size_t k = nearest.size();
  s.donors.resize(k);
  s.weights.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    s.donors[j] = nearest[j].index;
  }
  double total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double d2 = nearest[j].d2;
    if (d2 < 1e-24) {
      std::fill(s.weights.begin(), s.weights.end(), 0.0);
      s.weights[j] = 1.0;
      return;
    }
    s.weights[j] = 1.0 / std::sqrt(d2);
    total += s.weights[j];
  }
  for (double& w : s.weights) {
    w /= total;
  }
}

}  // namespace

void fill_idw_stencils(const KdTree& tree,
                       std::span<const mesh::Vec3> targets, int k,
                       std::span<Stencil> stencils, NeighbourLanes& lanes) {
  CPX_REQUIRE(tree.size() > 0, "fill_idw_stencils: empty donor tree");
  CPX_REQUIRE(k >= 1, "fill_idw_stencils: bad k");
  CPX_REQUIRE(stencils.size() == targets.size(),
              "fill_idw_stencils: stencil count mismatch");
  CPX_METRICS_SCOPE("coupler/map_build");
  const auto kk = static_cast<std::size_t>(
      std::min<std::int64_t>(k, tree.size()));
  // Every lane's scratch is sized serially, before the parallel region:
  // chunks are claimed dynamically, so a lane that sat out the first call
  // would otherwise allocate on a later, warm one.
  const auto width = static_cast<std::size_t>(support::max_threads());
  if (lanes.size() < width) {
    lanes.resize(width);
  }
  for (auto& lane : lanes) {
    lane.value.resize(kk);
  }
  // Targets are independent, so the interface mapping parallelises over
  // them; each target refills its own stencil slot. A sliding plane
  // refills every stencil on every step.
  support::parallel_chunks(
      0, static_cast<std::int64_t>(targets.size()), kStencilGrain,
      [&](std::int64_t, std::int64_t t0, std::int64_t t1, int lane) {
        std::span<KdTree::Neighbour> nearest =
            lanes[static_cast<std::size_t>(lane)].value;
        for (std::int64_t t = t0; t < t1; ++t) {
          tree.k_nearest(targets[static_cast<std::size_t>(t)], nearest);
          fill_idw_weights(nearest, stencils[static_cast<std::size_t>(t)]);
        }
      });
}

std::vector<Stencil> build_idw_stencils(std::span<const mesh::Vec3> donors,
                                        std::span<const mesh::Vec3> targets,
                                        int k) {
  CPX_REQUIRE(!donors.empty(), "build_idw_stencils: empty donor set");
  const KdTree tree(donors);
  std::vector<Stencil> stencils(targets.size());
  NeighbourLanes lanes;
  fill_idw_stencils(tree, targets, k, stencils, lanes);
  return stencils;
}

void apply_stencils(std::span<const Stencil> stencils,
                    std::span<const double> donor_field,
                    std::span<double> target_field) {
  CPX_REQUIRE(target_field.size() == stencils.size(),
              "apply_stencils: target size mismatch");
  CPX_METRICS_SCOPE("coupler/interpolate");
  if (support::metrics::enabled()) {
    // Roofline accounting: one multiply-add per stencil term; streamed
    // bytes = weights + donor indices + donor gathers + target stores.
    std::int64_t terms = 0;
    for (const Stencil& s : stencils) {
      terms += static_cast<std::int64_t>(s.donors.size());
    }
    const auto nt = static_cast<std::int64_t>(stencils.size());
    support::metrics::counter_add("coupler/interpolate_flops", 2 * terms);
    support::metrics::counter_add(
        "coupler/interpolate_bytes",
        terms * static_cast<std::int64_t>(2 * sizeof(double) +
                                          sizeof(std::int64_t)) +
            nt * static_cast<std::int64_t>(sizeof(double)));
  }
  const double* pdonor = donor_field.data();
  support::parallel_for(
      0, static_cast<std::int64_t>(stencils.size()), kStencilGrain,
      [&](std::int64_t t0, std::int64_t t1) {
        for (std::int64_t t = t0; t < t1; ++t) {
          const Stencil& s = stencils[static_cast<std::size_t>(t)];
          const auto k = static_cast<std::int64_t>(s.donors.size());
          const double* pw = s.weights.data();
          const std::int64_t* pd = s.donors.data();
          for (std::int64_t j = 0; j < k; ++j) {
            CPX_DCHECK(pd[j] >= 0 && static_cast<std::size_t>(pd[j]) <
                                         donor_field.size());
          }
          double v;
          // Width-invariant split on the stencil size alone: small
          // stencils (the common IDW k) keep the serial chain; wide
          // ones use the fixed-lane tree (docs/parallelism.md).
          if (k < support::simd::kReduceLanes) {
            v = 0.0;
            for (std::int64_t j = 0; j < k; ++j) {
              v += pw[j] * pdonor[pd[j]];
            }
          } else {
            v = support::simd::tree_reduce<kWidth>(
                0, k,
                [&](std::int64_t j) {
                  return Pack::load(pw + j) * Pack::gather(pdonor, pd + j);
                },
                [&](std::int64_t j) { return pw[j] * pdonor[pd[j]]; });
          }
          target_field[static_cast<std::size_t>(t)] = v;
        }
      });
}

void validate_stencils(std::span<const Stencil> stencils,
                       std::size_t num_donors) {
  for (std::size_t t = 0; t < stencils.size(); ++t) {
    const Stencil& s = stencils[t];
    CPX_CHECK_MSG(!s.donors.empty(), "stencil " << t << " has no donors");
    CPX_CHECK_MSG(s.donors.size() == s.weights.size(),
                  "stencil " << t << " donor/weight size mismatch");
    double sum = 0.0;
    for (std::size_t j = 0; j < s.donors.size(); ++j) {
      CPX_CHECK_MSG(s.donors[j] >= 0 &&
                        static_cast<std::size_t>(s.donors[j]) < num_donors,
                    "stencil " << t << " donor index " << s.donors[j]
                               << " out of range");
      CPX_CHECK_MSG(std::isfinite(s.weights[j]) && s.weights[j] >= 0.0,
                    "stencil " << t << " weight " << s.weights[j]
                               << " not a finite non-negative value");
      sum += s.weights[j];
    }
    CPX_CHECK_MSG(std::abs(sum - 1.0) <= 1e-9,
                  "stencil " << t << " weights sum to " << sum
                             << " (interpolation not consistent)");
  }
}

void rotate_z(std::span<const mesh::Vec3> points, double radians,
              std::span<mesh::Vec3> out) {
  CPX_REQUIRE(out.size() == points.size(), "rotate_z: size mismatch");
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  support::parallel_for(
      0, static_cast<std::int64_t>(points.size()), 4096,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const mesh::Vec3& p = points[static_cast<std::size_t>(i)];
          out[static_cast<std::size_t>(i)] = {c * p.x - s * p.y,
                                              s * p.x + c * p.y, p.z};
        }
      });
}

}  // namespace cpx::coupler
