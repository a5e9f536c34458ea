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

/// Inverse-distance weights with an exact-hit guard.
void fill_idw_weights(Stencil& s, const std::vector<mesh::Vec3>& donors,
                      const mesh::Vec3& t) {
  s.weights.assign(s.donors.size(), 0.0);
  double total = 0.0;
  bool exact = false;
  for (std::size_t j = 0; j < s.donors.size(); ++j) {
    const double d2 =
        distance_squared(donors[static_cast<std::size_t>(s.donors[j])], t);
    if (d2 < 1e-24) {
      std::fill(s.weights.begin(), s.weights.end(), 0.0);
      s.weights[j] = 1.0;
      exact = true;
      break;
    }
    s.weights[j] = 1.0 / std::sqrt(d2);
    total += s.weights[j];
  }
  if (!exact) {
    for (double& w : s.weights) {
      w /= total;
    }
  }
}

}  // namespace

std::vector<Stencil> build_idw_stencils(
    const std::vector<mesh::Vec3>& donors,
    const std::vector<mesh::Vec3>& targets, int k) {
  CPX_REQUIRE(!donors.empty(), "build_idw_stencils: empty donor set");
  CPX_REQUIRE(k >= 1, "build_idw_stencils: bad k");
  CPX_METRICS_SCOPE("coupler/map_build");
  const int kk = std::min<int>(k, static_cast<int>(donors.size()));
  const auto nt = static_cast<std::int64_t>(targets.size());

  // Targets are independent, so the interface mapping parallelises over
  // them; each target writes its own pre-allocated stencil slot. Stencils
  // are rebuilt on every remap — every step of a sliding plane.
  std::vector<Stencil> stencils(targets.size());
  const KdTree tree(donors);
  // Exact k-nearest queries: donors come out in ascending (distance,
  // index) order, the first kk entries of a full sort.
  support::parallel_for(0, nt, kStencilGrain, [&](std::int64_t t0,
                                                  std::int64_t t1) {
    std::vector<KdTree::Neighbour> nearest(static_cast<std::size_t>(kk));
    for (std::int64_t t = t0; t < t1; ++t) {
      const mesh::Vec3& target = targets[static_cast<std::size_t>(t)];
      tree.k_nearest(target, nearest);
      Stencil& s = stencils[static_cast<std::size_t>(t)];
      s.donors.resize(static_cast<std::size_t>(kk));
      for (int j = 0; j < kk; ++j) {
        s.donors[static_cast<std::size_t>(j)] =
            nearest[static_cast<std::size_t>(j)].index;
      }
      fill_idw_weights(s, donors, target);
    }
  });
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
                       std::size_t num_donors, bool partition_of_unity) {
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
    if (partition_of_unity) {
      CPX_CHECK_MSG(std::abs(sum - 1.0) <= 1e-9,
                    "stencil " << t << " weights sum to " << sum
                               << " (interpolation not consistent)");
    }
  }
}

std::vector<Stencil> make_conservative(std::span<const Stencil> stencils,
                                       std::size_t num_donors) {
  // Column sums of the transfer operator: how much of each donor's value
  // the consistent stencils distribute in total.
  std::vector<double> donor_total(num_donors, 0.0);
  for (const Stencil& s : stencils) {
    for (std::size_t j = 0; j < s.donors.size(); ++j) {
      CPX_REQUIRE(static_cast<std::size_t>(s.donors[j]) < num_donors,
                  "make_conservative: donor index out of range");
      donor_total[static_cast<std::size_t>(s.donors[j])] += s.weights[j];
    }
  }
  // Dividing each weight by its donor's column sum makes every reached
  // donor distribute exactly its own value (columns sum to 1).
  std::vector<Stencil> out(stencils.begin(), stencils.end());
  for (Stencil& s : out) {
    for (std::size_t j = 0; j < s.donors.size(); ++j) {
      const double total =
          donor_total[static_cast<std::size_t>(s.donors[j])];
      if (total > 0.0) {
        s.weights[j] /= total;
      }
    }
  }
  return out;
}

std::vector<mesh::Vec3> rotate_z(const std::vector<mesh::Vec3>& points,
                                 double radians) {
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  std::vector<mesh::Vec3> out(points.size());
  support::parallel_for(
      0, static_cast<std::int64_t>(points.size()), 4096,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const mesh::Vec3& p = points[static_cast<std::size_t>(i)];
          out[static_cast<std::size_t>(i)] = {c * p.x - s * p.y,
                                              s * p.x + c * p.y, p.z};
        }
      });
  return out;
}

}  // namespace cpx::coupler
