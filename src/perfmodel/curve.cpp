#include "perfmodel/curve.hpp"

#include <array>
#include <cmath>

#include "support/check.hpp"
#include "support/lsq.hpp"

namespace cpx::perfmodel {
namespace {

constexpr int kNumBases = 4;

double basis_value(int j, double p) {
  switch (j) {
    case 0:
      return 1.0 / p;
    case 1:
      return 1.0;
    case 2:
      return std::log2(std::max(p, 1.0));
    default:
      return p;
  }
}

}  // namespace

ScalingCurve ScalingCurve::fit(std::span<const ScalingPoint> points) {
  CPX_REQUIRE(points.size() >= 2, "ScalingCurve::fit: need >= 2 points");
  for (const ScalingPoint& pt : points) {
    CPX_REQUIRE(pt.cores >= 1.0 && pt.seconds > 0.0,
                "ScalingCurve::fit: bad point (" << pt.cores << ", "
                                                 << pt.seconds << ")");
  }

  // Non-negative least squares by exhaustive enumeration of the 15
  // non-empty basis subsets: fit each subset unconstrained, keep the
  // feasible (all-non-negative) fit with the smallest weighted residual.
  // With only four bases this is both trivial and globally optimal over
  // vertex solutions — unlike one-way pruning, which can permanently drop
  // a basis the final fit needs.
  ScalingCurve curve;
  double best_sse = -1.0;
  const std::size_t m = points.size();
  for (int mask = 1; mask < (1 << kNumBases); ++mask) {
    std::vector<int> cols;
    for (int j = 0; j < kNumBases; ++j) {
      if (mask & (1 << j)) {
        cols.push_back(j);
      }
    }
    const std::size_t n = cols.size();
    if (m < n) {
      continue;
    }
    std::vector<double> a(m * n);
    std::vector<double> b(m);
    for (std::size_t r = 0; r < m; ++r) {
      // Relative-error weighting.
      const double w = 1.0 / points[r].seconds;
      for (std::size_t c = 0; c < n; ++c) {
        a[r * n + c] = w * basis_value(cols[c], points[r].cores);
      }
      b[r] = w * points[r].seconds;
    }
    // Column equilibration: the bases span ~15 orders of magnitude between
    // 1/p and p at large core counts; without scaling, the solver's ridge
    // (relative to the largest diagonal) crushes the small columns.
    std::vector<double> col_scale(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
      for (std::size_t r = 0; r < m; ++r) {
        col_scale[c] = std::max(col_scale[c], std::abs(a[r * n + c]));
      }
      if (col_scale[c] == 0.0) {
        col_scale[c] = 1.0;
      }
      for (std::size_t r = 0; r < m; ++r) {
        a[r * n + c] /= col_scale[c];
      }
    }
    std::vector<double> sol = solve_normal_equations(a, m, n, b, 1e-10);
    for (std::size_t c = 0; c < n; ++c) {
      sol[c] /= col_scale[c];
    }
    bool feasible = true;
    for (double v : sol) {
      feasible = feasible && v >= 0.0;
    }
    if (!feasible) {
      continue;
    }
    double sse = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      double fit = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        fit += sol[c] * basis_value(cols[c], points[r].cores);
      }
      const double res = (fit - points[r].seconds) / points[r].seconds;
      sse += res * res;
    }
    if (best_sse < 0.0 || sse < best_sse) {
      best_sse = sse;
      curve.coefs_ = {0.0, 0.0, 0.0, 0.0};
      for (std::size_t c = 0; c < n; ++c) {
        curve.coefs_[static_cast<std::size_t>(cols[c])] = sol[c];
      }
    }
  }
  // Degenerate fallback (all subsets infeasible): pure 1/p through the
  // first point.
  if (best_sse < 0.0) {
    curve.coefs_ = {points[0].seconds * points[0].cores, 0.0, 0.0, 0.0};
  }

  for (const ScalingPoint& pt : points) {
    const double err =
        std::abs(curve.time_at(pt.cores) - pt.seconds) / pt.seconds;
    curve.max_fit_error_ = std::max(curve.max_fit_error_, err);
  }
  return curve;
}

ScalingCurve ScalingCurve::from_coefficients(
    const std::vector<double>& coefs) {
  CPX_REQUIRE(coefs.size() == kNumBases,
              "from_coefficients: expected " << kNumBases << " values");
  for (double v : coefs) {
    CPX_REQUIRE(v >= 0.0, "from_coefficients: negative coefficient");
  }
  ScalingCurve curve;
  curve.coefs_ = coefs;
  return curve;
}

double ScalingCurve::time_at(double cores) const {
  CPX_REQUIRE(cores >= 1.0, "time_at: bad core count " << cores);
  double t = 0.0;
  for (int j = 0; j < kNumBases; ++j) {
    t += coefs_[static_cast<std::size_t>(j)] * basis_value(j, cores);
  }
  return std::max(t, 1e-12);
}

double ScalingCurve::efficiency_at(double cores, double base_cores) const {
  return (time_at(base_cores) * base_cores) / (time_at(cores) * cores);
}

}  // namespace cpx::perfmodel
