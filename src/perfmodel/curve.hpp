#pragma once
// Runtime scaling curves for the empirical performance model (§V).
//
// The model benchmarks each mini-app standalone across core counts,
// producing (cores, seconds) points, and fits a curve so runtime can be
// evaluated at any core count. The curve family
//     T(p) = a/p + b + c*log2(p) + d*p
// covers the behaviours present in the coupled workload: parallel work
// (a/p), per-rank floors (b), collectives (c*log2 p), and serial chains /
// linear collectives (d*p). Coefficients are constrained non-negative —
// negative terms would make extrapolated runtimes dip or go negative —
// via iterated least squares with active-set pruning.

#include <span>
#include <vector>

namespace cpx::perfmodel {

struct ScalingPoint {
  double cores = 0.0;
  double seconds = 0.0;
};

class ScalingCurve {
 public:
  ScalingCurve() = default;

  /// Least-squares fit with non-negative coefficients; needs >= 2 points.
  /// Points are weighted by 1/seconds^2 so small (high-core) runtimes are
  /// fitted as accurately as large ones (relative error weighting).
  static ScalingCurve fit(std::span<const ScalingPoint> points);

  /// Predicted runtime at a core count (extrapolates beyond the data).
  double time_at(double cores) const;

  /// Parallel efficiency at `cores` relative to `base_cores`.
  double efficiency_at(double cores, double base_cores) const;

  /// Fitted coefficients {a, b, c, d} for T(p) = a/p + b + c*log2 p + d*p.
  const std::vector<double>& coefficients() const { return coefs_; }

  /// Largest relative error of the fit over the input points.
  double max_fit_error() const { return max_fit_error_; }

  /// Rebuilds a curve from stored coefficients {a, b, c, d} (persistence).
  static ScalingCurve from_coefficients(const std::vector<double>& coefs);

 private:
  std::vector<double> coefs_ = {0.0, 0.0, 0.0, 0.0};
  double max_fit_error_ = 0.0;
};

}  // namespace cpx::perfmodel
