#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace cpx {

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) {
    return s;
  }
  s.min = values.front();
  s.max = values.front();
  for (double v : values) {
    s.sum += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = s.sum / static_cast<double>(s.count);
  if (s.count > 1) {
    double ss = 0.0;
    for (double v : values) {
      const double d = v - s.mean;
      ss += d * d;
    }
    s.stddev = std::sqrt(ss / static_cast<double>(s.count - 1));
  }
  return s;
}

double relative_error(double measured, double reference) {
  CPX_REQUIRE(reference != 0.0, "relative_error: reference must be non-zero");
  return std::abs(measured - reference) / std::abs(reference);
}

double percent_error(double measured, double reference) {
  return 100.0 * relative_error(measured, reference);
}

}  // namespace cpx
