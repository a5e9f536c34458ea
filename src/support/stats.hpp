#pragma once
// Small statistics helpers shared by the performance model, the benchmark
// harness and the experiment reports.

#include <cstddef>
#include <span>
#include <vector>

namespace cpx {

/// Summary statistics over a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;
};

Summary summarize(std::span<const double> values);

/// Relative error |measured - reference| / |reference|, as a fraction.
double relative_error(double measured, double reference);

/// Percentage error, 100 * relative_error.
double percent_error(double measured, double reference);

}  // namespace cpx
