#pragma once
// Aggregation-based coarsening and interpolation operators for AMG.
//
// The production pressure solver uses aggregate algebraic multigrid; we
// implement the standard pipeline: strength-of-connection filtering,
// greedy aggregation, a piecewise-constant tentative prolongator, and the
// smoothed / distance-2 ("extended", cf. extended+i in the paper) variants
// the optimisation study considers.

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace cpx::amg {

enum class InterpKind {
  kTentative,  ///< piecewise-constant aggregates
  kSmoothed,   ///< one damped-Jacobi smoothing of the tentative P
  kExtended    ///< two smoothing applications: distance-2 neighbours enter
};

/// Strength graph: keeps entry (i,j) iff |a_ij| >= theta*sqrt(|a_ii a_jj|).
/// The result has the same row structure as `a` restricted to strong
/// off-diagonal connections (diagonal excluded).
sparse::CsrMatrix strength_graph(const sparse::CsrMatrix& a, double theta);

/// Greedy aggregation over the strength graph. Every node ends up in
/// exactly one aggregate; returns the aggregate id per node and the count.
struct Aggregation {
  std::vector<std::int32_t> aggregate_of;
  std::int64_t num_aggregates = 0;
};
Aggregation aggregate_greedy(const sparse::CsrMatrix& strength);

/// Tentative prolongator: P(i, agg(i)) = 1.
sparse::CsrMatrix tentative_prolongator(const Aggregation& agg,
                                        std::int64_t fine_size);

/// The prolongator-smoothing operator S = I − ω D⁻¹ A. S has exactly A's
/// sparsity, explicit zeros included (A stores its full diagonal): it is a
/// copy of A's offsets and columns whose values smoothing_operator_values
/// fills, so set-up and re-setup share one spelling of S.
sparse::CsrMatrix smoothing_operator(const sparse::CsrMatrix& a,
                                     double omega);

/// Numeric-only refresh of S for new A values over identical structure
/// (allocation-free; the AMG re-setup path). Throws CheckError on a zero
/// or missing diagonal.
void smoothing_operator_values(const sparse::CsrMatrix& a, double omega,
                               sparse::CsrMatrix& s);

/// Builds the interpolation operator of the requested kind from A and the
/// aggregation. omega is the Jacobi damping for the smoothed variants.
sparse::CsrMatrix build_interpolation(const sparse::CsrMatrix& a,
                                      const Aggregation& agg,
                                      InterpKind kind, double omega = 0.66);

/// Prolongator truncation (operator-complexity control): drops entries
/// with |v| < threshold * max|row| and rescales each row to preserve its
/// sum — standard practice to keep the denser (smoothed/extended)
/// interpolations from inflating the Galerkin products.
sparse::CsrMatrix truncate_prolongator(const sparse::CsrMatrix& p,
                                       double threshold);

}  // namespace cpx::amg
