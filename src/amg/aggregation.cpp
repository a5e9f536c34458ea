#include "amg/aggregation.hpp"

#include <cmath>
#include <vector>

#include "support/check.hpp"

namespace cpx::amg {

sparse::CsrMatrix strength_graph(const sparse::CsrMatrix& a, double theta) {
  CPX_REQUIRE(a.rows() == a.cols(), "strength_graph: matrix must be square");
  CPX_REQUIRE(theta >= 0.0 && theta < 1.0, "strength_graph: bad theta");
  const std::int64_t n = a.rows();
  std::vector<double> diag(static_cast<std::size_t>(n), 0.0);
  for (std::int64_t r = 0; r < n; ++r) {
    diag[static_cast<std::size_t>(r)] = std::abs(a.at(r, r));
  }
  std::vector<sparse::Triplet> kept;
  kept.reserve(static_cast<std::size_t>(a.nnz()));
  for (std::int64_t r = 0; r < n; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const std::int64_t c = cols[i];
      if (c == r) {
        continue;
      }
      const double bound =
          theta * std::sqrt(diag[static_cast<std::size_t>(r)] *
                            diag[static_cast<std::size_t>(c)]);
      if (std::abs(vals[i]) >= bound) {
        kept.push_back({r, c, vals[i]});
      }
    }
  }
  return sparse::csr_from_triplets(n, n, kept);
}

Aggregation aggregate_greedy(const sparse::CsrMatrix& strength) {
  const std::int64_t n = strength.rows();
  Aggregation agg;
  agg.aggregate_of.assign(static_cast<std::size_t>(n), -1);

  // Pass 1: roots — a node all of whose strong neighbours are free seeds a
  // new aggregate containing itself and those neighbours.
  for (std::int64_t r = 0; r < n; ++r) {
    if (agg.aggregate_of[static_cast<std::size_t>(r)] >= 0) {
      continue;
    }
    bool all_free = true;
    for (std::int32_t c : strength.row_cols(r)) {
      if (agg.aggregate_of[static_cast<std::size_t>(c)] >= 0) {
        all_free = false;
        break;
      }
    }
    if (!all_free) {
      continue;
    }
    const auto id = static_cast<std::int32_t>(agg.num_aggregates++);
    agg.aggregate_of[static_cast<std::size_t>(r)] = id;
    for (std::int32_t c : strength.row_cols(r)) {
      agg.aggregate_of[static_cast<std::size_t>(c)] = id;
    }
  }
  // Pass 2: attach leftovers to a neighbouring aggregate, or make
  // singletons for isolated nodes.
  for (std::int64_t r = 0; r < n; ++r) {
    if (agg.aggregate_of[static_cast<std::size_t>(r)] >= 0) {
      continue;
    }
    std::int32_t target = -1;
    for (std::int32_t c : strength.row_cols(r)) {
      if (agg.aggregate_of[static_cast<std::size_t>(c)] >= 0) {
        target = agg.aggregate_of[static_cast<std::size_t>(c)];
        break;
      }
    }
    if (target < 0) {
      target = static_cast<std::int32_t>(agg.num_aggregates++);
    }
    agg.aggregate_of[static_cast<std::size_t>(r)] = target;
  }
  return agg;
}

sparse::CsrMatrix tentative_prolongator(const Aggregation& agg,
                                        std::int64_t fine_size) {
  CPX_REQUIRE(agg.aggregate_of.size() == static_cast<std::size_t>(fine_size),
              "tentative_prolongator: size mismatch");
  std::vector<sparse::Triplet> t;
  t.reserve(static_cast<std::size_t>(fine_size));
  for (std::int64_t i = 0; i < fine_size; ++i) {
    t.push_back({i, agg.aggregate_of[static_cast<std::size_t>(i)], 1.0});
  }
  return sparse::csr_from_triplets(fine_size, agg.num_aggregates, t);
}

sparse::CsrMatrix smoothing_operator(const sparse::CsrMatrix& a,
                                     double omega) {
  sparse::CsrMatrix s(a.rows(), a.cols(), a.row_offsets(), a.col_indices(),
                      support::aligned_vector<double>(a.values().size()),
                      sparse::Trusted{});
  smoothing_operator_values(a, omega, s);
  return s;
}

void smoothing_operator_values(const sparse::CsrMatrix& a, double omega,
                               sparse::CsrMatrix& s) {
  CPX_REQUIRE(sparse::same_structure(a, s),
              "smoothing_operator_values: structure mismatch");
  const auto& offsets = a.row_offsets();
  const auto& cols = a.col_indices();
  const auto& av = a.values();
  auto& sv = s.mutable_values();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const double d = a.at(r, r);
    CPX_CHECK_MSG(d != 0.0,
                  "smoothing_operator_values: zero diagonal at " << r);
    for (std::int64_t k = offsets[static_cast<std::size_t>(r)];
         k < offsets[static_cast<std::size_t>(r) + 1]; ++k) {
      const auto ks = static_cast<std::size_t>(k);
      const double base = cols[ks] == static_cast<std::int32_t>(r) ? 1.0 : 0.0;
      sv[ks] = base - omega * av[ks] / d;
    }
  }
}

namespace {

/// One damped-Jacobi smoothing application: P <- (I - omega D^-1 A) P.
sparse::CsrMatrix smooth_prolongator(const sparse::CsrMatrix& a,
                                     const sparse::CsrMatrix& p,
                                     double omega) {
  const sparse::CsrMatrix s = smoothing_operator(a, omega);
  return sparse::spgemm_spa(s, p);
}

}  // namespace

sparse::CsrMatrix build_interpolation(const sparse::CsrMatrix& a,
                                      const Aggregation& agg,
                                      InterpKind kind, double omega) {
  sparse::CsrMatrix p = tentative_prolongator(agg, a.rows());
  switch (kind) {
    case InterpKind::kTentative:
      return p;
    case InterpKind::kSmoothed:
      return smooth_prolongator(a, p, omega);
    case InterpKind::kExtended: {
      // Two applications widen the stencil to neighbours' neighbours —
      // the distance-2 coverage of extended(+i) interpolation, at the cost
      // of a denser P (and a denser Galerkin product).
      p = smooth_prolongator(a, p, omega);
      return smooth_prolongator(a, p, omega);
    }
  }
  CPX_CHECK_MSG(false, "build_interpolation: unknown kind");
}

sparse::CsrMatrix truncate_prolongator(const sparse::CsrMatrix& p,
                                       double threshold) {
  CPX_REQUIRE(threshold >= 0.0 && threshold < 1.0,
              "truncate_prolongator: bad threshold");
  if (threshold == 0.0) {
    return p;
  }
  std::vector<sparse::Triplet> kept;
  kept.reserve(static_cast<std::size_t>(p.nnz()));
  for (std::int64_t r = 0; r < p.rows(); ++r) {
    const auto cols = p.row_cols(r);
    const auto vals = p.row_values(r);
    if (cols.empty()) {
      continue;
    }
    double max_abs = 0.0;
    double row_sum = 0.0;
    for (double v : vals) {
      max_abs = std::max(max_abs, std::abs(v));
      row_sum += v;
    }
    const double cut = threshold * max_abs;
    double kept_sum = 0.0;
    std::size_t first_kept = kept.size();
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (std::abs(vals[i]) >= cut) {
        kept.push_back({r, cols[i], vals[i]});
        kept_sum += vals[i];
      }
    }
    // Rescale survivors to preserve the row sum (so constants still
    // interpolate exactly); degenerate rows keep their largest entry.
    if (kept.size() == first_kept) {
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (std::abs(vals[i]) == max_abs) {
          kept.push_back({r, cols[i], row_sum});
          break;
        }
      }
    } else if (kept_sum != 0.0 && row_sum != 0.0) {
      const double scale = row_sum / kept_sum;
      for (std::size_t i = first_kept; i < kept.size(); ++i) {
        kept[i].value *= scale;
      }
    }
  }
  return sparse::csr_from_triplets(p.rows(), p.cols(), kept);
}

}  // namespace cpx::amg
