#include "amg/hierarchy.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/snapshot.hpp"
#include "support/blas1.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::amg {
namespace {

/// In-place dense Cholesky of the row-major lower triangle held in f.
/// Returns false if a pivot is non-positive (matrix not numerically SPD
/// under the current shift).
bool cholesky_in_place(std::vector<double>& f, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    double pivot = f[static_cast<std::size_t>(k * n + k)];
    for (std::int64_t j = 0; j < k; ++j) {
      pivot -= f[static_cast<std::size_t>(k * n + j)] *
               f[static_cast<std::size_t>(k * n + j)];
    }
    if (pivot <= 0.0) {
      return false;
    }
    const double lkk = std::sqrt(pivot);
    f[static_cast<std::size_t>(k * n + k)] = lkk;
    for (std::int64_t i = k + 1; i < n; ++i) {
      double v = f[static_cast<std::size_t>(i * n + k)];
      for (std::int64_t j = 0; j < k; ++j) {
        v -= f[static_cast<std::size_t>(i * n + j)] *
             f[static_cast<std::size_t>(k * n + j)];
      }
      f[static_cast<std::size_t>(i * n + k)] = v / lkk;
    }
  }
  return true;
}

void dense_cholesky_solve(const std::vector<double>& f, std::int64_t n,
                          std::span<double> x, std::span<const double> b,
                          std::span<double> y) {
  for (std::int64_t i = 0; i < n; ++i) {
    double v = b[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < i; ++j) {
      v -= f[static_cast<std::size_t>(i * n + j)] * y[static_cast<std::size_t>(j)];
    }
    y[static_cast<std::size_t>(i)] = v / f[static_cast<std::size_t>(i * n + i)];
  }
  for (std::int64_t ii = n; ii-- > 0;) {
    double v = y[static_cast<std::size_t>(ii)];
    for (std::int64_t j = ii + 1; j < n; ++j) {
      v -= f[static_cast<std::size_t>(j * n + ii)] *
           x[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(ii)] =
        v / f[static_cast<std::size_t>(ii * n + ii)];
  }
}

}  // namespace

void AmgHierarchy::factor_coarse() {
  // Dense staging + factor buffers persist across re-factorisations, so a
  // reset_values() pays no coarse-level allocations after the first build.
  const sparse::CsrMatrix& a = levels_.back().a;
  const std::int64_t n = a.rows();
  coarse_n_ = n;
  // cpx-lint: allow(solve-alloc) — fixed size, only the first build allocates (SolverAllocations.SteadyStateResetValuesAllocatesNothing)
  coarse_dense_.assign(static_cast<std::size_t>(n * n), 0.0);
  for (std::int64_t r = 0; r < n; ++r) {
    const auto cols = a.row_cols(r);
    const auto vals = a.row_values(r);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      coarse_dense_[static_cast<std::size_t>(r * n + cols[i])] = vals[i];
    }
  }
  double max_diag = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    max_diag = std::max(max_diag,
                        std::abs(coarse_dense_[static_cast<std::size_t>(i * n + i)]));
  }
  // Retry with a growing diagonal shift if the operator is numerically
  // semi-definite (e.g. a pinned-singular pressure Laplacian coarse grid).
  double shift = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // cpx-lint: allow(solve-alloc) — fixed size, only the first build allocates (SolverAllocations.SteadyStateResetValuesAllocatesNothing)
    coarse_factor_.assign(coarse_dense_.begin(), coarse_dense_.end());
    if (shift != 0.0) {
      for (std::int64_t i = 0; i < n; ++i) {
        coarse_factor_[static_cast<std::size_t>(i * n + i)] += shift;
      }
    }
    if (cholesky_in_place(coarse_factor_, n)) {
      // cpx-lint: allow(solve-alloc) — fixed size, only the first build allocates (SolverAllocations.SteadyStateResetValuesAllocatesNothing)
      coarse_y_.assign(static_cast<std::size_t>(n), 0.0);
      return;
    }
    shift = shift == 0.0 ? 1e-12 * std::max(max_diag, 1.0) : shift * 100.0;
  }
  CPX_CHECK_MSG(false, "factor_coarse: coarse operator not SPD");
}

AmgHierarchy::AmgHierarchy(sparse::CsrMatrix a, const AmgOptions& options)
    : options_(options) {
  CPX_REQUIRE(a.rows() == a.cols(), "AmgHierarchy: matrix must be square");
  CPX_REQUIRE(options.max_levels >= 1, "AmgHierarchy: bad max_levels");
  CPX_METRICS_SCOPE("amg/setup");

  levels_.push_back({std::move(a), {}, {}});
  // Level l uses theta * 2^-l (see AmgOptions::strength_theta): with a
  // fixed theta most coarse nodes have no strong neighbour and coarsening
  // stalls.
  double theta = options_.strength_theta;
  while (num_levels() < options_.max_levels &&
         levels_.back().a.rows() > options_.coarse_size) {
    const sparse::CsrMatrix& fine = levels_.back().a;
    const sparse::CsrMatrix strength = strength_graph(fine, theta);
    theta *= 0.5;
    const Aggregation agg = aggregate_greedy(strength);
    if (agg.num_aggregates >= fine.rows()) {
      break;  // no coarsening progress (e.g. fully decoupled matrix)
    }

    // Interpolation, with the pieces reset_values() needs kept around:
    // the smoothing operator S, the tentative P, and the SpGEMM plans of
    // every product (structures adopted from the products computed here, so
    // capturing them costs no extra symbolic pass).
    Resetup rs;
    sparse::CsrMatrix p_tent = tentative_prolongator(agg, fine.rows());
    sparse::CsrMatrix p;
    if (options_.interp == InterpKind::kTentative) {
      p = std::move(p_tent);
      rs.p_frozen = true;  // tentative P is constant (all ones): no refresh
    } else {
      rs.s = smoothing_operator(fine, options_.interp_omega);
      if (options_.interp == InterpKind::kSmoothed) {
        p = sparse::spgemm_spa(rs.s, p_tent);
        rs.sp_plan = sparse::SpgemmPlan(rs.s, p_tent, p);
      } else {  // kExtended: two smoothing applications
        rs.p_mid = sparse::spgemm_spa(rs.s, p_tent);
        rs.sp_plan = sparse::SpgemmPlan(rs.s, p_tent, rs.p_mid);
        p = sparse::spgemm_spa(rs.s, rs.p_mid);
        rs.sp_plan2 = sparse::SpgemmPlan(rs.s, rs.p_mid, p);
      }
      rs.p_tent = std::move(p_tent);
    }
    if (options_.interp_truncation > 0.0) {
      // Truncated sparsity depends on P's values, so a numeric-only refresh
      // cannot reproduce it: freeze P/R and drop the smoothing state.
      p = truncate_prolongator(p, options_.interp_truncation);
      rs.p_frozen = true;
      rs.s = {};
      rs.p_tent = {};
      rs.p_mid = {};
      rs.sp_plan = {};
      rs.sp_plan2 = {};
    }

    sparse::CsrMatrix r = sparse::transpose(p);
    if (!rs.p_frozen) {
      rs.r_perm = sparse::transpose_permutation(p, r);
    }
    sparse::CsrMatrix ap = options_.spgemm == SpgemmKind::kSpa
                               ? sparse::spgemm_spa(fine, p)
                               : sparse::spgemm_twopass(fine, p);
    sparse::CsrMatrix coarse = options_.spgemm == SpgemmKind::kSpa
                                   ? sparse::spgemm_spa(r, ap)
                                   : sparse::spgemm_twopass(r, ap);
    rs.ap_plan = sparse::SpgemmPlan(fine, p, ap);
    rs.rap_plan = sparse::SpgemmPlan(r, ap, coarse);
    rs.ap = std::move(ap);
    levels_.back().p = std::move(p);
    levels_.back().r = std::move(r);
    resetup_.push_back(std::move(rs));
    levels_.push_back({std::move(coarse), {}, {}});
  }

  factor_coarse();

  scratch_.resize(levels_.size());
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const auto n = static_cast<std::size_t>(levels_[l].a.rows());
    scratch_[l].r.assign(n, 0.0);
    scratch_[l].tmp.assign(n, 0.0);
    if (l + 1 < levels_.size()) {
      const auto nc = static_cast<std::size_t>(levels_[l + 1].a.rows());
      scratch_[l].bc.assign(nc, 0.0);
      scratch_[l].xc.assign(nc, 0.0);
      if (options_.cycle != CycleKind::kV) {
        scratch_[l].kres.assign(nc, 0.0);
        scratch_[l].kz.assign(nc, 0.0);
        if (options_.cycle == CycleKind::kK) {
          scratch_[l].kp.assign(nc, 0.0);
          scratch_[l].kap.assign(nc, 0.0);
        }
      }
    }
  }

  if (check::deep()) {
    validate();
  }
}

void AmgHierarchy::validate() const {
  CPX_CHECK_MSG(!levels_.empty(), "hierarchy has no levels");
  CPX_CHECK_MSG(resetup_.size() == levels_.size() - 1,
                "resetup cache count " << resetup_.size()
                                       << " != transitions "
                                       << levels_.size() - 1);
  CPX_CHECK_MSG(scratch_.size() == levels_.size(),
                "scratch count != level count");
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    const Level& lv = levels_[l];
    lv.a.validate();
    CPX_CHECK_MSG(lv.a.rows() == lv.a.cols(),
                  "level " << l << " operator not square");
    for (std::int64_t r = 0; r < lv.a.rows(); ++r) {
      CPX_CHECK_MSG(lv.a.at(r, r) > 0.0,
                    "level " << l << " diagonal not positive at row " << r
                             << " (operator not SPD)");
    }
    CPX_CHECK_MSG(
        scratch_[l].r.size() == static_cast<std::size_t>(lv.a.rows()) &&
            scratch_[l].tmp.size() == static_cast<std::size_t>(lv.a.rows()),
        "level " << l << " scratch not sized to the operator");

    if (l + 1 == levels_.size()) {
      break;  // coarsest level has no transfer operators
    }
    const sparse::CsrMatrix& coarse = levels_[l + 1].a;
    lv.p.validate();
    lv.r.validate();
    CPX_CHECK_MSG(lv.p.rows() == lv.a.rows() && lv.p.cols() == coarse.rows(),
                  "level " << l << " prolongator shape " << lv.p.rows() << "x"
                           << lv.p.cols() << " inconsistent with operators");
    CPX_CHECK_MSG(lv.r.rows() == lv.p.cols() && lv.r.cols() == lv.p.rows() &&
                      lv.r.nnz() == lv.p.nnz(),
                  "level " << l << " restriction is not a transpose of P");

    // Frozen-sparsity contract of reset_values(): the cached Galerkin
    // plans and product buffers must still describe exactly these
    // operators, otherwise a numeric-only refresh would scatter values
    // into the wrong structure.
    const Resetup& rs = resetup_[l];
    CPX_CHECK_MSG(rs.ap.rows() == lv.a.rows() &&
                      rs.ap.cols() == lv.p.cols() &&
                      rs.ap_plan.rows() == lv.a.rows() &&
                      rs.ap_plan.cols() == lv.p.cols() &&
                      rs.ap_plan.nnz() == rs.ap.nnz(),
                  "level " << l << " A*P plan out of sync with its product");
    CPX_CHECK_MSG(rs.rap_plan.rows() == lv.r.rows() &&
                      rs.rap_plan.cols() == lv.p.cols() &&
                      rs.rap_plan.nnz() == coarse.nnz(),
                  "level " << l
                           << " Galerkin plan out of sync with the coarse "
                              "operator");
    if (!rs.p_frozen) {
      CPX_CHECK_MSG(rs.r_perm.size() == static_cast<std::size_t>(lv.p.nnz()),
                    "level " << l << " transpose permutation size mismatch");
      CPX_CHECK_MSG(sparse::same_structure(rs.s, lv.a),
                    "level " << l
                             << " smoothing operator lost A's structure");
      CPX_CHECK_MSG(rs.p_tent.rows() == lv.a.rows(),
                    "level " << l << " tentative prolongator row mismatch");
    }
  }
  const sparse::CsrMatrix& coarsest = levels_.back().a;
  CPX_CHECK_MSG(coarse_n_ == coarsest.rows(),
                "coarse factor order " << coarse_n_ << " != coarsest rows "
                                       << coarsest.rows());
  CPX_CHECK_MSG(coarse_factor_.size() ==
                    static_cast<std::size_t>(coarse_n_ * coarse_n_),
                "coarse Cholesky factor not n*n");
}

void AmgHierarchy::reset_values(const sparse::CsrMatrix& a) {
  CPX_REQUIRE(sparse::same_structure(a, levels_.front().a),
              "reset_values: matrix structure differs from the setup matrix");
  CPX_METRICS_SCOPE("amg/resetup");
  support::metrics::counter_add("amg/resetup", 1);

  levels_.front().a.mutable_values() = a.values();
  for (std::size_t l = 0; l + 1 < levels_.size(); ++l) {
    Level& lv = levels_[l];
    Resetup& rs = resetup_[l];
    if (!rs.p_frozen) {
      smoothing_operator_values(lv.a, options_.interp_omega, rs.s);
      if (options_.interp == InterpKind::kSmoothed) {
        rs.sp_plan.numeric_into(rs.s, rs.p_tent, lv.p);
      } else {  // kExtended
        rs.sp_plan.numeric_into(rs.s, rs.p_tent, rs.p_mid);
        rs.sp_plan2.numeric_into(rs.s, rs.p_mid, lv.p);
      }
      sparse::transpose_numeric(lv.p, rs.r_perm, lv.r);
    }
    rs.ap_plan.numeric_into(lv.a, lv.p, rs.ap);
    rs.rap_plan.numeric_into(lv.r, rs.ap, levels_[l + 1].a);
  }
  factor_coarse();

  if (check::deep()) {
    validate();
  }
}

void AmgHierarchy::serialize(ckpt::Writer& w) const {
  const sparse::CsrMatrix& fine = levels_.front().a;
  w.begin_section("amg/hierarchy");
  w.put_u32(static_cast<std::uint32_t>(num_levels()));
  w.put_i64(fine.rows());
  w.put_i64(fine.nnz());
  w.put_f64_span(fine.values());
  w.end_section();
}

void AmgHierarchy::restore(ckpt::Reader& r) {
  r.open_section("amg/hierarchy");
  const auto levels = static_cast<int>(r.get_u32());
  const std::int64_t rows = r.get_i64();
  const std::int64_t nnz = r.get_i64();
  const sparse::CsrMatrix& fine = levels_.front().a;
  CPX_CHECK_MSG(levels == num_levels() && rows == fine.rows() &&
                    nnz == fine.nnz(),
                "AmgHierarchy::restore: snapshot was taken from a different "
                "hierarchy (" << levels << " levels, " << rows << "x" << nnz
                              << " fine operator)");
  support::aligned_vector<double> values;
  r.get_f64_vec(values);
  CPX_CHECK_MSG(static_cast<std::int64_t>(values.size()) == nnz,
                "AmgHierarchy::restore: fine values truncated");
  r.end_section();
  // Replay the numeric-only re-setup: coarse operators, transfer values,
  // and the coarse factor are deterministic functions of the fine values,
  // so this reproduces the checkpointed hierarchy bitwise.
  sparse::CsrMatrix a(fine.rows(), fine.cols(), fine.row_offsets(),
                      fine.col_indices(), std::move(values),
                      sparse::Trusted{});
  reset_values(a);
}

const Level& AmgHierarchy::level(int l) const {
  CPX_REQUIRE(l >= 0 && l < num_levels(), "AmgHierarchy: bad level " << l);
  return levels_[static_cast<std::size_t>(l)];
}

double AmgHierarchy::operator_complexity() const {
  double total = 0.0;
  for (const Level& l : levels_) {
    total += static_cast<double>(l.a.nnz());
  }
  return total / static_cast<double>(levels_.front().a.nnz());
}

void AmgHierarchy::coarse_solve(std::span<double> x,
                                std::span<const double> b) {
  dense_cholesky_solve(coarse_factor_, coarse_n_, x, b, coarse_y_);
}

void AmgHierarchy::cycle_at(int level, std::span<double> x,
                            std::span<const double> b) {
  if (level == num_levels() - 1) {
    coarse_solve(x, b);
    return;
  }
  Level& lv = levels_[static_cast<std::size_t>(level)];
  Scratch& sc = scratch_[static_cast<std::size_t>(level)];

  for (int s = 0; s < options_.pre_sweeps; ++s) {
    smooth(lv.a, x, b, options_.smoother, sc.tmp);
  }
  residual(lv.a, x, b, sc.r);
  sparse::spmv(lv.r, sc.r, sc.bc);
  std::fill(sc.xc.begin(), sc.xc.end(), 0.0);

  if (options_.cycle == CycleKind::kV || level + 1 == num_levels() - 1) {
    cycle_at(level + 1, sc.xc, sc.bc);
  } else if (options_.cycle == CycleKind::kW) {
    // W-cycle: recurse twice, re-forming the coarse residual in between.
    // The recursion at level+1 works out of scratch_[level+1], so this
    // level's coarse-sized buffers stay live across it.
    cycle_at(level + 1, sc.xc, sc.bc);
    const auto& ac = levels_[static_cast<std::size_t>(level) + 1].a;
    residual(ac, sc.xc, sc.bc, sc.kres);
    std::fill(sc.kz.begin(), sc.kz.end(), 0.0);
    cycle_at(level + 1, sc.kz, sc.kres);
    support::blas1::xpby(sc.kz, 1.0, sc.xc);  // xc += correction
  } else {
    // K-cycle: a few steps of preconditioned CG on the coarse problem with
    // the next level's cycle as the preconditioner (Krylov acceleration of
    // the MG cycle; better convergence, more coarse work and collectives).
    const auto& ac = levels_[static_cast<std::size_t>(level) + 1].a;
    auto& res = sc.kres;
    auto& z = sc.kz;
    auto& p = sc.kp;
    auto& ap = sc.kap;
    std::copy(sc.bc.begin(), sc.bc.end(), res.begin());  // residual of xc = 0
    std::fill(z.begin(), z.end(), 0.0);
    cycle_at(level + 1, z, res);
    std::copy(z.begin(), z.end(), p.begin());
    double rz = support::blas1::dot(res, z);
    for (int it = 0; it < options_.kcycle_steps && rz != 0.0; ++it) {
      sparse::spmv(ac, p, ap);
      const double pap = support::blas1::dot(p, ap);
      if (pap <= 0.0) {
        break;
      }
      const double alpha = rz / pap;
      support::blas1::axpy2(alpha, p, ap, sc.xc, res);
      if (it + 1 == options_.kcycle_steps) {
        break;
      }
      std::fill(z.begin(), z.end(), 0.0);
      cycle_at(level + 1, z, res);
      const double rz_new = support::blas1::dot(res, z);
      const double beta = rz_new / rz;
      rz = rz_new;
      support::blas1::xpby(z, beta, p);
    }
  }

  // x += P xc in one pass.
  sparse::spmv_add(lv.p, sc.xc, x, 1.0);
  for (int s = 0; s < options_.post_sweeps; ++s) {
    smooth(lv.a, x, b, options_.smoother, sc.tmp);
  }
}

void AmgHierarchy::cycle(std::span<double> x, std::span<const double> b) {
  CPX_REQUIRE(x.size() == static_cast<std::size_t>(levels_.front().a.rows()),
              "cycle: x size mismatch");
  CPX_REQUIRE(b.size() == x.size(), "cycle: b size mismatch");
  CPX_METRICS_SCOPE("amg/cycle");
  cycle_at(0, x, b);
}

int AmgHierarchy::solve(std::span<double> x, std::span<const double> b,
                        double tol, int max_cycles) {
  const double bnorm2 = support::blas1::norm2_squared(b);
  if (bnorm2 == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    return 0;
  }
  const double stop2 = tol * tol * bnorm2;
  for (int c = 1; c <= max_cycles; ++c) {
    cycle(x, b);
    support::metrics::counter_add("amg/solve_cycles", 1);
    // Fused residual + norm (one sweep) into the level-0 scratch, which is
    // idle between cycles.
    const double rnorm2 = sparse::spmv_residual_norm2(
        levels_.front().a, x, b, scratch_.front().r);
    if (rnorm2 <= stop2) {
      return c;
    }
  }
  return max_cycles + 1;
}

}  // namespace cpx::amg
