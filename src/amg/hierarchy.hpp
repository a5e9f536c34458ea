#pragma once
// AMG hierarchy setup and cycling (V-cycle and Krylov-accelerated K-cycle).
//
// Setup: strength graph -> greedy aggregation -> interpolation (tentative /
// smoothed / extended) -> Galerkin coarse operator R A P, repeated until
// the coarse problem is small enough for a direct dense Cholesky solve.
// The SpGEMM used in the Galerkin product is selectable (two-pass baseline
// vs SPA single-pass) so the §IV-B ablation can compare setup costs on
// identical hierarchies.

#include <cstdint>
#include <span>
#include <vector>

#include "amg/aggregation.hpp"
#include "amg/smoothers.hpp"
#include "sparse/csr.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::amg {

enum class CycleKind { kV, kW, kK };
enum class SpgemmKind { kTwoPass, kSpa };

struct AmgOptions {
  /// Strength-of-connection threshold on the finest level. Level l uses
  /// strength_theta · 2^-l (Vaněk, Mandel & Brezina 1996), so the coarse
  /// Galerkin operators, whose off-diagonal weight is spread over more
  /// entries, keep enough strong couplings to aggregate.
  double strength_theta = 0.08;
  int max_levels = 10;
  std::int64_t coarse_size = 64;    ///< direct-solve threshold
  InterpKind interp = InterpKind::kSmoothed;
  double interp_omega = 0.66;
  /// Prolongator truncation threshold (0 = off); see truncate_prolongator.
  double interp_truncation = 0.0;
  SmootherOptions smoother;
  int pre_sweeps = 1;
  int post_sweeps = 1;
  CycleKind cycle = CycleKind::kV;  ///< kW visits each coarse level twice
  int kcycle_steps = 2;             ///< inner Krylov steps per level (K-cycle)
  SpgemmKind spgemm = SpgemmKind::kSpa;
};

/// One level of the hierarchy.
struct Level {
  sparse::CsrMatrix a;
  sparse::CsrMatrix p;  ///< interpolation to this level from the next-coarser
  sparse::CsrMatrix r;  ///< restriction (P^T)
};

class AmgHierarchy {
 public:
  /// Builds the hierarchy for SPD matrix `a`.
  AmgHierarchy(sparse::CsrMatrix a, const AmgOptions& options);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const Level& level(int l) const;
  const AmgOptions& options() const { return options_; }

  /// Total stored nonzeros across all level operators, relative to the fine
  /// matrix (grid complexity indicator).
  double operator_complexity() const;

  /// Numeric-only re-setup for a matrix with the SAME sparsity as the one
  /// the hierarchy was built from but (possibly) different values — the
  /// fixed-mesh case of the coupled workflow, where the pressure operator's
  /// coefficients change every step but its structure never does. Keeps the
  /// strength graph, aggregation, interpolation sparsity, Galerkin SpGEMM
  /// plans, and the coarse Cholesky layout; re-runs only the numeric
  /// passes (smoother values, plan numerics, transpose permutation scatter,
  /// in-place re-factorisation). With identical values the resulting
  /// hierarchy is bitwise identical to a fresh build; with perturbed values
  /// it reuses the original aggregation (standard practice — the aggregates
  /// depend on the strength pattern, which the fixed mesh preserves). When
  /// interp_truncation > 0 the truncated P/R sparsity is value-dependent,
  /// so P, R, and the smoother are kept frozen at their original values and
  /// only the Galerkin products and coarse factor are refreshed.
  void reset_values(const sparse::CsrMatrix& a);

  /// One multigrid cycle on A x = b (x is updated in place).
  void cycle(std::span<double> x, std::span<const double> b);

  /// Runs cycles until ||r||/||b|| <= tol or max_cycles; returns the number
  /// of cycles used (max_cycles + 1 if not converged).
  int solve(std::span<double> x, std::span<const double> b, double tol,
            int max_cycles);

  /// Deep invariant walk (tier 2, see support/check.hpp): per-level CSR
  /// structure, square operators with positive stored diagonals (an SPD
  /// necessary condition), transfer-operator shape chains P/R, the frozen
  /// sparsity the reset_values() fast path relies on (Galerkin plan shapes
  /// matching the cached products), and coarse factor / scratch sizing.
  /// Throws CheckError on violation. Runs automatically after setup and
  /// reset_values when check::deep() is on.
  void validate() const;

  /// Snapshot section "amg/hierarchy" (docs/checkpoint.md): the fine-level
  /// operator values only. The sparsity, aggregation, transfer operators,
  /// and coarse factor are deterministic functions of the fine matrix, so
  /// restore validates the stored shape against this hierarchy and replays
  /// the reset_values() numeric path — cheaper and smaller than persisting
  /// every level, and bitwise identical by the reset_values contract.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  void cycle_at(int level, std::span<double> x, std::span<const double> b);
  void coarse_solve(std::span<double> x, std::span<const double> b);
  void factor_coarse();

  AmgOptions options_;  ///< construction config // cpx-lint: allow(ckpt)
  std::vector<Level> levels_;

  // Cached setup state for reset_values: everything needed to re-run the
  // numeric passes of the transition level -> level+1 without re-deriving
  // structure. One entry per transition (num_levels() - 1 of them).
  struct Resetup {
    sparse::CsrMatrix s;       ///< I − ωD⁻¹A (A's structure); smoothed/extended
    sparse::CsrMatrix p_tent;  ///< tentative prolongator
    sparse::CsrMatrix p_mid;   ///< S·P_tent intermediate (extended only)
    sparse::SpgemmPlan sp_plan;    ///< S × P_tent (→ p_mid for extended)
    sparse::SpgemmPlan sp_plan2;   ///< S × p_mid → P (extended only)
    std::vector<std::int64_t> r_perm;  ///< transpose permutation P → R
    sparse::CsrMatrix ap;          ///< A·P product buffer
    sparse::SpgemmPlan ap_plan;    ///< A × P → AP
    sparse::SpgemmPlan rap_plan;   ///< R × AP → coarse A
    bool p_frozen = false;  ///< truncation on: P/R/S values stay fixed
  };
  // Refreshed by the reset_values() replay on restore.
  std::vector<Resetup> resetup_;  // cpx-lint: allow(ckpt)

  // Dense Cholesky factor of the coarsest operator (row-major lower), plus
  // the dense staging/solve buffers kept across re-factorisations.
  std::vector<double> coarse_factor_;  // cpx-lint: allow(ckpt)
  std::vector<double> coarse_dense_;   // cpx-lint: allow(ckpt)
  std::vector<double> coarse_y_;       // cpx-lint: allow(ckpt)
  std::int64_t coarse_n_ = 0;          // cpx-lint: allow(ckpt)

  // Per-level scratch vectors (residual, correction, smoother scratch, and
  // the coarse-sized W-/K-cycle work vectors), sized once at setup so the
  // cycles allocate nothing in steady state. 64-byte-aligned for the SIMD
  // smoother/blas1 kernels they feed.
  struct Scratch {
    support::aligned_vector<double> r;
    support::aligned_vector<double> bc;
    support::aligned_vector<double> xc;
    support::aligned_vector<double> tmp;
    support::aligned_vector<double> kres;  ///< K-cycle / W-cycle residual
    support::aligned_vector<double> kz;    ///< K-cycle z / W-cycle correction
    support::aligned_vector<double> kp;
    support::aligned_vector<double> kap;
  };
  std::vector<Scratch> scratch_;  // cpx-lint: allow(ckpt)
};

}  // namespace cpx::amg
