#pragma once
// SIMPIC numerics: a 1-D electrostatic particle-in-cell code, reimplemented
// from the published description of the Sandia/LECAD SIMPIC mini-app.
//
// Normalised units: the plasma frequency of a uniform electron background
// at density n0 = 1 is omega_p = 1 (q/m = -1, epsilon_0 = 1, immobile
// neutralising ion background). Each timestep:
//   1. deposit particle charge to the grid (CIC / linear weighting),
//   2. solve the 1-D Poisson equation  -phi'' = rho  (Thomas algorithm,
//      Dirichlet phi = 0 at both walls),
//   3. difference E = -dphi/dx onto the grid,
//   4. gather E at particle positions (linear interpolation) and advance
//      particles with the leapfrog scheme,
//   5. apply boundary conditions (periodic or absorbing walls).
//
// This class provides the real physics at test/example scale; the
// distributed performance behaviour (including the serial inter-rank
// pipeline of the field solve) is modelled by simpic::Instance.

#include <cstdint>
#include <span>
#include <vector>

#include "support/aligned.hpp"
#include "support/rng.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::simpic {

enum class Boundary { kPeriodic, kAbsorbing };

struct PicOptions {
  std::int64_t cells = 128;
  double length = 1.0;
  double dt = 0.05;  ///< in units of 1/omega_p
  Boundary boundary = Boundary::kPeriodic;
  std::uint64_t seed = 1234;
};

struct PicDiagnostics {
  double kinetic_energy = 0.0;
  double field_energy = 0.0;
  double total_charge = 0.0;  ///< particle charge deposited on the grid
  std::int64_t num_particles = 0;
};

class Pic {
 public:
  explicit Pic(const PicOptions& options);

  /// Loads `per_cell` particles per cell, uniformly spaced with thermal
  /// velocity `v_thermal`, and a sinusoidal position perturbation of
  /// relative amplitude `perturbation` (mode 1).
  void load_uniform(int per_cell, double v_thermal = 0.0,
                    double perturbation = 0.0);

  /// Adds one particle (weight w is its charge contribution).
  void add_particle(double x, double v, double weight);

  /// Sets the neutralising ion background density (load_uniform sets it to
  /// 1; manual particle loading must set it so the plasma is neutral).
  void set_background(double density);

  std::int64_t num_particles() const {
    return static_cast<std::int64_t>(x_.size());
  }
  std::int64_t num_nodes() const { return options_.cells + 1; }

  const support::aligned_vector<double>& positions() const { return x_; }
  const support::aligned_vector<double>& velocities() const { return v_; }
  const support::aligned_vector<double>& weights() const { return w_; }
  const support::aligned_vector<double>& rho() const { return rho_; }
  const support::aligned_vector<double>& phi() const { return phi_; }
  const support::aligned_vector<double>& efield() const { return e_; }

  /// One full PIC timestep.
  void step();
  void run(int steps);

  PicDiagnostics diagnostics() const;

  /// Deep invariant walk (tier 2, support/check.hpp): consistent particle
  /// array sizes, grid arrays sized to the node count, every particle
  /// inside [0, length] with finite velocity and weight. Runs
  /// automatically after every step when check::deep() is on; the
  /// charge-conservation audit runs inside deposit(). Throws CheckError.
  void validate() const;

  // --- Individual stages (exposed for testing) ---
  void deposit();
  void solve_field();
  void push();

  /// The persisted RNG stream position. The generator is counter-based
  /// (support/rng.hpp): load_uniform draws advance it, and restoring the
  /// (seed, counter) pair resumes the stream instead of replaying it.
  std::uint64_t rng_counter() const { return rng_.counter(); }

  /// Snapshot section "simpic/pic" (docs/checkpoint.md): particle arrays,
  /// grid fields, ion background, and the RNG stream position. Restore
  /// validates against this instance's options and throws CheckError on
  /// mismatch or corruption.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

  /// Solves -phi'' = rho with Dirichlet ends on an arbitrary rhs (used by
  /// the Poisson-accuracy tests). Grid spacing dx, n nodes.
  static std::vector<double> solve_poisson_dirichlet(
      std::span<const double> rho, double dx);

 private:
  PicOptions options_;
  double dx_;  ///< derived from options, rebuilt // cpx-lint: allow(ckpt)
  CounterRng rng_;

  // Particle storage (structure-of-arrays, as in SIMPIC), 64-byte-aligned.
  support::aligned_vector<double> x_;
  support::aligned_vector<double> v_;
  support::aligned_vector<double> w_;  ///< per-particle charge weight

  // Grid fields on nodes [0, cells].
  support::aligned_vector<double> rho_;
  support::aligned_vector<double> phi_;
  support::aligned_vector<double> e_;

  double background_;  ///< neutralising ion background density

  // Step scratch (docs/parallelism.md), so a warm step allocates nothing:
  // per-chunk charge partials combined in chunk order, the absorbing
  // push's keep flags for the in-place order-preserving compaction (the
  // push itself updates x/v in place), and the eliminated superdiagonal of
  // the Dirichlet Thomas solve (sized by the constructor), which stages
  // rho * h^2 in phi_ and back-substitutes over it in place. Rebuilt by
  // the next step, so the snapshot deliberately omits it.
  support::aligned_vector<double> deposit_partials_;  // cpx-lint: allow(ckpt)
  std::vector<unsigned char> push_keep_;              // cpx-lint: allow(ckpt)
  std::vector<double> thomas_c_;                      // cpx-lint: allow(ckpt)
};

/// Checks every position lies in [0, length] and is finite. Free function
/// so tests can reject deliberately corrupted particle sets directly.
void validate_particles(std::span<const double> positions, double length);

/// Checks the deposited grid charge matches the particle charge: with CIC
/// weighting the grid integral of (rho - background) equals the summed
/// particle weights exactly (the periodic wrap folds the two wall nodes
/// onto one). `total_weight` is the summed particle charge. Throws
/// CheckError when conservation is violated beyond rounding.
void validate_charge_conservation(std::span<const double> rho,
                                  double background, double dx,
                                  Boundary boundary, double total_weight);

}  // namespace cpx::simpic
