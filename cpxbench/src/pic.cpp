// pic-two-stream: the SIMPIC layer at ~10^6 particles. One PIC step
// advances two plasmas:
//  * the two-stream instability (examples/two_stream_instability) on
//    simpic::Pic — two cold counter-streaming beams on a periodic grid,
//    which runs the threaded push/deposit kernels and their SIMD paths;
//  * a cold plasma oscillation on simpic::DistributedPic over four parts,
//    whose particles cross rank boundaries every half period — the
//    variable-size migration through comm::Communicator::deliver.
// DistributedPic supports only absorbing walls and a Maxwellian load, so
// the counter-streaming beams run on the sequential class. The timed run
// uses pool width 1: a step at the default width waits for its slowest
// lane, and on a shared host that spread its times by 15% between runs.
// The output check reruns the inputs at the default width.

#include <cmath>
#include <memory>

#include "bench.hpp"
#include "simpic/distributed.hpp"
#include "simpic/pic.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace cpxbench {
namespace {

using namespace cpx;

constexpr int kParts = 4;
constexpr int kDigestStep = 20;
constexpr double kTwoPi = 6.28318530717958647692;

struct Inputs {
  std::int64_t cells = 0;
  std::int64_t per_beam = 0;     ///< two-stream particles per beam
  int dist_per_cell = 0;         ///< DistributedPic particles per cell
  double v0 = 0.0;               ///< beam speed
  double seed_amplitude = 0.0;   ///< two-stream mode-1 position seed
  double perturbation = 0.0;     ///< oscillation amplitude (DistributedPic)
  std::uint64_t rng_seed = 0;
};

struct Plasmas {
  std::unique_ptr<simpic::Pic> beams;
  std::unique_ptr<simpic::DistributedPic> slab;
  std::int64_t beam_particles = 0;

  explicit Plasmas(const Inputs& in) {
    simpic::PicOptions opts;
    opts.cells = in.cells;
    opts.dt = 0.1;
    opts.boundary = simpic::Boundary::kPeriodic;
    opts.seed = in.rng_seed;
    beams = std::make_unique<simpic::Pic>(opts);
    const double weight =
        -opts.length / (2.0 * static_cast<double>(in.per_beam));
    for (std::int64_t i = 0; i < in.per_beam; ++i) {
      const double x0 =
          (static_cast<double>(i) + 0.5) / static_cast<double>(in.per_beam);
      const double seed =
          in.seed_amplitude / kTwoPi * std::sin(kTwoPi * x0);
      beams->add_particle(std::fmod(x0 + seed + 1.0, 1.0), in.v0, weight);
      beams->add_particle(x0, -in.v0, weight);
    }
    beams->set_background(1.0);
    beam_particles = beams->num_particles();

    simpic::PicOptions dopts;
    dopts.cells = in.cells;
    dopts.dt = 0.1;
    dopts.boundary = simpic::Boundary::kAbsorbing;
    dopts.seed = in.rng_seed;
    slab = std::make_unique<simpic::DistributedPic>(dopts, kParts);
    slab->load_uniform(in.dist_per_cell, 0.0, in.perturbation);
  }

  /// One PIC step of both plasmas; the periodic beams keep every particle.
  bool step() {
    {
      ScopedSpan span("simpic.step");
      beams->step();
    }
    {
      ScopedSpan span("simpic.step");
      slab->step();
    }
    return beams->num_particles() == beam_particles &&
           slab->num_particles() > 0;
  }

  std::uint64_t digest() const {
    Digest d;
    d.add(beams->rho().data(), beams->rho().size());
    d.add(beams->phi().data(), beams->phi().size());
    d.add(beams->positions().data(), beams->positions().size());
    d.add(beams->velocities().data(), beams->velocities().size());
    const auto rho = slab->gather_rho();
    const auto phi = slab->gather_phi();
    d.add(rho.data(), rho.size());
    d.add(phi.data(), phi.size());
    d.add_u64(static_cast<std::uint64_t>(slab->num_particles()));
    return d.value();
  }
};

}  // namespace

void run_pic(const Context& ctx) {
  const int default_width = support::max_threads();
  apply_pool_width(ctx, 1);

  Rng rng(ctx.seed * 0x9e3779b97f4a7c15ULL + 41);
  Inputs in;
  in.cells = 2048;
  in.per_beam = 2048 * 192;
  in.dist_per_cell = 128;
  in.v0 = 0.07 + 0.02 * rng.uniform();
  in.seed_amplitude = 1e-3 * (0.5 + rng.uniform());
  in.perturbation = 0.01 + 0.01 * rng.uniform();
  in.rng_seed = rng();
  emit("info particles %lld",
       static_cast<long long>(2 * in.per_beam + in.cells * in.dist_per_cell));

  std::unique_ptr<Plasmas> p;
  run_setups(ctx, 15, [&](int) {
    p.reset();
    p = std::make_unique<Plasmas>(in);
  });

  std::uint64_t digest_at = 0;
  std::int64_t msgs0 = p->slab->comm_stats().messages;
  std::int64_t bytes0 = p->slab->comm_stats().bytes;
  std::int64_t window_msgs = 0;
  std::int64_t window_bytes = 0;
  std::int64_t migrations = 0;
  TimedLoop loop;
  loop.min_steps = kDigestStep;
  loop.trace_block = 10;
  const TimedResult r = run_timed(
      ctx, loop, [&](int) { return p->step(); },
      [&](int i, bool) {
        if (i < kDigestStep) {
          migrations += p->slab->last_migrations();
        }
        if (i + 1 == kDigestStep) {
          digest_at = p->digest();
          window_msgs = p->slab->comm_stats().messages - msgs0;
          window_bytes = p->slab->comm_stats().bytes - bytes0;
        }
      });

  // Bitwise-determinism contract: the same inputs at the library's default
  // pool width (at width 1 when the timed run was wider) give the same bits.
  {
    const int width = support::max_threads();
    const int ref_width = width == 1 ? default_width : 1;
    support::set_max_threads(ref_width);
    Plasmas ref(in);
    for (int i = 0; i < kDigestStep; ++i) {
      ref.step();
    }
    const std::uint64_t want = ref.digest();
    support::set_max_threads(width);
    emit("check digest_width%d_vs_width%d %d step=%d 0x%llx 0x%llx", width,
         ref_width, digest_at == want ? 1 : 0, kDigestStep,
         static_cast<unsigned long long>(digest_at),
         static_cast<unsigned long long>(want));
  }
  {
    // Physics: the instability grows the field energy from the seed.
    const auto d = p->beams->diagnostics();
    emit("info two_stream field_energy=%.6e kinetic_energy=%.6e",
         d.field_energy, d.kinetic_energy);
  }

  if (ctx.trace) {
    const double steps = r.traced_steps;
    emit("layer simpic.step_s %.9f",
         tracer().self_seconds("simpic.step") / steps);
    emit("layer simpic.migrations_per_step %.6f",
         static_cast<double>(migrations) / kDigestStep);
    emit("layer comm.messages_per_step %.6f",
         static_cast<double>(window_msgs) / kDigestStep);
    emit("layer comm.bytes_per_step %.6f",
         static_cast<double>(window_bytes) / kDigestStep);
    emit_kernel_counters(steps);
    emit_trace_summary(r);
  }
}

}  // namespace cpxbench
