// Roofline sweep of the SIMD kernel layer (docs/observability.md).
//
// Measures machine ceilings with micro-kernels (a multi-accumulator
// multiply-add loop for compute, a large-array triad for bandwidth), then
// times every flop/byte-counted kernel single-threaded at the build's
// native simd width and at width 1 (the CPX_SIMD=off behaviour), as five
// alternating native/scalar samples reported as a median speedup and IQR.
// Work sizes default to cache-resident vectors so the kernels express
// instruction throughput rather than DRAM limits, which is where the
// pack-vs-scalar contrast lives. Emits the `cpx-roofline-v1` JSON with
// per-kernel arithmetic intensity, achieved GFLOP/s and GB/s, and the
// measured speedup over the scalar build.
//
//   ./roofline [--n=16384] [--reps=400] [--out=roofline.json]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

#include "amg/smoothers.hpp"
#include "bench_common.hpp"
#include "cpx/interpolation.hpp"
#include "perfmodel/roofline.hpp"
#include "simpic/pic.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/aligned.hpp"
#include "support/blas1.hpp"
#include "support/metric_names.hpp"
#include "support/options.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"

namespace {

using cpx::support::aligned_vector;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

aligned_vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  cpx::Rng rng(seed);
  aligned_vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

/// Compute ceiling: independent multiply-add chains over simd::pack
/// accumulators at the build's widest width — the best sustained flop
/// rate this build's codegen reaches for the same pack type the kernels
/// use (no -march flags, so this is the portable-baseline ceiling).
double measure_peak_gflops() {
  namespace simd = cpx::support::simd;
  using Pack = simd::pack<simd::kMaxWidth>;
  constexpr int kAcc = 4;  // 4 x 8 lanes stays within the register file
  constexpr std::int64_t kIters = 2'000'000;
  Pack acc[kAcc];
  for (int i = 0; i < kAcc; ++i) {
    acc[i] = Pack::broadcast(1.0 + 1e-9 * i);
  }
  const Pack m = Pack::broadcast(1.0 + 1e-12);
  const Pack a = Pack::broadcast(1e-12);
  const auto t0 = Clock::now();
  for (std::int64_t it = 0; it < kIters; ++it) {
    for (int i = 0; i < kAcc; ++i) {
      acc[i] = simd::fma(acc[i], m, a);
    }
  }
  const double elapsed = seconds_since(t0);
  double sink = 0.0;
  for (int i = 0; i < kAcc; ++i) {
    for (int j = 0; j < simd::kMaxWidth; ++j) {
      sink += acc[i][j];
    }
  }
  // 2 flops (mul + add) per lane per accumulator per iteration; the sink
  // keeps the loop from being optimised away.
  const double flops = 2.0 * simd::kMaxWidth * kAcc *
                       static_cast<double>(kIters);
  return sink != 0.0 ? flops / elapsed * 1e-9 : 0.0;
}

/// Bandwidth ceiling: triad a[i] = b[i] + s*c[i] over arrays far larger
/// than the last-level cache; counts 3 streamed doubles per element.
double measure_peak_gbs() {
  const std::size_t n = 1 << 23;  // 3 x 64 MiB
  aligned_vector<double> a(n, 0.0);
  const aligned_vector<double> b = random_vector(n, 11);
  const aligned_vector<double> c = random_vector(n, 12);
  const double s = 1.000000001;
  constexpr int kReps = 6;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = b[i] + s * c[i];
    }
    const double elapsed = seconds_since(t0);
    const double bytes = 3.0 * static_cast<double>(n) * sizeof(double);
    best = std::max(best, bytes / elapsed * 1e-9);
  }
  return a[n / 2] != 0.0 || a[0] == a[0] ? best : 0.0;
}

/// Times `fn` run `reps` times at the given simd width and reads the
/// flop/byte counter deltas the kernels record.
struct Measurement {
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
  double seconds = 0.0;
};

template <typename Fn>
Measurement measure(int width, int reps, const char* flop_counter,
                    const char* byte_counter, Fn&& fn) {
  namespace metrics = cpx::support::metrics;
  cpx::support::simd::set_width(width);
  fn();  // warm up caches and lazily-sized scratch
  const auto before = metrics::snapshot();
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    fn();
  }
  Measurement m;
  m.seconds = seconds_since(t0) / reps;
  const auto after = metrics::snapshot();
  m.flops = (after.counter(flop_counter) - before.counter(flop_counter)) /
            reps;
  m.bytes = (after.counter(byte_counter) - before.counter(byte_counter)) /
            reps;
  return m;
}

/// Linear-interpolated quantile of an ascending sample.
double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - static_cast<double>(lo)) *
                          (sorted[hi] - sorted[lo]);
}

/// A kernel's roofline sample plus the spread of its scalar/native ratio.
struct KernelTiming {
  cpx::perfmodel::KernelSample sample;
  double speedup_iqr = 0.0;
};

/// Times `fn` as kSamples native/scalar pairs, alternating which width
/// runs first so slow drift cancels. The sample keeps the pair with the
/// median scalar/native ratio, so its speedup_vs_scalar is that median.
template <typename Fn>
KernelTiming sample_kernel(const std::string& name, int native_width,
                           int reps, const char* flop_counter,
                           const char* byte_counter, Fn&& fn) {
  constexpr int kSamples = 5;  // odd, so the median is one measured pair
  struct Pair {
    double ratio;  // scalar seconds / native seconds
    Measurement native;
    double scalar_seconds;
  };
  std::vector<Pair> pairs;
  for (int i = 0; i < kSamples; ++i) {
    Measurement vec;
    Measurement scalar;
    if (i % 2 == 0) {
      vec = measure(native_width, reps, flop_counter, byte_counter, fn);
      scalar = measure(1, reps, flop_counter, byte_counter, fn);
    } else {
      scalar = measure(1, reps, flop_counter, byte_counter, fn);
      vec = measure(native_width, reps, flop_counter, byte_counter, fn);
    }
    pairs.push_back({scalar.seconds / vec.seconds, vec, scalar.seconds});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& x, const Pair& y) { return x.ratio < y.ratio; });
  std::vector<double> ratios;
  for (const Pair& p : pairs) {
    ratios.push_back(p.ratio);
  }
  const Pair& mid = pairs[kSamples / 2];
  KernelTiming t;
  t.sample.name = name;
  t.sample.flops = mid.native.flops;
  t.sample.bytes = mid.native.bytes;
  t.sample.seconds = mid.native.seconds;
  t.sample.scalar_seconds = mid.scalar_seconds;
  t.speedup_iqr = quantile(ratios, 0.75) - quantile(ratios, 0.25);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpx;
  namespace simd = support::simd;

  Options opts = Options::parse(argc, argv);
  opts.describe("n", "blas1 vector length (default 16384, cache-resident)");
  opts.describe("reps", "timed repetitions per kernel (default 400)");
  opts.describe("out", "roofline JSON path (default roofline.json)");
  if (opts.get_bool("help", false)) {
    std::cout << opts.help_text("roofline");
    return 0;
  }
  const auto n = static_cast<std::size_t>(opts.get_int("n", 16384));
  const int reps = static_cast<int>(opts.get_int("reps", 400));
  const std::string out_path = opts.get_string("out", "roofline.json");

  // Single-core, counters on: the roofline is a per-core instrument, and
  // the flop/byte counters feed the sample directly.
  support::set_max_threads(1);
  support::metrics::set_enabled(true);
  const int native = simd::default_width();

  perfmodel::RooflineMachine machine;
  machine.peak_gflops = measure_peak_gflops();
  machine.peak_gbs = measure_peak_gbs();
  std::cout << "machine: " << machine.peak_gflops << " GFLOP/s, "
            << machine.peak_gbs << " GB/s, ridge "
            << machine.ridge_intensity() << " flop/byte\n";

  std::vector<KernelTiming> timings;

  // --- blas1 ---
  const aligned_vector<double> a = random_vector(n, 1);
  const aligned_vector<double> b = random_vector(n, 2);
  double sink = 0.0;
  timings.push_back(sample_kernel(
      "blas1/dot", native, reps, support::metric_names::kBlas1Flops,
      support::metric_names::kBlas1Bytes,
      [&] { sink += support::blas1::dot(a, b); }));

  aligned_vector<double> x = random_vector(n, 3);
  aligned_vector<double> r = random_vector(n, 4);
  timings.push_back(sample_kernel(
      "blas1/axpy2_norm2", native, reps, support::metric_names::kBlas1Flops,
      support::metric_names::kBlas1Bytes,
      [&] { sink += support::blas1::axpy2_norm2(1e-6, a, b, x, r); }));

  // --- sparse SpMV and AMG Jacobi smoother: rows of 16+ entries, long
  // enough (>= simd::kReduceLanes) to run the pack gather tree; 7-point
  // stencil rows would time the scalar chain at both widths ---
  const sparse::CsrMatrix spd = sparse::random_spd(8192, 16, 21);
  const aligned_vector<double> mx =
      random_vector(static_cast<std::size_t>(spd.cols()), 5);
  aligned_vector<double> my(static_cast<std::size_t>(spd.rows()), 0.0);
  timings.push_back(sample_kernel(
      "sparse/spmv", native, reps, support::metric_names::kSparseSpmvFlops,
      support::metric_names::kSparseSpmvBytes,
      [&] { sparse::spmv(spd, mx, my); }));

  aligned_vector<double> sx(static_cast<std::size_t>(spd.rows()), 0.0);
  const aligned_vector<double> sb =
      random_vector(static_cast<std::size_t>(spd.rows()), 6);
  aligned_vector<double> scratch(static_cast<std::size_t>(spd.rows()), 0.0);
  amg::SmootherOptions sopts;
  sopts.kind = amg::SmootherKind::kJacobi;
  timings.push_back(sample_kernel(
      "amg/jacobi_smooth", native, reps,
      support::metric_names::kAmgSmoothFlops,
      support::metric_names::kAmgSmoothBytes,
      [&] { amg::smooth(spd, sx, sb, sopts, scratch); }));

  // --- SIMPIC push + deposit ---
  simpic::PicOptions popts;
  popts.cells = 256;
  popts.boundary = simpic::Boundary::kPeriodic;
  simpic::Pic pic(popts);
  pic.load_uniform(64, 0.1, 0.05);  // 16384 particles
  pic.deposit();
  pic.solve_field();
  timings.push_back(sample_kernel(
      "simpic/push", native, reps, support::metric_names::kSimpicPushFlops,
      support::metric_names::kSimpicPushBytes, [&] { pic.push(); }));
  timings.push_back(sample_kernel(
      "simpic/deposit", native, reps,
      support::metric_names::kSimpicDepositFlops,
      support::metric_names::kSimpicDepositBytes, [&] { pic.deposit(); }));

  // --- coupler IDW interpolation (k=12 donors hits the tree path) ---
  Rng prng(31);
  std::vector<mesh::Vec3> donors(4096);
  std::vector<mesh::Vec3> targets(4096);
  for (auto& p : donors) {
    p = {prng.uniform(), prng.uniform(), prng.uniform()};
  }
  for (auto& p : targets) {
    p = {prng.uniform(), prng.uniform(), prng.uniform()};
  }
  const auto stencils = coupler::build_idw_stencils(donors, targets, 12);
  aligned_vector<double> donor_field =
      random_vector(donors.size(), 7);
  aligned_vector<double> target_field(targets.size(), 0.0);
  timings.push_back(sample_kernel(
      "coupler/interpolate", native, reps,
      support::metric_names::kCouplerInterpolateFlops,
      support::metric_names::kCouplerInterpolateBytes,
      [&] { coupler::apply_stencils(stencils, donor_field, target_field); }));

  simd::set_width(native);

  Table table({"kernel", "flop/byte", "GFLOP/s", "GB/s", "% roof",
               "speedup vs scalar (median)", "speedup IQR"});
  std::vector<perfmodel::KernelSample> samples;
  for (const auto& t : timings) {
    const perfmodel::KernelSample& s = t.sample;
    const perfmodel::RooflinePoint p = perfmodel::classify(s, machine);
    table.add_row({s.name, p.intensity, p.gflops, p.gbs,
                   100.0 * p.fraction_of_roof,
                   s.scalar_seconds / s.seconds, t.speedup_iqr});
    samples.push_back(s);
  }
  table.print(std::cout);
  if (sink == 0.0) {
    std::cout << "(degenerate sink)\n";
  }

  std::ofstream out(out_path);
  perfmodel::write_roofline_json(out, machine, samples);
  std::cout << "roofline JSON written to " << out_path << "\n";
  return 0;
}
