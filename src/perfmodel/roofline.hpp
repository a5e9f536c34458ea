#pragma once
// Roofline accounting for the SIMD kernel layer.
//
// The hot kernels count their useful flops and streamed bytes through the
// metrics counters ("blas1/flops", "sparse/spmv_flops", ...). Dividing
// the two gives each kernel's arithmetic intensity I = flops/bytes, and
// timing a run places it on the roofline of Williams et al.:
//
//     attainable GFLOP/s = min(peak_gflops, peak_gbs * I)
//
// Kernels left of the ridge point (I < peak_gflops / peak_gbs) are
// memory-bound — more SIMD lanes cannot help once the bandwidth ceiling
// is hit, which is exactly the saturation behaviour the paper's scaling
// study observes for the sparse solver kernels. The bench/roofline tool
// measures machine ceilings with micro-kernels, samples every counted
// kernel at the one compiled pack width (simd::kWidth), and emits the
// `cpx-roofline-v1` JSON document this header models (methodology and the
// width-1 speedups that keep every pack path: docs/observability.md).

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

namespace cpx::perfmodel {

/// Measured (or assumed) ceilings of one host.
struct RooflineMachine {
  double peak_gflops = 0.0;  ///< compute ceiling, GFLOP/s
  double peak_gbs = 0.0;     ///< memory bandwidth ceiling, GB/s

  /// Arithmetic intensity (flop/byte) where the bandwidth slope meets the
  /// compute ceiling. Kernels below it are memory-bound.
  double ridge_intensity() const;

  /// Attainable GFLOP/s at intensity I: min(peak, bandwidth * I).
  double attainable_gflops(double intensity) const;
};

/// One timed kernel execution with its counted work.
struct KernelSample {
  std::string name;
  std::int64_t flops = 0;  ///< useful floating-point operations
  std::int64_t bytes = 0;  ///< streamed bytes (model, not hardware counts)
  double seconds = 0.0;    ///< measured wall time
};

/// The sample's position on the roofline.
struct RooflinePoint {
  std::string name;
  double intensity = 0.0;         ///< flops / bytes
  double gflops = 0.0;            ///< achieved flops / seconds
  double gbs = 0.0;               ///< achieved bytes / seconds
  double ceiling_gflops = 0.0;    ///< attainable at this intensity
  double fraction_of_roof = 0.0;  ///< achieved / attainable
  bool memory_bound = false;      ///< intensity < ridge
};

/// Places a sample on the machine's roofline. Samples with zero bytes,
/// flops, or time yield zeroed derived fields rather than dividing by 0.
RooflinePoint classify(const KernelSample& sample,
                       const RooflineMachine& machine);

/// Roofline time prediction for a kernel: the slower of draining the
/// bytes at peak bandwidth and retiring the flops at peak compute. The
/// perfmodel sweeps use it as a single-core floor for counted kernels.
double roofline_seconds(std::int64_t flops, std::int64_t bytes,
                        const RooflineMachine& machine);

/// Writes the `cpx-roofline-v1` JSON document: the machine ceilings plus
/// one entry per sample with raw counts and derived roofline coordinates.
void write_roofline_json(std::ostream& out, const RooflineMachine& machine,
                         std::span<const KernelSample> samples);

}  // namespace cpx::perfmodel
