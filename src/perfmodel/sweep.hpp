#pragma once
// Standalone benchmark sweeps: run a mini-app instance alone on the
// virtual cluster across core counts and record per-step runtimes — the
// data the empirical model fits its curves to (Fig 7's left-hand column).

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "perfmodel/curve.hpp"
#include "sim/app.hpp"
#include "sim/machine.hpp"

namespace cpx::perfmodel {

/// Builds an instance of the app under test on the given rank range.
using AppFactory =
    std::function<std::unique_ptr<sim::App>(sim::RankRange ranks)>;

/// Mean per-step virtual runtime over `steps` steps after one warm-up
/// step (the first step can include one-off costs such as steady-state
/// interface mapping).
double measure_step_seconds(sim::App& app, sim::Cluster& cluster, int steps);

/// Measured communication volume (docs/communication.md).
struct CommVolume {
  std::size_t bytes = 0;
  std::int64_t messages = 0;
};

/// Mean per-step bytes/messages the app's ranks inject, measured over
/// `steps` steps after one warm-up step, from the cluster's per-rank
/// traffic counters. This is what the comm layer actually moved — real
/// message sizes, not per-site estimates — so predicted coupling cost can
/// be driven by measured volume.
CommVolume measure_comm_volume(sim::App& app, sim::Cluster& cluster,
                               int steps);

/// Sweeps the app over `core_counts` and returns the points in input
/// order. The sweep is one perfmodel/measure_scaling metrics region on
/// one cluster: it visits the counts largest-first (ties in input order)
/// and reshapes the cluster between points (sim::Cluster::reshape), so
/// each point runs in the state of a newly built cluster of its size
/// without faulting in new memory. The bits equal those of one new
/// cluster per point.
std::vector<ScalingPoint> measure_scaling(const AppFactory& factory,
                                          const sim::MachineModel& machine,
                                          std::span<const int> core_counts,
                                          int steps = 3);

/// Convenience: sweep then fit.
ScalingCurve fit_scaling(const AppFactory& factory,
                         const sim::MachineModel& machine,
                         std::span<const int> core_counts, int steps = 3);

/// Paired fits of the same app with split-phase overlap off and on
/// (sim::App::set_overlap), so the capacity planner can predict the
/// parallel-efficiency gain of overlapping per scenario instead of
/// extrapolating it (docs/CALIBRATION.md). Each half is one sweep as in
/// measure_scaling.
struct OverlapVariants {
  ScalingCurve synchronous;
  ScalingCurve overlapped;
  /// Hidden / (hidden + charged) comm seconds at the largest measured
  /// core count — how much of the synchronous wait the window absorbed.
  double hidden_fraction = 0.0;

  /// Modelled PE gain of overlapping at `cores`:
  /// overlapped efficiency minus synchronous efficiency, both vs
  /// `base_cores`.
  double efficiency_gain_at(double cores, double base_cores) const {
    return overlapped.efficiency_at(cores, base_cores) -
           synchronous.efficiency_at(cores, base_cores);
  }
};

OverlapVariants fit_overlap_variants(const AppFactory& factory,
                                     const sim::MachineModel& machine,
                                     std::span<const int> core_counts,
                                     int steps = 3);

}  // namespace cpx::perfmodel
