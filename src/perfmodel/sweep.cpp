#include "perfmodel/sweep.hpp"

#include <algorithm>
#include <numeric>
#include <optional>

#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::perfmodel {

double measure_step_seconds(sim::App& app, sim::Cluster& cluster, int steps) {
  CPX_REQUIRE(steps >= 1, "measure_step_seconds: bad step count");
  app.step(cluster);  // warm-up (one-off mapping costs, cold clocks)
  const double t0 = cluster.max_clock(app.ranks());
  for (int s = 0; s < steps; ++s) {
    app.step(cluster);
  }
  return (cluster.max_clock(app.ranks()) - t0) / steps;
}

CommVolume measure_comm_volume(sim::App& app, sim::Cluster& cluster,
                               int steps) {
  CPX_REQUIRE(steps >= 1, "measure_comm_volume: bad step count");
  app.step(cluster);  // warm-up (one-off mapping / plan setup traffic)
  const std::size_t bytes0 = cluster.comm_bytes(app.ranks());
  const std::int64_t messages0 = cluster.comm_messages(app.ranks());
  for (int s = 0; s < steps; ++s) {
    app.step(cluster);
  }
  CommVolume volume;
  volume.bytes =
      (cluster.comm_bytes(app.ranks()) - bytes0) /
      static_cast<std::size_t>(steps);
  volume.messages = (cluster.comm_messages(app.ranks()) - messages0) / steps;
  return volume;
}

namespace {

/// What a sweep does with each app's split-phase overlap
/// (sim::App::set_overlap): leave it as the factory built it, or set it.
enum class OverlapSetting { kAsBuilt, kOff, kOn };

struct Sweep {
  std::vector<ScalingPoint> points;  ///< in core_counts order
  /// Overlap's hidden / (hidden + charged) comm seconds at the largest
  /// core count (kOn only).
  double hidden_fraction = 0.0;
};

/// Runs the app alone at every core count: one perfmodel/measure_scaling
/// region on one cluster. The counts are visited largest-first (ties in
/// input order) and the cluster is reshaped between points, so later
/// points reuse the memory of the first; each point is written at its
/// input index, so the output order does not depend on the visit order.
/// The first point is on a newly built cluster, which is where the
/// hidden fraction is read.
Sweep sweep(const AppFactory& factory, const sim::MachineModel& machine,
            std::span<const int> core_counts, int steps,
            OverlapSetting overlap) {
  CPX_METRICS_SCOPE("perfmodel/measure_scaling");
  for (int cores : core_counts) {
    CPX_REQUIRE(cores >= 1, "measure_scaling: bad core count " << cores);
  }
  std::vector<std::size_t> order(core_counts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return core_counts[a] > core_counts[b];
                   });

  Sweep out;
  out.points.resize(core_counts.size());
  std::optional<sim::Cluster> cluster;
  for (const std::size_t i : order) {
    const int cores = core_counts[i];
    if (cluster.has_value()) {
      cluster->reshape(cores);
    } else {
      cluster.emplace(machine, cores);
    }
    const auto app = factory({0, cores});
    if (overlap != OverlapSetting::kAsBuilt) {
      app->set_overlap(overlap == OverlapSetting::kOn);
    }
    out.points[i] = {static_cast<double>(cores),
                     measure_step_seconds(*app, *cluster, steps)};
    if (overlap == OverlapSetting::kOn && i == order.front()) {
      const double hidden = cluster->comm_hidden_seconds(app->ranks());
      double charged = 0.0;
      for (sim::Rank r = app->ranks().begin; r < app->ranks().end; ++r) {
        charged += cluster->profile().rank_total(r).comm;
      }
      out.hidden_fraction =
          hidden + charged > 0.0 ? hidden / (hidden + charged) : 0.0;
    }
  }
  return out;
}

}  // namespace

std::vector<ScalingPoint> measure_scaling(const AppFactory& factory,
                                          const sim::MachineModel& machine,
                                          std::span<const int> core_counts,
                                          int steps) {
  return sweep(factory, machine, core_counts, steps,
               OverlapSetting::kAsBuilt)
      .points;
}

ScalingCurve fit_scaling(const AppFactory& factory,
                         const sim::MachineModel& machine,
                         std::span<const int> core_counts, int steps) {
  const auto points = measure_scaling(factory, machine, core_counts, steps);
  return ScalingCurve::fit(points);
}

OverlapVariants fit_overlap_variants(const AppFactory& factory,
                                     const sim::MachineModel& machine,
                                     std::span<const int> core_counts,
                                     int steps) {
  CPX_REQUIRE(!core_counts.empty(), "fit_overlap_variants: no core counts");
  OverlapVariants variants;
  variants.synchronous = ScalingCurve::fit(
      sweep(factory, machine, core_counts, steps, OverlapSetting::kOff)
          .points);
  const Sweep overlapped =
      sweep(factory, machine, core_counts, steps, OverlapSetting::kOn);
  variants.overlapped = ScalingCurve::fit(overlapped.points);
  variants.hidden_fraction = overlapped.hidden_fraction;
  return variants;
}

}  // namespace cpx::perfmodel
