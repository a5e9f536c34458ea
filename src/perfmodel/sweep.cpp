#include "perfmodel/sweep.hpp"

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

std::vector<ScalingPoint> measure_scaling(const AppFactory& factory,
                                          const sim::MachineModel& machine,
                                          std::span<const int> core_counts,
                                          int steps) {
  CPX_METRICS_SCOPE("perfmodel/measure_scaling");
  std::vector<ScalingPoint> points;
  points.reserve(core_counts.size());
  for (int cores : core_counts) {
    CPX_REQUIRE(cores >= 1, "measure_scaling: bad core count " << cores);
    sim::Cluster cluster(machine, cores);
    const auto app = factory({0, cores});
    points.push_back({static_cast<double>(cores),
                      measure_step_seconds(*app, cluster, steps)});
  }
  return points;
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
  CPX_METRICS_SCOPE("perfmodel/measure_scaling");
  CPX_REQUIRE(!core_counts.empty(), "fit_overlap_variants: no core counts");
  OverlapVariants variants;
  for (const bool overlapped : {false, true}) {
    std::vector<ScalingPoint> points;
    points.reserve(core_counts.size());
    for (int cores : core_counts) {
      CPX_REQUIRE(cores >= 1,
                  "fit_overlap_variants: bad core count " << cores);
      sim::Cluster cluster(machine, cores);
      const auto app = factory({0, cores});
      app->set_overlap(overlapped);
      points.push_back({static_cast<double>(cores),
                        measure_step_seconds(*app, cluster, steps)});
      if (overlapped && cores == core_counts.back()) {
        const double hidden =
            cluster.comm_hidden_seconds(app->ranks());
        double charged = 0.0;
        for (sim::Rank r = app->ranks().begin; r < app->ranks().end; ++r) {
          charged += cluster.profile().rank_total(r).comm;
        }
        variants.hidden_fraction =
            hidden + charged > 0.0 ? hidden / (hidden + charged) : 0.0;
      }
    }
    (overlapped ? variants.overlapped : variants.synchronous) =
        ScalingCurve::fit(points);
  }
  return variants;
}

}  // namespace cpx::perfmodel
