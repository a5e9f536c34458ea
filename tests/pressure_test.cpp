// Tests for the pressure-solver surrogate: the Fig 5a profile anchors
// (component fractions and compute/comm splits at 2048 cores), the Fig 5b
// per-component parallel-efficiency ordering, mesh-size scaling, and the
// §IV optimisation effects.

#include <gtest/gtest.h>

#include <string>

#include "pressure/surrogate.hpp"
#include "sim/cluster.hpp"
#include "support/check.hpp"

namespace cpx::pressure {
namespace {

double total_of(const std::vector<ComponentTimes>& comps) {
  double t = 0.0;
  for (const auto& c : comps) {
    t += c.total();
  }
  return t;
}

const ComponentTimes& find(const std::vector<ComponentTimes>& comps,
                           const std::string& name) {
  for (const auto& c : comps) {
    if (c.name == name) {
      return c;
    }
  }
  throw CheckError("component not found: " + name);
}

TEST(Surrogate, Fig5aFractionsAt2048Cores) {
  Instance inst("p", Config::base_28m(), {0, 2048});
  const auto comps = inst.predict_components();
  const double total = total_of(comps);

  // Pressure field: 46% of runtime (25% compute / 21% MPI) in the paper.
  const auto& pf = find(comps, "pressure_field");
  EXPECT_NEAR(pf.total() / total, 0.46, 0.04);
  EXPECT_NEAR(pf.compute / total, 0.25, 0.04);
  EXPECT_NEAR(pf.comm / total, 0.21, 0.04);

  // Spray: next most time-consuming, ~96% of its own time in comm.
  const auto& spray = find(comps, "spray");
  EXPECT_GT(spray.total() / total, 0.15);
  EXPECT_GT(spray.comm / spray.total(), 0.9);

  // Velocity/scalars/turbulence "scale well" and are smaller.
  EXPECT_LT(find(comps, "momentum").total(), pf.total());
  EXPECT_LT(find(comps, "scalars").total(),
            find(comps, "momentum").total());
}

TEST(Surrogate, Fig5bComponentEfficiencyOrdering) {
  const auto pe = [](const std::string& comp, int cores) {
    Instance base("p", Config::base_28m(), {0, 128});
    Instance scaled("p", Config::base_28m(), {0, cores});
    const double t0 = find(base.predict_components(), comp).total();
    const double t1 = find(scaled.predict_components(), comp).total();
    return (t0 * 128.0) / (t1 * cores);
  };
  // Spray drops below 50% PE at just 256 cores (2 ARCHER2 nodes).
  EXPECT_LT(pe("spray", 256), 0.55);
  // Pressure field degrades but much more slowly (~60% at 2048).
  EXPECT_NEAR(pe("pressure_field", 2048), 0.60, 0.08);
  // Momentum and scalars scale well.
  EXPECT_GT(pe("momentum", 2048), 0.85);
  EXPECT_GT(pe("scalars", 2048), 0.8);
  // Ordering: spray worst, pressure field next, the rest best.
  EXPECT_LT(pe("spray", 2048), pe("pressure_field", 2048));
  EXPECT_LT(pe("pressure_field", 2048), pe("momentum", 2048));
}

TEST(Surrogate, OverallEfficiencyDropsBelowHalfNear3000) {
  const auto overall_pe = [](int cores) {
    Instance base("p", Config::base_28m(), {0, 128});
    Instance scaled("p", Config::base_28m(), {0, cores});
    const double t0 = total_of(base.predict_components());
    const double t1 = total_of(scaled.predict_components());
    return (t0 * 128.0) / (t1 * cores);
  };
  EXPECT_GT(overall_pe(1024), 0.65);
  EXPECT_LT(overall_pe(3000), 0.5);
  EXPECT_GT(overall_pe(3000), 0.3);
}

TEST(Surrogate, StepChargesPredictedTimesToCluster) {
  sim::Cluster cluster(sim::MachineModel::archer2(), 512);
  Instance inst("p", Config::base_28m(), {0, 512});
  inst.step(cluster);
  const double predicted = total_of(inst.predict_components());
  // The cluster's max clock includes the final allreduce; the analytic
  // prediction should match within a few percent.
  EXPECT_NEAR(cluster.max_clock(), predicted, 0.05 * predicted);
}

TEST(Surrogate, ComputeScalesWithMeshCells) {
  Instance small("s", Config::base_28m(), {0, 1024});
  Instance large("l", Config::base_84m(), {0, 1024});
  const double ratio = total_of(large.predict_components()) /
                       total_of(small.predict_components());
  EXPECT_GT(ratio, 2.3);
  EXPECT_LT(ratio, 3.2);  // 84/28 = 3 minus sublinear comm terms
}

TEST(Surrogate, OptimizedSprayScalesPerfectly) {
  Config cfg = Config::base_28m();
  cfg.optimized_spray = true;
  Instance a("a", cfg, {0, 128});
  Instance b("b", cfg, {0, 2048});
  const double t0 = find(a.predict_components(), "spray").total();
  const double t1 = find(b.predict_components(), "spray").total();
  EXPECT_NEAR((t0 * 128.0) / (t1 * 2048.0), 1.0, 1e-6);
}

TEST(Surrogate, PressureFieldSpeedupAppliesFiveFold) {
  Instance base("b", Config::base_28m(), {0, 1024});
  Instance opt("o", Config::optimized(28'000'000), {0, 1024});
  const double pf_base =
      find(base.predict_components(), "pressure_field").total();
  const double pf_opt =
      find(opt.predict_components(), "pressure_field").total();
  EXPECT_GT(pf_base / pf_opt, 4.5);
}

TEST(Surrogate, OptimizedSolverScalesMuchFurther) {
  // Fig 6a: after both optimisations the solver should keep high PE well
  // past the base solver's collapse point.
  const auto pe = [](const Config& cfg, int cores) {
    Instance base("p", cfg, {0, 128});
    Instance scaled("p", cfg, {0, cores});
    return (total_of(base.predict_components()) * 128.0) /
           (total_of(scaled.predict_components()) * cores);
  };
  EXPECT_LT(pe(Config::base_28m(), 4096), 0.45);
  EXPECT_GT(pe(Config::optimized(28'000'000), 4096), 0.7);
}

TEST(Surrogate, RejectsBadConfig) {
  EXPECT_THROW(Instance("x", Config::base_28m(), {0, 0}), CheckError);
  Config bad = Config::base_28m();
  bad.pressure_field_speedup = 0.5;
  EXPECT_THROW(Instance("x", bad, {0, 16}), CheckError);
}

TEST(ComponentModels, TableIsWellFormed) {
  const auto& models = component_models();
  ASSERT_EQ(models.size(), 4u);
  for (const auto& m : models) {
    EXPECT_GT(m.compute_per_cell, 0.0);
    EXPECT_GE(m.surface_coeff, 0.0);
    EXPECT_GE(m.floor_seconds, 0.0);
  }
  EXPECT_EQ(models.back().name, "pressure_field");
}

}  // namespace
}  // namespace cpx::pressure
