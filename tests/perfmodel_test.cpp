// Tests for the empirical performance model: curve fitting (including the
// serial p-term that drives SIMPIC's optimum), benchmark sweeps, and
// Algorithm 1's greedy rank distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "json_parse.hpp"

#include "mgcfd/instance.hpp"
#include "perfmodel/allocator.hpp"
#include "perfmodel/curve.hpp"
#include "perfmodel/persistence.hpp"
#include "perfmodel/roofline.hpp"
#include "perfmodel/sweep.hpp"
#include "simpic/instance.hpp"
#include "simpic/stc.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

namespace cpx::perfmodel {
namespace {

std::vector<ScalingPoint> synthetic_points(double a, double b, double c,
                                           double d) {
  std::vector<ScalingPoint> pts;
  for (double p = 64; p <= 40000; p *= 1.7) {
    pts.push_back({p, a / p + b + c * std::log2(p) + d * p});
  }
  return pts;
}

TEST(ScalingCurve, RecoversAllFourTerms) {
  const auto pts = synthetic_points(5000.0, 0.02, 0.005, 3e-5);
  const ScalingCurve curve = ScalingCurve::fit(pts);
  EXPECT_LT(curve.max_fit_error(), 1e-6);
  EXPECT_NEAR(curve.coefficients()[0], 5000.0, 1.0);
  EXPECT_NEAR(curve.coefficients()[3], 3e-5, 1e-8);
}

TEST(ScalingCurve, PureParallelWork) {
  const auto pts = synthetic_points(1000.0, 0.0, 0.0, 0.0);
  const ScalingCurve curve = ScalingCurve::fit(pts);
  EXPECT_LT(curve.max_fit_error(), 1e-8);
  EXPECT_NEAR(curve.time_at(12345.0), 1000.0 / 12345.0, 1e-7);
}

TEST(ScalingCurve, SerialTermCreatesOptimum) {
  // a/p + d*p has a minimum at sqrt(a/d); the fitted curve must reproduce
  // it so Alg 1 stops allocating there (SIMPIC's behaviour).
  const double a = 10000.0;
  const double d = 7e-5;
  const auto pts = synthetic_points(a, 0.0, 0.0, d);
  const ScalingCurve curve = ScalingCurve::fit(pts);
  const double p_star = std::sqrt(a / d);
  EXPECT_LT(curve.time_at(p_star), curve.time_at(p_star / 3.0));
  EXPECT_LT(curve.time_at(p_star), curve.time_at(p_star * 3.0));
}

TEST(ScalingCurve, CoefficientsNeverNegative) {
  // Noisy decreasing data must not produce a curve that dips negative.
  std::vector<ScalingPoint> pts;
  Rng rng(4);
  for (double p = 100; p < 10000; p *= 2) {
    pts.push_back({p, (500.0 / p) * rng.uniform(0.9, 1.1)});
  }
  const ScalingCurve curve = ScalingCurve::fit(pts);
  for (double coef : curve.coefficients()) {
    EXPECT_GE(coef, 0.0);
  }
  for (double p = 50; p < 1e6; p *= 3) {
    EXPECT_GT(curve.time_at(p), 0.0);
  }
}

TEST(ScalingCurve, EfficiencyAtBaseIsOne) {
  const auto pts = synthetic_points(2000.0, 0.1, 0.0, 0.0);
  const ScalingCurve curve = ScalingCurve::fit(pts);
  EXPECT_NEAR(curve.efficiency_at(100.0, 100.0), 1.0, 1e-12);
  EXPECT_LT(curve.efficiency_at(10000.0, 100.0), 1.0);
}

TEST(ScalingCurve, RejectsBadInput) {
  std::vector<ScalingPoint> one = {{100.0, 1.0}};
  EXPECT_THROW(ScalingCurve::fit(one), CheckError);
  std::vector<ScalingPoint> bad = {{100.0, 1.0}, {200.0, -1.0}};
  EXPECT_THROW(ScalingCurve::fit(bad), CheckError);
}

TEST(Sweep, MeasuresMgcfdScaling) {
  const std::vector<int> cores = {128, 512, 2048};
  const auto pts = measure_scaling(
      [](sim::RankRange r) {
        return std::make_unique<mgcfd::Instance>("m", 24'000'000, r);
      },
      sim::MachineModel::archer2(), cores, 2);
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_GT(pts[0].seconds, pts[2].seconds);
  const ScalingCurve curve = ScalingCurve::fit(pts);
  EXPECT_LT(curve.max_fit_error(), 0.1);
}

TEST(Sweep, FitPredictsHeldOutPoint) {
  const std::vector<int> cores = {100, 200, 400, 800, 1600, 3200};
  const auto factory = [](sim::RankRange r) -> std::unique_ptr<sim::App> {
    return std::make_unique<simpic::Instance>("s", simpic::base_stc_84m(),
                                              r);
  };
  const auto machine = sim::MachineModel::archer2();
  const ScalingCurve curve = fit_scaling(factory, machine, cores, 2);
  // Held-out measurement at 1131 cores.
  const std::vector<int> held = {1131};
  const auto pt = measure_scaling(factory, machine, held, 2);
  EXPECT_NEAR(curve.time_at(1131.0), pt[0].seconds, 0.1 * pt[0].seconds);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The sweep as documented, one new cluster per point in input order;
/// with `overlap`, set on every app, and `hidden_fraction` (when given)
/// read at the first of the largest core counts.
std::vector<ScalingPoint> fresh_cluster_sweep(
    const AppFactory& factory, const sim::MachineModel& machine,
    const std::vector<int>& cores, int steps, std::optional<bool> overlap,
    double* hidden_fraction) {
  const int largest = *std::max_element(cores.begin(), cores.end());
  bool hidden_read = false;
  std::vector<ScalingPoint> points;
  for (const int p : cores) {
    sim::Cluster cluster(machine, p);
    const auto app = factory({0, p});
    if (overlap.has_value()) {
      app->set_overlap(*overlap);
    }
    points.push_back({static_cast<double>(p),
                      measure_step_seconds(*app, cluster, steps)});
    if (hidden_fraction != nullptr && p == largest && !hidden_read) {
      hidden_read = true;
      const double hidden = cluster.comm_hidden_seconds(app->ranks());
      double charged = 0.0;
      for (sim::Rank r = 0; r < p; ++r) {
        charged += cluster.profile().rank_total(r).comm;
      }
      *hidden_fraction =
          hidden + charged > 0.0 ? hidden / (hidden + charged) : 0.0;
    }
  }
  return points;
}

void expect_same_curve(const ScalingCurve& got, const ScalingCurve& want) {
  ASSERT_EQ(got.coefficients().size(), want.coefficients().size());
  for (std::size_t k = 0; k < want.coefficients().size(); ++k) {
    EXPECT_EQ(bits(got.coefficients()[k]), bits(want.coefficients()[k]));
  }
}

TEST(Sweep, LargestFirstReuseMatchesFreshClustersBitwise) {
  // Unsorted, with a duplicate, so the largest-first visit order differs
  // from the input order and one count is visited twice.
  const std::vector<int> cores = {260, 1000, 130, 2048, 1000, 515};
  const auto machine = sim::MachineModel::archer2();
  const workflow::EngineCase ec =
      workflow::hpc_combustor_hpt_with_casing(true);
  std::vector<AppFactory> factories;
  for (const workflow::AppKind kind :
       {workflow::AppKind::kMgcfd, workflow::AppKind::kSimpic,
        workflow::AppKind::kThermal}) {
    const auto spec = std::find_if(
        ec.instances.begin(), ec.instances.end(),
        [&](const workflow::InstanceSpec& s) { return s.kind == kind; });
    ASSERT_NE(spec, ec.instances.end());
    factories.push_back(workflow::instance_factory(ec, *spec));
  }
  factories.push_back(workflow::coupler_bench_factory(ec.couplers.front()));

  constexpr int kSteps = 2;
  for (std::size_t f = 0; f < factories.size(); ++f) {
    SCOPED_TRACE("factory " + std::to_string(f));
    const AppFactory& factory = factories[f];
    const auto reused = measure_scaling(factory, machine, cores, kSteps);
    const auto fresh =
        fresh_cluster_sweep(factory, machine, cores, kSteps, {}, nullptr);
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(reused[i].cores, fresh[i].cores);
      EXPECT_EQ(bits(reused[i].seconds), bits(fresh[i].seconds)) << i;
    }

    const OverlapVariants variants =
        fit_overlap_variants(factory, machine, cores, kSteps);
    double hidden_fraction = -1.0;
    expect_same_curve(variants.synchronous,
                      ScalingCurve::fit(fresh_cluster_sweep(
                          factory, machine, cores, kSteps, false, nullptr)));
    expect_same_curve(variants.overlapped,
                      ScalingCurve::fit(fresh_cluster_sweep(
                          factory, machine, cores, kSteps, true,
                          &hidden_fraction)));
    EXPECT_EQ(bits(variants.hidden_fraction), bits(hidden_fraction));
  }
}

TEST(Sweep, OverlapHiddenFractionIsTakenAtTheLargestCoreCount) {
  const auto factory = [](sim::RankRange r) -> std::unique_ptr<sim::App> {
    return std::make_unique<mgcfd::Instance>("m", 24'000'000, r);
  };
  const auto machine = sim::MachineModel::archer2();
  const std::vector<int> ascending = {128, 512, 2048};
  const std::vector<int> descending = {2048, 512, 128};
  const OverlapVariants up =
      fit_overlap_variants(factory, machine, ascending, 2);
  const OverlapVariants down =
      fit_overlap_variants(factory, machine, descending, 2);
  EXPECT_GT(up.hidden_fraction, 0.0);
  EXPECT_EQ(bits(up.hidden_fraction), bits(down.hidden_fraction));
}

/// Leave-one-out cross-validation of the fit: the mean relative error of
/// predicting each point from a curve fitted to all the others.
double loocv_relative_error(const std::vector<ScalingPoint>& points) {
  double sum = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::vector<ScalingPoint> rest = points;
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    const ScalingCurve curve = ScalingCurve::fit(rest);
    sum += std::abs(curve.time_at(points[i].cores) - points[i].seconds) /
           points[i].seconds;
  }
  return sum / static_cast<double>(points.size());
}

TEST(ScalingCurve, LoocvNearZeroOnExactData) {
  // Data in the curve family: every held-out core count is predicted.
  const auto pts = synthetic_points(3000.0, 0.05, 0.0, 2e-5);
  EXPECT_LT(loocv_relative_error(pts), 1e-6);
}

TEST(ScalingCurve, LoocvDetectsModelMismatch) {
  // Data outside the curve family (a p^0.5 term) must show up as held-out
  // error even though the in-sample fit may look acceptable.
  std::vector<ScalingPoint> pts;
  for (double p = 64; p <= 40000; p *= 2.1) {
    pts.push_back({p, 2000.0 / p + 0.01 * std::sqrt(p)});
  }
  EXPECT_GT(loocv_relative_error(pts), 0.01);
  // Two points leave one to fit, fewer than fit accepts.
  EXPECT_THROW(
      loocv_relative_error(std::vector<ScalingPoint>{{1, 1}, {2, 1}}),
      CheckError);
}

// --- Algorithm 1 ---

InstanceModel flat_model(const std::string& name, double a, double d = 0.0,
                         int min_ranks = 1) {
  std::vector<ScalingPoint> pts;
  for (double p = 16; p <= 50000; p *= 2) {
    pts.push_back({p, a / p + d * p + 1e-6});
  }
  InstanceModel m;
  m.name = name;
  m.curve = ScalingCurve::fit(pts);
  m.min_ranks = min_ranks;
  return m;
}

TEST(Allocator, BalancesTwoEqualApps) {
  std::vector<InstanceModel> apps = {flat_model("a", 1000.0),
                                     flat_model("b", 1000.0)};
  const Allocation alloc = distribute_ranks(apps, {}, 1000);
  EXPECT_NEAR(alloc.app_ranks[0], alloc.app_ranks[1], 1);
  EXPECT_EQ(alloc.app_ranks[0] + alloc.app_ranks[1], 1000);
}

TEST(Allocator, GivesMoreToBiggerApp) {
  std::vector<InstanceModel> apps = {flat_model("small", 100.0),
                                     flat_model("big", 900.0)};
  const Allocation alloc = distribute_ranks(apps, {}, 1000);
  // Perfect-scaling apps balance when ranks are proportional to work.
  EXPECT_NEAR(alloc.app_ranks[1], 900, 20);
  EXPECT_NEAR(alloc.app_time, apps[0].time(alloc.app_ranks[0]), 1.0);
}

TEST(Allocator, ScaleMultipliesRuntime) {
  InstanceModel base = flat_model("x", 100.0);
  InstanceModel scaled = base;
  scaled.scale = 30.0;  // 24M mesh, 250 steps vs 8M base, 25 steps
  EXPECT_NEAR(scaled.time(100) / base.time(100), 30.0, 1e-9);
}

TEST(Allocator, StopsAtSerialOptimum) {
  // An app with a strong serial term must not be fed past its optimum.
  std::vector<InstanceModel> apps = {flat_model("pipeline", 10000.0, 1e-4)};
  const Allocation alloc = distribute_ranks(apps, {}, 50000);
  const double p_star = std::sqrt(10000.0 / 1e-4);  // = 10000
  EXPECT_NEAR(alloc.app_ranks[0], p_star, 0.15 * p_star);
}

TEST(Allocator, RespectsMinimaAndCaps) {
  InstanceModel capped = flat_model("capped", 1000.0);
  capped.max_ranks = 50;
  InstanceModel floored = flat_model("floored", 1.0);
  floored.min_ranks = 100;
  std::vector<InstanceModel> apps = {capped, floored};
  const Allocation alloc = distribute_ranks(apps, {}, 1000);
  EXPECT_LE(alloc.app_ranks[0], 50);
  EXPECT_GE(alloc.app_ranks[1], 100);
}

TEST(Allocator, PredictedRuntimeIsMaxAppPlusMaxCu) {
  std::vector<InstanceModel> apps = {flat_model("a", 500.0),
                                     flat_model("b", 100.0)};
  std::vector<InstanceModel> cus = {flat_model("cu", 10.0)};
  const Allocation alloc = distribute_ranks(apps, cus, 600);
  EXPECT_NEAR(alloc.predicted_runtime, alloc.app_time + alloc.cu_time,
              1e-12);
  EXPECT_GT(alloc.app_time, alloc.cu_time);
}

TEST(Allocator, CouplerGetsRanksWhenItDominates) {
  std::vector<InstanceModel> apps = {flat_model("app", 10.0)};
  std::vector<InstanceModel> cus = {flat_model("fat_cu", 1000.0)};
  const Allocation alloc = distribute_ranks(apps, cus, 500);
  EXPECT_GT(alloc.cu_ranks[0], alloc.app_ranks[0]);
}

TEST(Allocator, ThrowsWhenBudgetBelowMinima) {
  InstanceModel m = flat_model("m", 10.0);
  m.min_ranks = 100;
  std::vector<InstanceModel> apps = {m, m};
  EXPECT_THROW(distribute_ranks(apps, {}, 150), CheckError);
}

TEST(Persistence, RoundTripsModels) {
  ModelSet models;
  InstanceModel app = flat_model("mgcfd_24m", 123.456, 7.8e-5, 100);
  app.scale = 2.5e4;
  app.max_ranks = 12345;
  models.apps.push_back(app);
  InstanceModel cu = flat_model("cu_a_b", 0.125);
  models.cus.push_back(cu);

  std::ostringstream out;
  save_models(out, models);
  std::istringstream in(out.str());
  const ModelSet loaded = load_models(in);

  ASSERT_EQ(loaded.apps.size(), 1u);
  ASSERT_EQ(loaded.cus.size(), 1u);
  EXPECT_EQ(loaded.apps[0].name, "mgcfd_24m");
  EXPECT_EQ(loaded.apps[0].min_ranks, 100);
  EXPECT_EQ(loaded.apps[0].max_ranks, 12345);
  EXPECT_DOUBLE_EQ(loaded.apps[0].scale, 2.5e4);
  // The curve evaluates identically everywhere we care about.
  for (double p : {1.0, 64.0, 1000.0, 40000.0}) {
    EXPECT_DOUBLE_EQ(loaded.apps[0].curve.time_at(p),
                     models.apps[0].curve.time_at(p))
        << "p=" << p;
    EXPECT_DOUBLE_EQ(loaded.cus[0].curve.time_at(p),
                     models.cus[0].curve.time_at(p));
  }
}

TEST(Persistence, RejectsMalformedFiles) {
  const char* bad[] = {
      "app x scale=1 min=1 max=2 a=1 b=0 c=0",       // missing header + d
      "# cpx-perfmodel v1\nbogus x",                 // bad tag
      "# cpx-perfmodel v1\napp x scale=oops min=1 max=2 a=1 b=0 c=0 d=0",
      "",                                             // no header
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(load_models(in), CheckError) << text;
  }
}

TEST(Persistence, SaveLoadSaveIsByteIdentical) {
  // Full round-trip stability: what save emits, load reconstructs exactly,
  // and a second save reproduces byte for byte.
  ModelSet models;
  InstanceModel app = flat_model("mgcfd_150m", 321.5, 3.2e-5, 16);
  app.scale = 1.75e3;
  app.max_ranks = 4096;
  models.apps.push_back(app);
  models.cus.push_back(flat_model("cu_row1_row2", 0.5));

  std::ostringstream first;
  save_models(first, models);
  std::istringstream in(first.str());
  const ModelSet loaded = load_models(in);
  std::ostringstream second;
  save_models(second, loaded);
  EXPECT_EQ(first.str(), second.str());
}

TEST(Persistence, SaveRejectsNamesThatWouldNotRoundTrip) {
  // The format is whitespace-delimited: a name with whitespace (or none at
  // all) saves "fine" and then fails to load. Refuse at save time.
  for (const char* name : {"", "two words", "tab\tname", "new\nline"}) {
    ModelSet models;
    InstanceModel m = flat_model("ok", 1.0);
    m.name = name;
    models.apps.push_back(m);
    std::ostringstream out;
    EXPECT_THROW(save_models(out, models), CheckError) << "name='" << name
                                                       << "'";
  }
}

TEST(Persistence, RejectsInvalidFieldValues) {
  const char* bad[] = {
      // min > max.
      "# cpx-perfmodel v1\napp x scale=1 min=5 max=2 a=1 b=0 c=0 d=0",
      // Non-positive scale.
      "# cpx-perfmodel v1\napp x scale=0 min=1 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=-3 min=1 max=2 a=1 b=0 c=0 d=0",
      // Rank bounds must be positive integers.
      "# cpx-perfmodel v1\napp x scale=1 min=0 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=1 min=-4 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=1 min=1.5 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=1 min=1 max=2.5 a=1 b=0 c=0 d=0",
      // Trailing junk inside and after the numbers.
      "# cpx-perfmodel v1\napp x scale=1x min=1 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=1 min=1 max=2 a=1 b=0 c=0 d=0 extra",
      // Non-finite values.
      "# cpx-perfmodel v1\napp x scale=inf min=1 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=nan min=1 max=2 a=1 b=0 c=0 d=0",
      "# cpx-perfmodel v1\napp x scale=1e999 min=1 max=2 a=1 b=0 c=0 d=0",
      // Empty value.
      "# cpx-perfmodel v1\napp x scale= min=1 max=2 a=1 b=0 c=0 d=0",
  };
  for (const char* text : bad) {
    std::istringstream in(text);
    EXPECT_THROW(load_models(in), CheckError) << text;
  }
}

TEST(Persistence, FromCoefficientsRejectsNegatives) {
  EXPECT_THROW(ScalingCurve::from_coefficients({1.0, -0.5, 0.0, 0.0}),
               CheckError);
  EXPECT_THROW(ScalingCurve::from_coefficients({1.0, 2.0}), CheckError);
}

TEST(Allocator, MakeComputesSizeAndIterScale) {
  // The paper's example: 24M mesh / 250 steps vs the 8M / 25-step base
  // case gives a 30x initial runtime.
  const InstanceModel m = InstanceModel::make(
      "mgcfd24", flat_model("base", 10.0).curve, 8e6, 25.0, 24e6, 250.0);
  EXPECT_NEAR(m.scale, 30.0, 1e-12);
}

// --- Roofline accounting ---

TEST(Roofline, RidgeAndAttainableFollowTheModel) {
  const RooflineMachine m{40.0, 20.0};  // ridge at 2 flop/byte
  EXPECT_NEAR(m.ridge_intensity(), 2.0, 1e-15);
  EXPECT_NEAR(m.attainable_gflops(0.5), 10.0, 1e-12);  // bandwidth slope
  EXPECT_NEAR(m.attainable_gflops(8.0), 40.0, 1e-12);  // compute ceiling
}

TEST(Roofline, ClassifyDerivesCoordinates) {
  const RooflineMachine m{40.0, 20.0};
  // 2e9 flops over 16e9 bytes in 1 s: I = 0.125, memory-bound, achieving
  // 2 GFLOP/s of an attainable 2.5.
  const KernelSample s{"spmv", 2'000'000'000, 16'000'000'000, 1.0};
  const RooflinePoint p = classify(s, m);
  EXPECT_EQ(p.name, "spmv");
  EXPECT_NEAR(p.intensity, 0.125, 1e-15);
  EXPECT_NEAR(p.gflops, 2.0, 1e-12);
  EXPECT_NEAR(p.gbs, 16.0, 1e-12);
  EXPECT_NEAR(p.ceiling_gflops, 2.5, 1e-12);
  EXPECT_NEAR(p.fraction_of_roof, 0.8, 1e-12);
  EXPECT_TRUE(p.memory_bound);
}

TEST(Roofline, ClassifyZeroWorkYieldsZeroesNotNans) {
  const RooflineMachine m{40.0, 20.0};
  const RooflinePoint p = classify(KernelSample{"empty", 0, 0, 0.0}, m);
  EXPECT_EQ(p.intensity, 0.0);
  EXPECT_EQ(p.gflops, 0.0);
  EXPECT_EQ(p.gbs, 0.0);
  EXPECT_EQ(p.fraction_of_roof, 0.0);
}

TEST(Roofline, PredictedSecondsIsTheSlowerCeiling) {
  // Timed at the attainable rate, a kernel takes as long as the slower of
  // its two ceilings: flops at peak, or bytes at full bandwidth.
  const RooflineMachine m{40.0, 20.0};
  const auto seconds = [&m](double flops, double bytes) {
    return flops / (m.attainable_gflops(flops / bytes) * 1e9);
  };
  // Memory-bound: 20 GB at 20 GB/s = 1 s, flops would take 0.025 s.
  EXPECT_NEAR(seconds(1e9, 20e9), 1.0, 1e-12);
  // Compute-bound: 80 Gflop at 40 GFLOP/s = 2 s.
  EXPECT_NEAR(seconds(80e9, 1e9), 2.0, 1e-12);
  // At the ridge both ceilings take the same time.
  EXPECT_NEAR(seconds(40e9, 20e9), 1.0, 1e-12);
}

TEST(Roofline, JsonDocumentIsValidAndCarriesEveryKernel) {
  const RooflineMachine m{40.0, 20.0};
  const std::vector<KernelSample> samples = {
      {"blas1/dot", 2000, 16000, 1e-6},
      {"sparse/spmv", 9000, 90000, 2e-6},
  };
  std::ostringstream os;
  write_roofline_json(os, m, samples);
  const testing::JsonValue doc = testing::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("schema")->str, "cpx-roofline-v1");
  const testing::JsonValue* machine = doc.find("machine");
  ASSERT_NE(machine, nullptr);
  EXPECT_NEAR(machine->find("peak_gflops")->number, 40.0, 1e-12);
  EXPECT_NEAR(machine->find("ridge_intensity")->number, 2.0, 1e-12);
  const testing::JsonValue* kernels = doc.find("kernels");
  ASSERT_NE(kernels, nullptr);
  ASSERT_EQ(kernels->items.size(), 2u);
  const testing::JsonValue& dot = kernels->items[0];
  EXPECT_EQ(dot.find("name")->str, "blas1/dot");
  EXPECT_NEAR(dot.find("intensity")->number, 0.125, 1e-12);
  EXPECT_NEAR(dot.find("gflops")->number, 2.0, 1e-9);
  EXPECT_TRUE(dot.find("memory_bound")->boolean);
}

}  // namespace
}  // namespace cpx::perfmodel
