// Integration tests for the coupled workflow: engine-case construction,
// model building, Alg 1 end-to-end, coupled execution, and the system-
// level properties the paper's evaluation rests on (bottleneck pacing,
// small coupling overhead, per-instance prediction accuracy).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "perfmodel/allocator.hpp"
#include "support/check.hpp"
#include "support/stats.hpp"
#include <sstream>

#include "workflow/case_io.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

namespace cpx::workflow {
namespace {

/// Reduced sweep grids so the integration tests stay fast.
ModelOptions fast_options() {
  ModelOptions o;
  o.app_sweep = {100, 250, 640, 1600, 4000, 10000, 25000};
  o.cu_sweep = {2, 8, 32, 128};
  o.bench_steps = 1;
  return o;
}

TEST(EngineCase, HpcCombustorHptMatchesPaperStructure) {
  const EngineCase c = hpc_combustor_hpt(false);
  ASSERT_EQ(c.instances.size(), 16u);  // Fig 9b: 16 instances
  EXPECT_EQ(c.instances[0].mesh_cells, 8'000'000);
  for (int i = 1; i <= 11; ++i) {
    EXPECT_EQ(c.instances[static_cast<std::size_t>(i)].mesh_cells,
              24'000'000);
  }
  EXPECT_EQ(c.instances[12].mesh_cells, 150'000'000);
  EXPECT_EQ(c.instances[13].kind, AppKind::kSimpic);
  EXPECT_EQ(c.instances[15].mesh_cells, 300'000'000);
  // 1.25Bn effective cells.
  EXPECT_NEAR(static_cast<double>(c.total_cells()), 1.25e9, 0.05e9);

  // 13 sliding planes + 2 steady interfaces.
  int sliding = 0;
  int steady = 0;
  for (const CouplerSpec& cu : c.couplers) {
    if (cu.kind == coupler::InterfaceKind::kSlidingPlane) {
      ++sliding;
      EXPECT_EQ(cu.exchange_every, 1);
    } else {
      ++steady;
      EXPECT_EQ(cu.exchange_every, 20);
    }
  }
  EXPECT_EQ(sliding, 13);
  EXPECT_EQ(steady, 2);
}

TEST(EngineCase, InterfaceSizesFollowPaperFractions) {
  const EngineCase c = hpc_combustor_hpt(false);
  for (const CouplerSpec& cu : c.couplers) {
    const std::int64_t smaller =
        std::min(c.instances[static_cast<std::size_t>(cu.instance_a)]
                     .mesh_cells,
                 c.instances[static_cast<std::size_t>(cu.instance_b)]
                     .mesh_cells);
    const double fraction = static_cast<double>(cu.interface_cells) /
                            static_cast<double>(smaller);
    if (cu.kind == coupler::InterfaceKind::kSlidingPlane) {
      EXPECT_NEAR(fraction, kSlidingInterfaceFraction, 1e-6);
    } else {
      EXPECT_NEAR(fraction, kSteadyInterfaceFraction, 1e-6);
    }
  }
}

TEST(EngineCase, OptimizedSwapsTheStc) {
  const EngineCase base = hpc_combustor_hpt(false);
  const EngineCase opt = hpc_combustor_hpt(true);
  EXPECT_EQ(base.instances[13].stc.name, "Base-STC-380M");
  EXPECT_EQ(opt.instances[13].stc.name, "Optimized-STC");
}

TEST(EngineCase, SmallValidationCase) {
  const EngineCase c = small_validation_case();
  ASSERT_EQ(c.instances.size(), 3u);
  EXPECT_EQ(c.instances[1].kind, AppKind::kSimpic);
  EXPECT_EQ(c.instances[1].stc.proxy_mesh_cells, 28'000'000);
  EXPECT_EQ(c.couplers.size(), 3u);
}

TEST(CaseIo, ParsesAMinimalCase) {
  std::istringstream in(R"(
# a two-row compressor with a combustor proxy
name Tiny test engine
pressure_steps_per_density_step 2

instance mgcfd rotor cells=24000000 iters=10
instance simpic combustor stc=base-28m
coupler sliding rotor combustor every=1 cells=12345
)");
  const EngineCase ec = load_engine_case(in);
  EXPECT_EQ(ec.name, "Tiny test engine");
  ASSERT_EQ(ec.instances.size(), 2u);
  EXPECT_EQ(ec.instances[0].kind, AppKind::kMgcfd);
  EXPECT_EQ(ec.instances[0].iterations_per_density_step, 10);
  EXPECT_EQ(ec.instances[1].stc.proxy_mesh_cells, 28'000'000);
  ASSERT_EQ(ec.couplers.size(), 1u);
  EXPECT_EQ(ec.couplers[0].interface_cells, 12345);
}

TEST(CaseIo, DefaultsInterfaceSizesFromFractions) {
  std::istringstream in(R"(
instance mgcfd a cells=100000000
instance mgcfd b cells=200000000
coupler sliding a b
coupler steady a b
)");
  const EngineCase ec = load_engine_case(in);
  EXPECT_EQ(ec.couplers[0].interface_cells,
            static_cast<std::int64_t>(100e6 * kSlidingInterfaceFraction));
  EXPECT_EQ(ec.couplers[1].interface_cells,
            static_cast<std::int64_t>(100e6 * kSteadyInterfaceFraction));
  EXPECT_EQ(ec.couplers[0].exchange_every, 1);
  EXPECT_EQ(ec.couplers[1].exchange_every, 20);
}

TEST(CaseIo, RoundTripsTheEngineCase) {
  const EngineCase original = hpc_combustor_hpt_with_casing(true);
  std::ostringstream out;
  save_engine_case(out, original);
  std::istringstream in(out.str());
  const EngineCase loaded = load_engine_case(in);
  ASSERT_EQ(loaded.instances.size(), original.instances.size());
  ASSERT_EQ(loaded.couplers.size(), original.couplers.size());
  for (std::size_t i = 0; i < original.instances.size(); ++i) {
    EXPECT_EQ(loaded.instances[i].name, original.instances[i].name);
    EXPECT_EQ(loaded.instances[i].kind, original.instances[i].kind);
    EXPECT_EQ(loaded.instances[i].mesh_cells,
              original.instances[i].mesh_cells);
  }
  for (std::size_t i = 0; i < original.couplers.size(); ++i) {
    EXPECT_EQ(loaded.couplers[i].kind, original.couplers[i].kind);
    EXPECT_EQ(loaded.couplers[i].interface_cells,
              original.couplers[i].interface_cells);
    EXPECT_EQ(loaded.couplers[i].exchange_every,
              original.couplers[i].exchange_every);
  }
}

TEST(CaseIo, RejectsMalformedInput) {
  const char* bad_cases[] = {
      "instance mgcfd a",                        // missing cells
      "instance warp a cells=10",                // unknown kind
      "instance simpic s stc=base-999m",         // unknown stc
      "instance mgcfd a cells=10\ncoupler sliding a b",  // unknown ref
      "bogus directive",
      "",                                        // no instances
      "instance mgcfd a cells=xyz",              // bad integer
      "instance mgcfd a cells=10\ninstance mgcfd a cells=10",  // duplicate
  };
  for (const char* text : bad_cases) {
    std::istringstream in(text);
    EXPECT_THROW(load_engine_case(in), CheckError) << text;
  }
}

TEST(Models, CurvesFitTheirOwnSweeps) {
  const EngineCase c = small_validation_case();
  const CaseModels models =
      build_case_models(c, sim::MachineModel::archer2(), fast_options());
  ASSERT_EQ(models.apps.size(), 3u);
  ASSERT_EQ(models.cus.size(), 3u);
  for (const auto& m : models.apps) {
    EXPECT_LT(m.curve.max_fit_error(), 0.15) << m.name;
  }
}

TEST(Models, SimpicCanUseManyMoreRanksThanItsCells) {
  const EngineCase c = hpc_combustor_hpt(false);
  const CaseModels models =
      build_case_models(c, sim::MachineModel::archer2(), fast_options());
  // 512k 1-D cells must allow >> 512000/2000 ranks.
  EXPECT_GT(models.apps[13].max_ranks, 10'000);
}

TEST(Models, Fig9PlanIsPinnedBitwise) {
  // The Fig 9 what-if plan is an output that must never move: the default
  // model sweeps of HPC-Combustor-HPT and Alg 1 at 40,000 cores give these
  // rank vectors and this predicted runtime, bit for bit. Base leaves part
  // of the budget unused (every component is at its cap or past its
  // scaling optimum); Optimized spends it on the pressure solver.
  struct Plan {
    bool optimized;
    std::vector<int> app_ranks;
    std::vector<int> cu_ranks;
    std::uint64_t runtime_bits;
  };
  const std::vector<int> cu_base = {1, 3, 3, 3, 3, 3, 3, 3,
                                    3, 3, 3, 3, 4, 4, 40};
  const std::vector<int> cu_optimized = {1, 3, 3, 3, 3, 3, 3, 3,
                                         3, 3, 3, 3, 4, 4, 38};
  const Plan plans[] = {
      {false,
       {100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 180,
        12768, 180, 357},
       cu_base,
       0x40ac4c79a8704e5fULL},
      {true,
       {100, 198, 197, 197, 197, 197, 197, 197, 197, 197, 197, 197, 1245,
        32676, 1245, 2486},
       cu_optimized,
       0x4080ed0f41435811ULL},
  };
  const auto machine = sim::MachineModel::archer2();
  for (const Plan& plan : plans) {
    const CaseModels models =
        build_case_models(hpc_combustor_hpt(plan.optimized), machine);
    const perfmodel::Allocation alloc =
        perfmodel::distribute_ranks(models.apps, models.cus, 40000);
    EXPECT_EQ(alloc.app_ranks, plan.app_ranks) << "optimized=" << plan.optimized;
    EXPECT_EQ(alloc.cu_ranks, plan.cu_ranks) << "optimized=" << plan.optimized;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(alloc.predicted_runtime),
              plan.runtime_bits)
        << "optimized=" << plan.optimized << ": predicted runtime "
        << std::hexfloat << alloc.predicted_runtime;
  }
}

TEST(Coupled, RunsAtTheBottlenecksPace) {
  // The coupled runtime must track the slowest instance closely (the
  // paper found the overall-vs-SIMPIC difference to be ~5%).
  const EngineCase c = small_validation_case();
  RankAssignment ra;
  ra.app_ranks = {300, 4000, 300};
  ra.cu_ranks = {16, 8, 8};
  CoupledSimulation sim(c, sim::MachineModel::archer2(), ra);
  sim.run(10);
  double slowest = 0.0;
  for (int i = 0; i < 3; ++i) {
    slowest = std::max(slowest, sim.standalone_runtime(i, 10));
  }
  EXPECT_GE(sim.runtime(), 0.99 * slowest);
  EXPECT_LT(sim.runtime(), 1.2 * slowest);
}

TEST(Coupled, CouplingOverheadIsSmall) {
  const EngineCase c = small_validation_case();
  RankAssignment ra;
  ra.app_ranks = {300, 4000, 300};
  ra.cu_ranks = {32, 16, 16};
  CoupledSimulation with(c, sim::MachineModel::archer2(), ra);
  with.run(20);
  CoupledSimulation without(c, sim::MachineModel::archer2(), ra);
  without.set_coupling_enabled(false);
  without.run(20);
  const double overhead =
      (with.runtime() - without.runtime()) / with.runtime();
  EXPECT_GE(overhead, 0.0);
  EXPECT_LT(overhead, 0.05);
}

TEST(Coupled, InstanceRuntimesAreOrdered) {
  const EngineCase c = small_validation_case();
  RankAssignment ra;
  ra.app_ranks = {200, 1000, 200};
  ra.cu_ranks = {8, 4, 4};
  CoupledSimulation sim(c, sim::MachineModel::archer2(), ra);
  sim.run(5);
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(sim.instance_runtime(i), 0.0);
    EXPECT_LE(sim.instance_runtime(i), sim.runtime() + 1e-12);
  }
}

TEST(Coupled, RejectsMismatchedAssignment) {
  const EngineCase c = small_validation_case();
  RankAssignment ra;
  ra.app_ranks = {100, 100};  // missing one instance
  ra.cu_ranks = {4, 4, 4};
  EXPECT_THROW(CoupledSimulation(c, sim::MachineModel::archer2(), ra),
               CheckError);
}

TEST(EndToEnd, SmallCasePredictionsWithinPaperTolerance) {
  // Fig 8: model the small case, allocate 5000 cores, run coupled, and
  // check per-instance prediction error stays below the paper's reported
  // 18% worst case.
  const EngineCase c = small_validation_case();
  const auto machine = sim::MachineModel::archer2();
  const CaseModels models = build_case_models(c, machine, fast_options());
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(models.apps, models.cus, 5000);

  RankAssignment ra{alloc.app_ranks, alloc.cu_ranks};
  CoupledSimulation sim(c, machine, ra);
  const int steps = 10;
  sim.run(steps);
  const double step_fraction =
      static_cast<double>(steps) / 1000.0;  // models assume 1000 steps
  for (std::size_t i = 0; i < models.apps.size(); ++i) {
    const double measured =
        sim.standalone_runtime(static_cast<int>(i), steps) / step_fraction;
    const double predicted = models.apps[i].time(alloc.app_ranks[i]);
    EXPECT_LT(percent_error(predicted, measured), 18.0)
        << models.apps[i].name;
  }
}

TEST(Coupled, RuntimeIsLinearInSteps) {
  // The shortened-run methodology (run 50 steps, scale to 1000) relies on
  // the coupled workload being steady and periodic.
  const EngineCase c = small_validation_case();
  RankAssignment ra;
  ra.app_ranks = {200, 1000, 200};
  ra.cu_ranks = {8, 4, 4};
  CoupledSimulation sim(c, sim::MachineModel::archer2(), ra);
  sim.run(20);
  const double t20 = sim.runtime();
  sim.run(20);  // cumulative: now 40 steps
  const double t40 = sim.runtime();
  EXPECT_NEAR(t40, 2.0 * t20, 0.02 * t40);
}

TEST(EndToEnd, OptimizedBeatsBaseAtScale) {
  // The headline claim: with the optimised pressure solver the coupled
  // simulation speeds up by roughly 4-6x at 40,000 cores.
  const auto machine = sim::MachineModel::archer2();
  double runtimes[2];
  for (const bool optimized : {false, true}) {
    const EngineCase c = hpc_combustor_hpt(optimized);
    const CaseModels models = build_case_models(c, machine, fast_options());
    const perfmodel::Allocation alloc =
        perfmodel::distribute_ranks(models.apps, models.cus, 40000);
    RankAssignment ra{alloc.app_ranks, alloc.cu_ranks};
    CoupledSimulation sim(c, machine, ra);
    sim.run(10);
    runtimes[optimized ? 1 : 0] = sim.runtime();
  }
  const double speedup = runtimes[0] / runtimes[1];
  EXPECT_GT(speedup, 3.5);
  EXPECT_LT(speedup, 8.0);
}

TEST(Coupled, VirtualTimeIsPinnedBitwise) {
  // Virtual time is an output that must never move: the Fig 9 case
  // (Optimized-STC) on the allocation Alg 1 gives for 40,000 cores, with
  // runtime() compared bit for bit after 1, 2, 5, 10 and 20 density
  // steps, with split-phase overlap off and on. A simulator-core change
  // that reorders or pre-sums a single floating-point term fails here.
  const RankAssignment ra{
      {100, 198, 197, 197, 197, 197, 197, 197, 197, 197, 197, 197, 1245,
       32676, 1245, 2486},
      {1, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 38}};
  struct Pin {
    int step;
    std::uint64_t sync_bits;
    std::uint64_t overlap_bits;
  };
  constexpr Pin kPins[] = {
      {1, 0x3ff4a13fc1d747d5ULL, 0x3fe5547d674def69ULL},
      {2, 0x3ffd196396da1bfdULL, 0x3ff3226288a9cbd7ULL},
      {5, 0x400c067f2154e57cULL, 0x4006456703d92422ULL},
      {10, 0x40194fd0182844a4ULL, 0x4015b8e04c301b33ULL},
      {20, 0x4027f4789391f65fULL, 0x4025729cf05b96d2ULL},
  };
  for (const bool overlap : {false, true}) {
    CoupledSimulation sim(hpc_combustor_hpt(true),
                          sim::MachineModel::archer2(), ra);
    sim.set_overlap_enabled(overlap);
    int done = 0;
    for (const Pin& pin : kPins) {
      sim.run(pin.step - done);
      done = pin.step;
      const std::uint64_t want = overlap ? pin.overlap_bits : pin.sync_bits;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sim.runtime()), want)
          << "overlap=" << overlap << " step " << pin.step << ": runtime "
          << std::hexfloat << sim.runtime() << " expected "
          << std::bit_cast<double>(want);
    }
  }
}

}  // namespace
}  // namespace cpx::workflow
