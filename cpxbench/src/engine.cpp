// engine-40k: the paper's headline use. Plan the Optimized-STC
// HPC-Combustor-HPT case (Fig 9) on a 40,000-core budget with the empirical
// model and Alg 1, then advance the coupled simulation on that allocation
// one density step at a time. The case is fixed by the paper, so the seed
// is unused. Host time goes to the single-threaded simulator core and the
// perfmodel sweeps.

#include <array>
#include <bit>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "perfmodel/allocator.hpp"
#include "support/parallel.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

namespace cpxbench {
namespace {

using namespace cpx;

constexpr int kBudget = 40000;

// Reference outputs of this case. Virtual time is an output that must never
// move (ROADMAP.md), so every run compares bitwise against these.
constexpr std::array<int, 16> kRefAppRanks = {
    100, 198, 197, 197, 197, 197, 197, 197,
    197, 197, 197, 197, 1245, 32676, 1245, 2486};
constexpr std::array<int, 15> kRefCuRanks = {1, 3, 3, 3, 3, 3, 3, 3,
                                             3, 3, 3, 3, 4, 4, 38};
struct RuntimeRef {
  int step;
  std::uint64_t bits;  ///< CoupledSimulation::runtime() after `step` steps
};
constexpr std::array<RuntimeRef, 28> kRefRuntime = {{
    {1, 0x3ff4a13fc1d747d5ULL}, {2, 0x3ffd196396da1bfdULL},
    {5, 0x400c067f2154e57cULL}, {10, 0x40194fd0182844a4ULL},
    {20, 0x4027f4789391f65fULL}, {50, 0x403ced151505b29eULL},
    {100, 0x404c963f33e01e53ULL}, {150, 0x40555af9ee9eafe2ULL},
    {200, 0x405c6ad4434d4ff8ULL}, {250, 0x4061bd574bfdf658ULL},
    {300, 0x40654544765542f8ULL}, {350, 0x4068cd31a0ac8f98ULL},
    {400, 0x406c551ecb03dc38ULL}, {450, 0x406fdd0bf55b28d8ULL},
    {500, 0x4071b27c8fd93c6bULL}, {550, 0x407376732504e47dULL},
    {600, 0x40753a69ba308c8fULL}, {650, 0x4076fe604f5c34a1ULL},
    {700, 0x4078c256e487dcb3ULL}, {750, 0x407a864d79b384c5ULL},
    {800, 0x407c4a440edf2cd7ULL}, {850, 0x407e0e3aa40ad4e9ULL},
    {900, 0x407fd23139367cfbULL}, {950, 0x4080cb1b2841ba27ULL},
    {1000, 0x4081ad2fa2f78955ULL}, {1050, 0x40828f50b5bd4b96ULL},
    {1100, 0x4083716530731ac4ULL}, {1150, 0x408453864338dd05ULL},
}};

/// Steps over which the simulated message and byte counts are taken; the
/// steady-state couplers exchange every 20 density steps.
constexpr int kCountWindow = 40;

bool allocation_matches(const perfmodel::Allocation& a) {
  return std::equal(a.app_ranks.begin(), a.app_ranks.end(),
                    kRefAppRanks.begin(), kRefAppRanks.end()) &&
         std::equal(a.cu_ranks.begin(), a.cu_ranks.end(), kRefCuRanks.begin(),
                    kRefCuRanks.end());
}

}  // namespace

void run_engine(const Context& ctx) {
  apply_pool_width(ctx, 1);

  const auto machine = sim::MachineModel::archer2();
  const workflow::EngineCase ec = workflow::hpc_combustor_hpt(true);

  std::unique_ptr<workflow::CoupledSimulation> sim;
  run_setups(ctx, 9, [&](int) {
    sim.reset();
    const double t0 = now_s();
    workflow::CaseModels models;
    {
      ScopedSpan span("workflow.build_case_models");
      models = workflow::build_case_models(ec, machine, {});
    }
    perfmodel::Allocation alloc;
    {
      ScopedSpan span("perfmodel.distribute_ranks");
      alloc = perfmodel::distribute_ranks(models.apps, models.cus, kBudget);
    }
    const bool ok = allocation_matches(alloc);
    emit("plan %.6f %d", now_s() - t0, ok ? 1 : 0);
    const workflow::RankAssignment ra{alloc.app_ranks, alloc.cu_ranks};
    ScopedSpan span("sim.construct");
    sim = std::make_unique<workflow::CoupledSimulation>(ec, machine, ra);
  });

  const sim::RankRange all{0, sim->cluster().num_ranks()};
  double prev_runtime = 0.0;
  std::int64_t window_messages = 0;
  std::size_t window_bytes = 0;
  std::size_t next_ref = 0;
  int refs_matched = 0;

  TimedLoop loop;
  loop.min_steps = kCountWindow;
  loop.trace_block = 10;
  const TimedResult r = run_timed(
      ctx, loop,
      [&](int i) {
        {
          ScopedSpan span("sim.step");
          sim->run(1);
        }
        // Virtual time only grows, and matches the reference bitwise at
        // every recorded step.
        const double rt = sim->runtime();
        bool ok = std::isfinite(rt) && rt > prev_runtime;
        prev_runtime = rt;
        if (next_ref < kRefRuntime.size() &&
            kRefRuntime[next_ref].step == i + 1) {
          const bool match =
              std::bit_cast<std::uint64_t>(rt) == kRefRuntime[next_ref].bits;
          refs_matched += match ? 1 : 0;
          ok = ok && match;
          ++next_ref;
        }
        return ok;
      },
      [&](int i, bool) {
        if (i + 1 == kCountWindow) {
          window_messages = sim->cluster().comm_messages(all);
          window_bytes = sim->cluster().comm_bytes(all);
        }
      });
  emit("check virtual_runtime %d matched=%d/%zu runtime=%a",
       refs_matched == static_cast<int>(next_ref) ? 1 : 0, refs_matched,
       next_ref, prev_runtime);

  if (ctx.trace) {
    const double traced_steps = r.traced_steps;
    emit("layer sim.step_self_s %.9f",
         tracer().self_seconds("sim.step") / traced_steps);
    emit("layer sim.construct_s %.9f",
         tracer().self_per_call("sim.construct"));
    emit("layer sim.messages_per_step %.6f",
         static_cast<double>(window_messages) / kCountWindow);
    emit("layer sim.bytes_per_step %.6f",
         static_cast<double>(window_bytes) / kCountWindow);
    double step_s = 0.0;
    for (double ms : r.untraced_ms) step_s += ms * 1e-3;
    for (double ms : r.traced_ms) step_s += ms * 1e-3;
    emit("layer sim.events_per_s %.3f",
         static_cast<double>(sim->cluster().comm_messages(all)) / step_s);
    emit("layer workflow.build_case_models_s %.9f",
         tracer().self_per_call("workflow.build_case_models"));
    emit("layer perfmodel.distribute_ranks_s %.9f",
         tracer().self_per_call("perfmodel.distribute_ranks"));
    emit_trace_summary(r);
  }
}

}  // namespace cpxbench
