#include "workflow/coupled.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <string_view>

#include "mgcfd/instance.hpp"
#include "thermal/instance.hpp"
#include "simpic/instance.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace cpx::workflow {
namespace {

std::uint64_t fold_str(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h = hash_mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
  return hash_mix(h, s.size());
}

std::uint64_t fold_f64(std::uint64_t h, double v) {
  return hash_mix(h, std::bit_cast<std::uint64_t>(v));
}

/// The CPX_CKPT_EVERY cadence: unset, empty or 0 is off. Anything but a
/// whole non-negative int throws CheckError; a numeric prefix ("10x") is
/// not a count.
int parse_ckpt_every(const char* text) {
  if (text == nullptr || *text == '\0') {
    return 0;
  }
  const std::string_view s(text);
  int n = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  CPX_REQUIRE(ec == std::errc() && ptr == s.data() + s.size() && n >= 0,
              "CPX_CKPT_EVERY expects a non-negative step count, got '"
                  << s << "'");
  return n;
}

}  // namespace

int RankAssignment::total() const {
  return std::accumulate(app_ranks.begin(), app_ranks.end(), 0) +
         std::accumulate(cu_ranks.begin(), cu_ranks.end(), 0);
}

CoupledSimulation::CoupledSimulation(const EngineCase& engine_case,
                                     const sim::MachineModel& machine,
                                     const RankAssignment& assignment)
    : case_(engine_case), machine_(machine), assignment_(assignment) {
  CPX_REQUIRE(assignment.app_ranks.size() == engine_case.instances.size(),
              "CoupledSimulation: app rank list size mismatch");
  CPX_REQUIRE(assignment.cu_ranks.size() == engine_case.couplers.size(),
              "CoupledSimulation: CU rank list size mismatch");

  cluster_ = std::make_unique<sim::Cluster>(machine, assignment.total());

  // Lay instances out in case order, coupler units after them.
  sim::Rank next = 0;
  for (std::size_t i = 0; i < case_.instances.size(); ++i) {
    const int p = assignment.app_ranks[i];
    CPX_REQUIRE(p >= 1, "CoupledSimulation: instance "
                            << case_.instances[i].name << " has no ranks");
    const sim::RankRange range{next, next + p};
    next += p;
    app_ranges_.push_back(range);
    apps_.push_back(make_app(case_.instances[i], range));
  }
  for (std::size_t i = 0; i < case_.couplers.size(); ++i) {
    const CouplerSpec& spec = case_.couplers[i];
    const int p = assignment.cu_ranks[i];
    CPX_REQUIRE(p >= 1, "CoupledSimulation: coupler " << spec.name
                                                      << " has no ranks");
    const sim::RankRange range{next, next + p};
    next += p;
    cu_ranges_.push_back(range);

    coupler::UnitConfig config;
    config.kind = spec.kind;
    config.interface_cells = spec.interface_cells;
    config.tree_search = spec.tree_search;
    cus_.push_back(std::make_unique<coupler::CouplerUnit>(
        spec.name, config, range,
        *apps_[static_cast<std::size_t>(spec.instance_a)],
        *apps_[static_cast<std::size_t>(spec.instance_b)]));
  }

  // Snapshot cadence from the environment (docs/checkpoint.md):
  // CPX_CKPT_EVERY=<n> writes CPX_CKPT_PATH (default "cpx.ckpt") every n
  // density steps. set_checkpoint_cadence() overrides programmatically.
  if (const int n = parse_ckpt_every(std::getenv("CPX_CKPT_EVERY")); n > 0) {
    const char* path = std::getenv("CPX_CKPT_PATH");
    set_checkpoint_cadence(n, path != nullptr ? path : "cpx.ckpt");
  }
}

std::unique_ptr<sim::App> CoupledSimulation::make_app(
    const InstanceSpec& spec, sim::RankRange ranks) const {
  switch (spec.kind) {
    case AppKind::kMgcfd:
      return std::make_unique<mgcfd::Instance>(spec.name, spec.mesh_cells,
                                               ranks);
    case AppKind::kSimpic: {
      const double weight = static_cast<double>(spec.stc.timesteps) /
                            case_.coupled_pressure_steps_per_run;
      return std::make_unique<simpic::Instance>(
          spec.name, spec.stc, ranks, simpic::WorkModel{}, weight);
    }
    case AppKind::kThermal:
      return std::make_unique<thermal::Instance>(spec.name, spec.mesh_cells,
                                                 ranks);
  }
  CPX_CHECK_MSG(false, "make_app: unknown app kind");
}

void CoupledSimulation::set_overlap_enabled(bool enabled) {
  for (const std::unique_ptr<sim::App>& app : apps_) {
    app->set_overlap(enabled);
  }
  for (const std::unique_ptr<coupler::CouplerUnit>& cu : cus_) {
    cu->set_overlap(enabled);
  }
}

void CoupledSimulation::step_instance(int index) {
  const InstanceSpec& spec =
      case_.instances[static_cast<std::size_t>(index)];
  sim::App& app = *apps_[static_cast<std::size_t>(index)];
  if (spec.kind == AppKind::kSimpic) {
    for (int s = 0; s < case_.pressure_steps_per_density_step; ++s) {
      app.step(*cluster_);
    }
  } else {
    for (int it = 0; it < spec.iterations_per_density_step; ++it) {
      app.step(*cluster_);
    }
  }
}

void CoupledSimulation::run(int density_steps) {
  CPX_REQUIRE(density_steps >= 1, "run: bad step count");
  // The step counter advances per completed step (not in bulk at the end)
  // so a RankFailure thrown mid-schedule leaves it truthful and a cadence
  // snapshot taken mid-run records the right resume point.
  const int target = density_steps_run_ + density_steps;
  while (density_steps_run_ < target) {
    const int step_index = density_steps_run_;
    cluster_->begin_step(step_index);  // drives the fault-injection trigger
    // Density (and other non-pressure) instances advance first...
    {
      CPX_METRICS_SCOPE("workflow/density_phase");
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        if (case_.instances[i].kind != AppKind::kSimpic) {
          step_instance(static_cast<int>(i));
        }
      }
    }
    // ...then the pressure proxy (two pressure steps per density step)...
    {
      CPX_METRICS_SCOPE("workflow/pressure_phase");
      for (std::size_t i = 0; i < apps_.size(); ++i) {
        if (case_.instances[i].kind == AppKind::kSimpic) {
          step_instance(static_cast<int>(i));
        }
      }
    }
    // ...then every coupler whose cadence fires this step.
    if (coupling_enabled_) {
      CPX_METRICS_SCOPE_COMM("workflow/exchange_phase");
      for (std::size_t i = 0; i < cus_.size(); ++i) {
        if (step_index % case_.couplers[i].exchange_every == 0) {
          cus_[i]->exchange(*cluster_);
          support::metrics::counter_add("workflow/exchanges", 1);
        }
      }
    }
    ++density_steps_run_;
    if (ckpt_every_ > 0 && density_steps_run_ % ckpt_every_ == 0) {
      checkpoint(ckpt_path_);
    }
  }
}

double CoupledSimulation::runtime() const { return cluster_->max_clock(); }

double CoupledSimulation::instance_runtime(int index) const {
  CPX_REQUIRE(index >= 0 &&
                  static_cast<std::size_t>(index) < app_ranges_.size(),
              "instance_runtime: bad index " << index);
  return cluster_->max_clock(app_ranges_[static_cast<std::size_t>(index)]);
}

double CoupledSimulation::standalone_runtime(int index,
                                             int density_steps) const {
  CPX_REQUIRE(index >= 0 &&
                  static_cast<std::size_t>(index) < case_.instances.size(),
              "standalone_runtime: bad index " << index);
  const InstanceSpec& spec =
      case_.instances[static_cast<std::size_t>(index)];
  const int p = assignment_.app_ranks[static_cast<std::size_t>(index)];
  sim::Cluster cluster(machine_, p);
  const auto app = make_app(spec, {0, p});
  const int steps_per_density =
      spec.kind == AppKind::kSimpic ? case_.pressure_steps_per_density_step
                                    : spec.iterations_per_density_step;
  for (int d = 0; d < density_steps; ++d) {
    for (int s = 0; s < steps_per_density; ++s) {
      app->step(cluster);
    }
  }
  return cluster.max_clock();
}

std::uint64_t CoupledSimulation::case_digest() const {
  std::uint64_t h = 0x6370'78636b7074ULL;
  h = fold_str(h, case_.name);
  h = hash_mix(h, case_.instances.size(), case_.couplers.size());
  for (const InstanceSpec& spec : case_.instances) {
    h = fold_str(h, spec.name);
    h = hash_mix(h, static_cast<std::uint64_t>(spec.kind),
                 static_cast<std::uint64_t>(spec.mesh_cells));
    h = hash_mix(h, static_cast<std::uint64_t>(
                        spec.iterations_per_density_step));
    h = fold_str(h, spec.stc.name);
    h = hash_mix(h, static_cast<std::uint64_t>(spec.stc.cells),
                 static_cast<std::uint64_t>(spec.stc.timesteps));
    h = fold_f64(h, spec.stc.particles_per_cell);
  }
  for (const CouplerSpec& spec : case_.couplers) {
    h = fold_str(h, spec.name);
    h = hash_mix(h, static_cast<std::uint64_t>(spec.instance_a),
                 static_cast<std::uint64_t>(spec.instance_b));
    h = hash_mix(h, static_cast<std::uint64_t>(spec.kind),
                 static_cast<std::uint64_t>(spec.interface_cells));
    h = hash_mix(h, static_cast<std::uint64_t>(spec.exchange_every),
                 spec.tree_search ? 1 : 0);
  }
  h = hash_mix(h,
               static_cast<std::uint64_t>(
                   case_.pressure_steps_per_density_step));
  h = fold_f64(h, case_.coupled_pressure_steps_per_run);
  for (const int p : assignment_.app_ranks) {
    h = hash_mix(h, static_cast<std::uint64_t>(p), 1);
  }
  for (const int p : assignment_.cu_ranks) {
    h = hash_mix(h, static_cast<std::uint64_t>(p), 2);
  }
  return h;
}

void CoupledSimulation::set_checkpoint_cadence(int every, std::string path) {
  CPX_REQUIRE(every >= 0, "set_checkpoint_cadence: bad cadence " << every);
  CPX_REQUIRE(every == 0 || !path.empty(),
              "set_checkpoint_cadence: empty path");
  ckpt_every_ = every;
  ckpt_path_ = std::move(path);
}

void CoupledSimulation::serialize(ckpt::Writer& w) const {
  w.begin_section("workflow/coupled");
  w.put_u64(case_digest());
  w.put_u32(static_cast<std::uint32_t>(density_steps_run_));
  w.put_u8(coupling_enabled_ ? 1 : 0);
  w.end_section();
  cluster_->serialize(w);
  for (const std::unique_ptr<coupler::CouplerUnit>& cu : cus_) {
    cu->serialize(w);
  }
  // Host metrics counters, so a resumed run's cumulative counters match an
  // uninterrupted one. Regions (wall-clock timings) are not carried over:
  // they measure the host, not the simulated state.
  w.begin_section("support/metrics");
  if (support::metrics::enabled()) {
    const support::metrics::Snapshot snap = support::metrics::snapshot();
    w.put_u32(static_cast<std::uint32_t>(snap.counters.size()));
    for (const support::metrics::CounterSnapshot& c : snap.counters) {
      w.put_str(c.name);
      w.put_i64(c.value);
    }
  } else {
    w.put_u32(0);
  }
  w.end_section();
}

void CoupledSimulation::restore(ckpt::Reader& r) {
  r.open_section("workflow/coupled");
  const std::uint64_t digest = r.get_u64();
  CPX_CHECK_MSG(digest == case_digest(),
                "CoupledSimulation::restore: snapshot was taken from a "
                "different case or rank assignment");
  density_steps_run_ = static_cast<int>(r.get_u32());
  coupling_enabled_ = r.get_u8() != 0;
  r.end_section();
  cluster_->restore(r);
  for (const std::unique_ptr<coupler::CouplerUnit>& cu : cus_) {
    cu->restore(r);
  }
  r.open_section("support/metrics");
  const std::uint32_t counters = r.get_u32();
  if (support::metrics::enabled()) {
    support::metrics::reset();
    for (std::uint32_t i = 0; i < counters; ++i) {
      const std::string name = r.get_str();
      support::metrics::counter_add(name, r.get_i64());
    }
  } else {
    for (std::uint32_t i = 0; i < counters; ++i) {
      (void)r.get_str();
      (void)r.get_i64();
    }
  }
  r.end_section();
}

std::span<const std::byte> CoupledSimulation::checkpoint_bytes() {
  writer_.begin();
  serialize(writer_);
  writer_.finish();
  return writer_.bytes();
}

void CoupledSimulation::checkpoint(const std::string& path) {
  checkpoint_bytes();
  writer_.write_file(path);
}

void CoupledSimulation::restore(std::span<const std::byte> bytes) {
  ckpt::Reader r(bytes);
  restore(r);
}

void CoupledSimulation::restore(const std::string& path) {
  std::vector<std::byte> bytes;
  ckpt::read_file(path, bytes);
  restore(std::span<const std::byte>(bytes));
}

}  // namespace cpx::workflow
