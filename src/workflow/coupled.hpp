#pragma once
// The coupled mini-app simulation: instantiates an EngineCase on the
// virtual cluster with a given rank assignment and advances the coupling
// schedule:
//   per density step:
//     * every density instance runs its solver iterations,
//     * sliding-plane CUs exchange (every density step),
//     * the pressure proxy runs pressure_steps_per_density_step steps,
//     * steady-state CUs exchange on their cadence (every 20 steps).
// Because coupler exchanges move real (virtual-time) messages between the
// instances' boundary ranks, the simulation progresses at the pace of the
// slowest component — the load-balancing problem the performance model
// solves.

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "cpx/unit.hpp"
#include "sim/cluster.hpp"
#include "workflow/engine_case.hpp"

namespace cpx::workflow {

struct RankAssignment {
  std::vector<int> app_ranks;  ///< per EngineCase instance
  std::vector<int> cu_ranks;   ///< per EngineCase coupler

  int total() const;
};

class CoupledSimulation {
 public:
  CoupledSimulation(const EngineCase& engine_case,
                    const sim::MachineModel& machine,
                    const RankAssignment& assignment);

  /// Advances the schedule; cumulative (can be called repeatedly).
  void run(int density_steps);

  int density_steps_run() const { return density_steps_run_; }

  /// Total coupled runtime so far (max clock over all ranks).
  double runtime() const;

  /// Coupled runtime of one instance (max clock over its ranks).
  double instance_runtime(int index) const;

  /// Disables/enables coupler exchanges. Running the same case once with
  /// and once without coupling isolates the coupling overhead of §V-B:
  ///   overhead = (T_coupled - T_uncoupled) / T_coupled.
  void set_coupling_enabled(bool enabled) { coupling_enabled_ = enabled; }

  /// Enables split-phase communication/computation overlap on every
  /// instance and coupler unit that supports it (docs/communication.md).
  /// The exchanged data is unchanged — only the cluster timing moves, so
  /// on/off runs of the same case isolate the modelled overlap gain.
  void set_overlap_enabled(bool enabled);

  /// Runtime of instance `index` run alone on a fresh cluster with the
  /// same rank count and the same number of density steps (the per-
  /// instance "actual" of Fig 8a / Fig 9a).
  double standalone_runtime(int index, int density_steps) const;

  const EngineCase& engine_case() const { return case_; }
  const RankAssignment& assignment() const { return assignment_; }
  sim::Cluster& cluster() { return *cluster_; }

  // --- Checkpoint/restart (docs/checkpoint.md) ---
  /// Serialises the coupled-run state (case/assignment digest, step
  /// counter, cluster clocks + profile + traffic, CU latches, metrics
  /// counters) into this simulation's persistent snapshot writer and
  /// returns the bytes. The staging buffer is reused, so warm calls
  /// allocate nothing beyond the first snapshot's capacity.
  std::span<const std::byte> checkpoint_bytes();
  /// checkpoint_bytes() + atomic write to `path`.
  void checkpoint(const std::string& path);
  /// Restores a snapshot taken by a simulation constructed from the SAME
  /// case, machine, and assignment (validated via a structural digest —
  /// CheckError on mismatch or corruption). After restore, run() continues
  /// exactly where the checkpointed run left off.
  void restore(std::span<const std::byte> bytes);
  void restore(const std::string& path);

  /// Core section writers/readers used by the wrappers above (and by the
  /// fused snapshots the tests build).
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

  /// Writes a snapshot to `path` every `every` density steps during run()
  /// (0 disables). Also configurable via the environment: CPX_CKPT_EVERY
  /// (cadence) and CPX_CKPT_PATH (default "cpx.ckpt") are read at
  /// construction.
  void set_checkpoint_cadence(int every, std::string path);
  int checkpoint_cadence() const { return ckpt_every_; }

  /// Structural digest of the engine case and rank assignment, stored in
  /// every snapshot: restore refuses state from a different setup.
  std::uint64_t case_digest() const;

 private:
  std::unique_ptr<sim::App> make_app(const InstanceSpec& spec,
                                     sim::RankRange ranks) const;
  void step_instance(int index);

  EngineCase case_;       // digest-validated // cpx-lint: allow(ckpt)
  sim::MachineModel machine_;  // construction config // cpx-lint: allow(ckpt)
  RankAssignment assignment_;  // digest-validated // cpx-lint: allow(ckpt)
  std::unique_ptr<sim::Cluster> cluster_;
  // Performance-model instances are stateless between steps (all carried
  // state lives in the cluster clocks), so they are not serialized.
  std::vector<std::unique_ptr<sim::App>> apps_;  // cpx-lint: allow(ckpt)
  std::vector<sim::RankRange> app_ranges_;       // cpx-lint: allow(ckpt)
  std::vector<std::unique_ptr<coupler::CouplerUnit>> cus_;
  std::vector<sim::RankRange> cu_ranges_;        // cpx-lint: allow(ckpt)
  int density_steps_run_ = 0;
  bool coupling_enabled_ = true;

  // Snapshot plumbing (not simulated state).
  ckpt::Writer writer_;    // cpx-lint: allow(ckpt)
  int ckpt_every_ = 0;     // cpx-lint: allow(ckpt)
  std::string ckpt_path_;  // cpx-lint: allow(ckpt)
};

}  // namespace cpx::workflow
