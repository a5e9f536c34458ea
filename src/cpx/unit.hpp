#pragma once
// Coupler units (CUs): the dedicated rank groups that move boundary data
// between coupled application instances (Fig 1).
//
// One coupling exchange is gather -> map -> interpolate -> scatter:
//   1. the source instance's boundary ranks send interface fields to the
//      CU ranks,
//   2. the CU (re)computes the donor mapping — every exchange for a
//      sliding-plane interface (the rotor rows move each timestep), once
//      ever for a steady-state interface (density<->pressure coupling),
//   3. the CU interpolates fields onto the target discretisation,
//   4. the CU ranks scatter the result to the target instance's boundary
//      ranks.
// Clock propagation through those messages is what serialises the coupled
// simulation: a target instance cannot advance past its coupler.
//
// Search cost per interface cell uses the tree (log n) or brute-force (n)
// model, matching the real implementations in cpx/search.hpp; the paper
// credits the tree search (plus prefetching) for coupling overhead
// dropping below 0.5% of runtime.

#include <cstdint>
#include <string>

#include "sim/app.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::coupler {

enum class InterfaceKind {
  kSlidingPlane,  ///< rotor/stator: remap every exchange (0.42% of mesh)
  kSteadyState    ///< density<->pressure: map once (5% of mesh)
};

struct UnitConfig {
  InterfaceKind kind = InterfaceKind::kSlidingPlane;
  std::int64_t interface_cells = 100'000;
  int fields_per_cell = 5;
  bool tree_search = true;

  // Work-model coefficients (virtual cost of the mapping/interpolation).
  // The tree coefficient reflects the production coupler's optimised
  // search with prefetching [31]; the brute-force baseline is what the
  // bench_coupler_overhead ablation compares against.
  double search_flops_per_cell_tree = 20.0;   ///< c * log2(n) applied inside
  double search_flops_per_cell_brute = 3.0;   ///< c * n applied inside
  double interp_flops_per_cell = 20.0;
  double pack_bytes_per_cell = 40.0;
};

/// A coupler unit connecting two application instances.
class CouplerUnit {
 public:
  CouplerUnit(std::string name, const UnitConfig& config,
              sim::RankRange cu_ranks, sim::App& side_a, sim::App& side_b);

  const std::string& name() const { return name_; }
  sim::RankRange ranks() const { return ranks_; }
  const UnitConfig& config() const { return config_; }

  /// One full coupling exchange A -> B and B -> A.
  void exchange(sim::Cluster& cluster);

  /// Virtual seconds of mapping compute per CU rank for one (re)mapping.
  double mapping_seconds(const sim::Cluster& cluster) const;

  /// Resets the steady-state "already mapped" latch (used when reusing the
  /// unit across independent runs).
  void reset() { mapped_ = false; }

  /// Split-phase overlap (docs/communication.md): when a half-exchange
  /// includes a remap, the gather is begun, the donor-mapping compute runs
  /// inside the window, and the gather finishes before interpolation. The
  /// mapping does not read gathered fields (it is pure geometry), so the
  /// exchanged data is unchanged; only the cluster timing differs.
  void set_overlap(bool on) { overlap_ = on; }
  bool overlap() const { return overlap_; }

  /// Snapshot section "coupler/unit/<name>" (docs/checkpoint.md): the
  /// steady-state mapped latch and the overlap flag — the only state a CU
  /// carries between exchanges; regions and schedules are rebuilt on the
  /// first exchange on a cluster. Restore validates the unit name and
  /// throws CheckError.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  /// Interns the regions and builds the four gather/scatter schedules;
  /// throws CheckError unless every endpoint is a rank of `cluster`.
  void bind(sim::Cluster& cluster);
  void half_exchange(sim::Cluster& cluster,
                     const sim::ExchangeSchedule& gather,
                     const sim::ExchangeSchedule& scatter, bool remap);

  std::string name_;
  UnitConfig config_;   // construction config // cpx-lint: allow(ckpt)
  sim::RankRange ranks_;  // from assignment // cpx-lint: allow(ckpt)
  sim::App& side_a_;    // wiring // cpx-lint: allow(ckpt)
  sim::App& side_b_;    // wiring // cpx-lint: allow(ckpt)
  bool mapped_ = false;
  bool overlap_ = false;

  // Bound once per cluster (keyed on sim::Cluster::id()).
  std::uint64_t bound_cluster_ = 0;    // cpx-lint: allow(ckpt)
  sim::RegionId region_gather_ = -1;   // cpx-lint: allow(ckpt)
  sim::RegionId region_map_ = -1;      // cpx-lint: allow(ckpt)
  sim::RegionId region_scatter_ = -1;  // cpx-lint: allow(ckpt)
  sim::ExchangeSchedule gather_a_;     ///< A -> CU // cpx-lint: allow(ckpt)
  sim::ExchangeSchedule scatter_b_;    ///< CU -> B // cpx-lint: allow(ckpt)
  sim::ExchangeSchedule gather_b_;     ///< B -> CU // cpx-lint: allow(ckpt)
  sim::ExchangeSchedule scatter_a_;    ///< CU -> A // cpx-lint: allow(ckpt)
};

}  // namespace cpx::coupler
