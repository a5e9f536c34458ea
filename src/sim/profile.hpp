#pragma once
// Per-rank, per-region virtual-time accounting — the simulator's stand-in
// for ARM MAP. Each compute kernel and communication call is tagged with a
// region ("pressure_field", "spray", ...); the profile accumulates compute
// and communication seconds separately so function-level breakdowns like
// the paper's Fig 5 are first-class outputs.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/check.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::sim {

using Rank = int;
using RegionId = int;

/// Compute/communication split for one region.
struct RegionTimes {
  double compute = 0.0;
  double comm = 0.0;
  double total() const { return compute + comm; }

  RegionTimes& operator+=(const RegionTimes& other) {
    compute += other.compute;
    comm += other.comm;
    return *this;
  }
};

class Profile {
 public:
  explicit Profile(int num_ranks);

  int num_ranks() const { return num_ranks_; }

  /// Interns a region name, returning a stable id. Idempotent.
  RegionId region(std::string_view name);

  /// Looks up an existing region id; returns -1 if absent.
  RegionId find_region(std::string_view name) const;

  std::size_t num_regions() const { return names_.size(); }
  const std::string& region_name(RegionId id) const;

  /// Per-charge hot path: the region must come from region() (checked
  /// only by CPX_DCHECK).
  void add_compute(Rank rank, RegionId region, double seconds) {
    CPX_DCHECK(region >= 0 &&
               static_cast<std::size_t>(region) < compute_.size());
    CPX_DCHECK(rank >= 0 && rank < num_ranks_);
    CPX_DCHECK(seconds >= 0.0);
    compute_[static_cast<std::size_t>(region)]
            [static_cast<std::size_t>(rank)] += seconds;
  }
  void add_comm(Rank rank, RegionId region, double seconds) {
    CPX_DCHECK(region >= 0 && static_cast<std::size_t>(region) < comm_.size());
    CPX_DCHECK(rank >= 0 && rank < num_ranks_);
    CPX_DCHECK(seconds >= 0.0);
    comm_[static_cast<std::size_t>(region)][static_cast<std::size_t>(rank)] +=
        seconds;
  }

  /// One region's per-rank compute / comm seconds, indexed by rank, for
  /// charging loops that hoist the row out of the loop. The pointer stays
  /// valid while regions are interned (rows never move).
  double* compute_row(RegionId region) {
    CPX_DCHECK(region >= 0 &&
               static_cast<std::size_t>(region) < compute_.size());
    return compute_[static_cast<std::size_t>(region)].data();
  }
  double* comm_row(RegionId region) {
    CPX_DCHECK(region >= 0 && static_cast<std::size_t>(region) < comm_.size());
    return comm_[static_cast<std::size_t>(region)].data();
  }

  /// Time recorded for one rank in one region.
  RegionTimes rank_region(Rank rank, RegionId region) const;

  /// Sum over all regions for one rank.
  RegionTimes rank_total(Rank rank) const;

  /// Clears all accumulated time (region ids survive).
  void reset() { reshape(num_ranks_); }

  /// Resizes every region row to `num_ranks` ranks and zeroes it (region
  /// ids survive). A row keeps its capacity, so shrinking allocates
  /// nothing.
  void reshape(int num_ranks);

  /// Snapshot section "sim/profile" (docs/checkpoint.md): region names in
  /// id order plus the per-region per-rank compute/comm arrays. Restore
  /// re-interns the stored names in that order, so region ids handed out
  /// before the snapshot stay valid afterwards; a name that would land on
  /// a different id (the restoring profile interned regions in another
  /// order) throws CheckError.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

 private:
  int num_ranks_;
  std::vector<std::string> names_;
  // Name -> id index (heterogeneous lookup, so region() takes no copy on
  // the hot hit path). Ids stay the order of first interning — names_ is
  // the id-ordered source of truth, the map only accelerates lookup.
  std::map<std::string, RegionId, std::less<>> index_;  // cpx-lint: allow(ckpt)
  // Indexed [region][rank]; one row per region, added as regions are
  // interned. Rows rather than one flat region-major array: interning a
  // region into a flat array copies every existing row when it grows,
  // which measurably raised peak memory on 40,000-rank runs
  // (docs/SIMULATOR.md).
  std::vector<std::vector<double>> compute_;
  std::vector<std::vector<double>> comm_;
};

}  // namespace cpx::sim
