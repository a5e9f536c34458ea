#include "sim/profile.hpp"

#include <algorithm>

#include "ckpt/snapshot.hpp"
#include "support/check.hpp"

namespace cpx::sim {

Profile::Profile(int num_ranks) : num_ranks_(num_ranks) {
  CPX_REQUIRE(num_ranks >= 1, "Profile: need at least one rank");
}

RegionId Profile::region(std::string_view name) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  names_.emplace_back(name);
  compute_.emplace_back(static_cast<std::size_t>(num_ranks_), 0.0);
  comm_.emplace_back(static_cast<std::size_t>(num_ranks_), 0.0);
  const auto id = static_cast<RegionId>(names_.size() - 1);
  index_.emplace(names_.back(), id);
  return id;
}

RegionId Profile::find_region(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

const std::string& Profile::region_name(RegionId id) const {
  CPX_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
              "Profile: bad region id " << id);
  return names_[static_cast<std::size_t>(id)];
}

RegionTimes Profile::rank_region(Rank rank, RegionId region) const {
  CPX_REQUIRE(region >= 0 && static_cast<std::size_t>(region) < names_.size(),
              "Profile: unknown region id " << region);
  CPX_REQUIRE(rank >= 0 && rank < num_ranks_, "Profile: bad rank " << rank);
  return {compute_[static_cast<std::size_t>(region)]
                  [static_cast<std::size_t>(rank)],
          comm_[static_cast<std::size_t>(region)][static_cast<std::size_t>(rank)]};
}

RegionTimes Profile::rank_total(Rank rank) const {
  RegionTimes sum;
  for (std::size_t g = 0; g < names_.size(); ++g) {
    sum += rank_region(rank, static_cast<RegionId>(g));
  }
  return sum;
}

void Profile::reshape(int num_ranks) {
  CPX_REQUIRE(num_ranks >= 1, "Profile: need at least one rank");
  num_ranks_ = num_ranks;
  const auto n = static_cast<std::size_t>(num_ranks);
  for (auto& v : compute_) {
    v.assign(n, 0.0);
  }
  for (auto& v : comm_) {
    v.assign(n, 0.0);
  }
}

void Profile::serialize(ckpt::Writer& w) const {
  w.begin_section("sim/profile");
  w.put_u32(static_cast<std::uint32_t>(num_ranks_));
  w.put_u32(static_cast<std::uint32_t>(names_.size()));
  for (std::size_t g = 0; g < names_.size(); ++g) {
    w.put_str(names_[g]);
    w.put_f64_span(compute_[g]);
    w.put_f64_span(comm_[g]);
  }
  w.end_section();
}

void Profile::restore(ckpt::Reader& r) {
  r.open_section("sim/profile");
  const auto ranks = static_cast<int>(r.get_u32());
  CPX_CHECK_MSG(ranks == num_ranks_,
                "Profile::restore: snapshot holds " << ranks
                                                    << " ranks, expected "
                                                    << num_ranks_);
  const std::uint32_t regions = r.get_u32();
  for (std::uint32_t g = 0; g < regions; ++g) {
    const std::string name = r.get_str();
    // Re-intern in stored (id) order: ids handed out before the snapshot
    // stay valid. A clash means this profile interned regions in a
    // different order than the checkpointed run — not resumable.
    const RegionId id = region(name);
    CPX_CHECK_MSG(static_cast<std::uint32_t>(id) == g,
                  "Profile::restore: region '"
                      << name << "' resolves to id " << id
                      << ", snapshot expects " << g);
    r.get_f64_vec(compute_[static_cast<std::size_t>(id)]);
    r.get_f64_vec(comm_[static_cast<std::size_t>(id)]);
    CPX_CHECK_MSG(
        static_cast<int>(compute_[static_cast<std::size_t>(id)].size()) ==
                num_ranks_ &&
            static_cast<int>(comm_[static_cast<std::size_t>(id)].size()) ==
                num_ranks_,
        "Profile::restore: region '" << name << "' arrays truncated");
  }
  // Regions interned after the checkpoint (ids >= the stored count) keep
  // their storage but are zeroed: the checkpointed run never saw them.
  for (std::size_t g = regions; g < names_.size(); ++g) {
    std::fill(compute_[g].begin(), compute_[g].end(), 0.0);
    std::fill(comm_[g].begin(), comm_[g].end(), 0.0);
  }
  r.end_section();
}

}  // namespace cpx::sim
