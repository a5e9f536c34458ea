#include "cpx/unit.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/snapshot.hpp"
#include "sim/comm_bridge.hpp"
#include "support/check.hpp"

namespace cpx::coupler {

CouplerUnit::CouplerUnit(std::string name, const UnitConfig& config,
                         sim::RankRange cu_ranks, sim::App& side_a,
                         sim::App& side_b)
    : name_(std::move(name)),
      config_(config),
      ranks_(cu_ranks),
      side_a_(side_a),
      side_b_(side_b) {
  CPX_REQUIRE(cu_ranks.size() >= 1, "CouplerUnit: empty rank range");
  CPX_REQUIRE(config.interface_cells >= 1, "CouplerUnit: empty interface");
}

double CouplerUnit::mapping_seconds(const sim::Cluster& cluster) const {
  const double cells_per_rank =
      static_cast<double>(config_.interface_cells) / ranks_.size();
  const double n = static_cast<double>(config_.interface_cells);
  const double search_flops =
      config_.tree_search
          ? config_.search_flops_per_cell_tree * std::log2(std::max(n, 2.0))
          : config_.search_flops_per_cell_brute * n;
  return cells_per_rank * search_flops / cluster.machine().flop_rate;
}

void CouplerUnit::half_exchange(sim::Cluster& cluster, sim::App& src,
                                sim::App& dst, bool remap) {
  const double cells_per_rank =
      static_cast<double>(config_.interface_cells) / ranks_.size();
  const auto payload_per_cu_rank = static_cast<std::size_t>(
      cells_per_rank * config_.fields_per_cell * sizeof(double));

  // 1. Gather: the source instance's boundary ranks feed the CU ranks.
  // Boundary data comes from the ranks owning the interface region — a
  // subset comparable in size to the CU itself; we spread the payload over
  // min(src ranks, 4 * CU ranks) senders, round-robin onto CU ranks.
  const sim::RankRange src_ranks = src.ranks();
  const int senders = std::min(src_ranks.size(), 4 * ranks_.size());
  for (int s = 0; s < senders; ++s) {
    const sim::Rank from = src_ranks.begin + s;
    const sim::Rank to = ranks_.begin + (s % ranks_.size());
    const auto bytes = static_cast<std::size_t>(
        static_cast<double>(config_.interface_cells) *
        config_.fields_per_cell * sizeof(double) / senders);
    comm_.post(from, to, bytes);
  }
  // 2. (Re)mapping on the CU ranks. The donor mapping is pure geometry —
  // it reads no gathered field data — so when a remap is due it can run
  // inside the gather's flight window (split-phase overlap); the gather
  // must still complete before interpolation touches the fields.
  if (overlap_ && remap) {
    const int pending = sim::begin_exchange(comm_, cluster, region_gather_,
                                            0, message_scratch_);
    cluster.compute_seconds(ranks_, mapping_seconds(cluster), region_map_);
    cluster.exchange_finish(pending);
  } else {
    sim::flush_exchange(comm_, cluster, region_gather_, 0, message_scratch_);
    if (remap) {
      cluster.compute_seconds(ranks_, mapping_seconds(cluster), region_map_);
    }
  }

  // 3. Interpolation + packing on the CU ranks.
  sim::Work interp;
  interp.flops = cells_per_rank * config_.interp_flops_per_cell;
  interp.bytes = cells_per_rank * config_.pack_bytes_per_cell;
  cluster.compute_seconds(ranks_, cluster.machine().compute_time(interp),
                          region_map_);

  // 4. Scatter to the target instance's boundary ranks.
  const sim::RankRange dst_ranks = dst.ranks();
  const int receivers = std::min(dst_ranks.size(), 4 * ranks_.size());
  for (int r = 0; r < receivers; ++r) {
    const sim::Rank from = ranks_.begin + (r % ranks_.size());
    const sim::Rank to = dst_ranks.begin + r;
    const auto bytes = static_cast<std::size_t>(
        static_cast<double>(payload_per_cu_rank) * ranks_.size() / receivers);
    comm_.post(from, to, bytes);
  }
  sim::flush_exchange(comm_, cluster, region_scatter_, 0, message_scratch_);
}

void CouplerUnit::exchange(sim::Cluster& cluster) {
  if (cluster.id() != bound_cluster_) {
    bound_cluster_ = cluster.id();
    region_gather_ = cluster.region(name_ + "/gather");
    region_map_ = cluster.region(name_ + "/map");
    region_scatter_ = cluster.region(name_ + "/scatter");
  }
  if (!comm_ || comm_.size() != cluster.num_ranks()) {
    // Gather/scatter endpoints live in the instances' rank ranges, so the
    // unit's communicator spans the whole cluster.
    comm_ = comm::Communicator::world(cluster.num_ranks(), name_ + "/world");
  }

  const bool remap =
      config_.kind == InterfaceKind::kSlidingPlane || !mapped_;
  half_exchange(cluster, side_a_, side_b_, remap);
  half_exchange(cluster, side_b_, side_a_, /*remap=*/false);
  mapped_ = true;
}

void CouplerUnit::serialize(ckpt::Writer& w) const {
  w.begin_section("coupler/unit/" + name_);
  w.put_str(name_);
  w.put_u8(mapped_ ? 1 : 0);
  w.put_u8(overlap_ ? 1 : 0);
  w.end_section();
}

void CouplerUnit::restore(ckpt::Reader& r) {
  r.open_section("coupler/unit/" + name_);
  const std::string name = r.get_str();
  CPX_CHECK_MSG(name == name_,
                "CouplerUnit::restore: section holds unit '"
                    << name << "', expected '" << name_ << "'");
  mapped_ = r.get_u8() != 0;
  overlap_ = r.get_u8() != 0;
  r.end_section();
}

}  // namespace cpx::coupler
