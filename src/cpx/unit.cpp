#include "cpx/unit.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "support/check.hpp"

namespace cpx::coupler {
namespace {

// 1. Gather: the source instance's boundary ranks feed the CU ranks.
// Boundary data comes from the ranks owning the interface region — a
// subset comparable in size to the CU itself; we spread the payload over
// min(src ranks, 4 * CU ranks) senders, round-robin onto CU ranks.
std::vector<sim::Message> gather_messages(const UnitConfig& config,
                                          sim::RankRange cu,
                                          sim::RankRange src) {
  std::vector<sim::Message> out;
  const int senders = std::min(src.size(), 4 * cu.size());
  for (int s = 0; s < senders; ++s) {
    const auto bytes = static_cast<std::size_t>(
        static_cast<double>(config.interface_cells) *
        config.fields_per_cell * sizeof(double) / senders);
    out.push_back({src.begin + s, cu.begin + (s % cu.size()), bytes});
  }
  return out;
}

// 4. Scatter to the target instance's boundary ranks.
std::vector<sim::Message> scatter_messages(const UnitConfig& config,
                                           sim::RankRange cu,
                                           sim::RankRange dst) {
  std::vector<sim::Message> out;
  const double cells_per_rank =
      static_cast<double>(config.interface_cells) / cu.size();
  const auto payload_per_cu_rank = static_cast<std::size_t>(
      cells_per_rank * config.fields_per_cell * sizeof(double));
  const int receivers = std::min(dst.size(), 4 * cu.size());
  for (int r = 0; r < receivers; ++r) {
    const auto bytes = static_cast<std::size_t>(
        static_cast<double>(payload_per_cu_rank) * cu.size() / receivers);
    out.push_back({cu.begin + (r % cu.size()), dst.begin + r, bytes});
  }
  return out;
}

}  // namespace

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

void CouplerUnit::bind(sim::Cluster& cluster) {
  // The schedules only debug-check their endpoints, so the ranges are
  // checked here, once per cluster.
  for (const sim::RankRange range :
       {ranks_, side_a_.ranks(), side_b_.ranks()}) {
    CPX_REQUIRE(range.begin >= 0 && range.end <= cluster.num_ranks(),
                "CouplerUnit '" << name_ << "': ranks [" << range.begin
                                << ", " << range.end << ") outside a "
                                << cluster.num_ranks() << "-rank cluster");
  }
  bound_cluster_ = cluster.id();
  region_gather_ = cluster.region(name_ + "/gather");
  region_map_ = cluster.region(name_ + "/map");
  region_scatter_ = cluster.region(name_ + "/scatter");
  gather_a_ =
      cluster.make_schedule(gather_messages(config_, ranks_, side_a_.ranks()));
  scatter_b_ = cluster.make_schedule(
      scatter_messages(config_, ranks_, side_b_.ranks()));
  gather_b_ =
      cluster.make_schedule(gather_messages(config_, ranks_, side_b_.ranks()));
  scatter_a_ = cluster.make_schedule(
      scatter_messages(config_, ranks_, side_a_.ranks()));
}

void CouplerUnit::half_exchange(sim::Cluster& cluster,
                                const sim::ExchangeSchedule& gather,
                                const sim::ExchangeSchedule& scatter,
                                bool remap) {
  // 2. (Re)mapping on the CU ranks. The donor mapping is pure geometry —
  // it reads no gathered field data — so when a remap is due it can run
  // inside the gather's flight window (split-phase overlap); the gather
  // must still complete before interpolation touches the fields.
  if (overlap_ && remap) {
    const int pending = cluster.exchange_begin(gather, region_gather_);
    cluster.compute_seconds(ranks_, mapping_seconds(cluster), region_map_);
    cluster.exchange_finish(pending);
  } else {
    cluster.exchange(gather, region_gather_);
    if (remap) {
      cluster.compute_seconds(ranks_, mapping_seconds(cluster), region_map_);
    }
  }

  // 3. Interpolation + packing on the CU ranks.
  const double cells_per_rank =
      static_cast<double>(config_.interface_cells) / ranks_.size();
  sim::Work interp;
  interp.flops = cells_per_rank * config_.interp_flops_per_cell;
  interp.bytes = cells_per_rank * config_.pack_bytes_per_cell;
  cluster.compute_seconds(ranks_, cluster.machine().compute_time(interp),
                          region_map_);

  cluster.exchange(scatter, region_scatter_);
}

void CouplerUnit::exchange(sim::Cluster& cluster) {
  if (cluster.id() != bound_cluster_) {
    bind(cluster);
  }
  const bool remap =
      config_.kind == InterfaceKind::kSlidingPlane || !mapped_;
  half_exchange(cluster, gather_a_, scatter_b_, remap);
  half_exchange(cluster, gather_b_, scatter_a_, /*remap=*/false);
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
