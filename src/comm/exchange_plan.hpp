#pragma once
// Precomputed neighbour-exchange schedule for the comm layer
// (docs/communication.md).
//
// A halo exchange repeats the same data movement every step: the same
// neighbour pairs, the same element slots gathered on the sender, the
// same ghost slots filled on the receiver. An ExchangePlan captures that
// shape once — one Channel per directed neighbour pair with its pack and
// unpack index maps — and finalize() sizes persistent staging buffers, so
// execute() in the steady state performs no allocation: gather into the
// send staging area, isend/irecv through the communicator's buffer pool,
// scatter from the receive staging area.
//
// Channels execute in plan order, receives post in plan order, and the
// index maps are fixed at build time, so an exchange is bitwise
// deterministic at any CPX_THREADS. validate_plan() is the tier-2 deep
// checker (gate on check::deep()): rank endpoints in range, send/recv
// symmetry per channel, indices within the per-rank extents, and every
// receive slot targeted exactly once — the transport-level generalisation
// of the halo checks in mesh::validate_local_meshes.
//
// Communication/computation overlap is modelled, not executed: it is
// charged on sim::Cluster (exchange_begin/exchange_finish), and the host
// transport has this one blocking exchange (docs/communication.md).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/communicator.hpp"

namespace cpx::comm {

class ExchangePlan {
 public:
  /// One directed neighbour pair. `send_indices[i]` on the source rank
  /// feeds `recv_indices[i]` on the destination rank.
  struct Channel {
    Rank src = 0;
    Rank dst = 0;
    std::vector<std::int32_t> send_indices;
    std::vector<std::int32_t> recv_indices;
  };

  /// Appends a channel (plan order is execution order). Requires equal
  /// index-map lengths and non-negative indices; rejected after finalize.
  void add_channel(Rank src, Rank dst, std::vector<std::int32_t> send_indices,
                   std::vector<std::int32_t> recv_indices);

  /// Locks the plan for elements of `elem_bytes` bytes and sizes the
  /// persistent staging buffers.
  void finalize(std::size_t elem_bytes);

  bool finalized() const { return elem_bytes_ != 0; }
  std::size_t elem_bytes() const { return elem_bytes_; }
  std::span<const Channel> channels() const { return channels_; }

  /// Payload moved by one execute() call.
  std::size_t bytes_per_exchange() const;
  std::int64_t messages_per_exchange() const {
    return static_cast<std::int64_t>(channels_.size());
  }

  /// Maps a rank to the byte image of its element array
  /// (std::as_writable_bytes over the rank's storage).
  using RankDataFn = support::FunctionRef<std::span<std::byte>(Rank)>;

  /// Runs the exchange: per channel gather → isend, then all irecvs, one
  /// wait_all, then per channel scatter. Allocation-free once warm.
  void execute(Communicator& comm, RankDataFn rank_data, int tag = 0);

 private:
  std::vector<Channel> channels_;
  std::size_t elem_bytes_ = 0;
  std::size_t max_channel_bytes_ = 0;
  std::vector<std::byte> send_scratch_;                ///< reused per channel
  std::vector<std::vector<std::byte>> recv_buffers_;   ///< one per channel
};

/// Shape of the per-rank arrays a plan moves data between, for
/// validate_plan. Extents are element counts per rank.
struct PlanShape {
  std::span<const std::int64_t> src_extents;
  std::span<const std::int64_t> dst_extents;
  /// Optional (empty to skip): for each rank, the first element of the
  /// region that the plan must cover completely — every slot in
  /// [dst_required_begin[r], dst_extents[r]) receives exactly one value.
  /// This is the ghost-coverage requirement of a halo plan.
  std::span<const std::int64_t> dst_required_begin;
};

/// Tier-2 deep validator. Throws CheckError on: rank endpoints out of
/// range or self-loops, duplicate (src, dst) channels, send/recv index
/// maps of different lengths, indices outside the per-rank extents, a
/// receive slot targeted more than once, or (when dst_required_begin is
/// given) a required slot never targeted.
void validate_plan(const ExchangePlan& plan, const PlanShape& shape);

}  // namespace cpx::comm
