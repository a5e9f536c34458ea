#include "comm/exchange_plan.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/check.hpp"

namespace cpx::comm {

void ExchangePlan::add_channel(Rank src, Rank dst,
                               std::vector<std::int32_t> send_indices,
                               std::vector<std::int32_t> recv_indices) {
  CPX_REQUIRE(!finalized(), "add_channel after finalize");
  CPX_REQUIRE(src >= 0 && dst >= 0 && src != dst,
              "bad channel endpoints src=" << src << " dst=" << dst);
  CPX_REQUIRE(send_indices.size() == recv_indices.size(),
              "channel " << src << "->" << dst << " index maps disagree: "
                         << send_indices.size() << " sends vs "
                         << recv_indices.size() << " receive slots");
  for (const std::int32_t i : send_indices) {
    CPX_REQUIRE(i >= 0, "negative send index in channel " << src << "->"
                                                          << dst);
  }
  for (const std::int32_t i : recv_indices) {
    CPX_REQUIRE(i >= 0, "negative recv index in channel " << src << "->"
                                                          << dst);
  }
  channels_.push_back(
      {src, dst, std::move(send_indices), std::move(recv_indices)});
}

void ExchangePlan::finalize(std::size_t elem_bytes) {
  CPX_REQUIRE(!finalized(), "finalize called twice");
  CPX_REQUIRE(elem_bytes > 0, "element size must be positive");
  elem_bytes_ = elem_bytes;
  max_channel_bytes_ = 0;
  recv_buffers_.resize(channels_.size());
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const std::size_t bytes = channels_[c].send_indices.size() * elem_bytes_;
    max_channel_bytes_ = std::max(max_channel_bytes_, bytes);
    recv_buffers_[c].resize(bytes);
  }
  send_scratch_.resize(max_channel_bytes_);
}

std::size_t ExchangePlan::bytes_per_exchange() const {
  std::size_t total = 0;
  for (const Channel& ch : channels_) {
    total += ch.send_indices.size() * elem_bytes_;
  }
  return total;
}

void ExchangePlan::execute(Communicator& comm, RankDataFn rank_data,
                           int tag) {
  CPX_CHECK(finalized());
  // Gather and post each channel's payload. isend copies into the
  // communicator's pool immediately, so one scratch area serves every
  // channel.
  for (const Channel& ch : channels_) {
    const std::span<std::byte> src = rank_data(ch.src);
    std::byte* out = send_scratch_.data();
    for (const std::int32_t idx : ch.send_indices) {
      CPX_DCHECK(static_cast<std::size_t>(idx + 1) * elem_bytes_ <=
                 src.size());
      std::memcpy(out, src.data() + static_cast<std::size_t>(idx) *
                                        elem_bytes_,
                  elem_bytes_);
      out += elem_bytes_;
    }
    comm.isend(ch.src, ch.dst, tag, send_scratch_.data(),
               ch.send_indices.size() * elem_bytes_);
  }
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const Channel& ch = channels_[c];
    comm.irecv(ch.dst, ch.src, tag, recv_buffers_[c].data(),
               recv_buffers_[c].size());
  }
  comm.wait_all();
  // Scatter each channel's payload into its receive slots.
  for (std::size_t c = 0; c < channels_.size(); ++c) {
    const Channel& ch = channels_[c];
    const std::span<std::byte> dst = rank_data(ch.dst);
    const std::byte* in = recv_buffers_[c].data();
    for (const std::int32_t idx : ch.recv_indices) {
      CPX_DCHECK(static_cast<std::size_t>(idx + 1) * elem_bytes_ <=
                 dst.size());
      std::memcpy(dst.data() + static_cast<std::size_t>(idx) * elem_bytes_,
                  in, elem_bytes_);
      in += elem_bytes_;
    }
  }
}

void validate_plan(const ExchangePlan& plan, const PlanShape& shape) {
  CPX_REQUIRE(shape.dst_required_begin.empty() ||
                  shape.dst_required_begin.size() ==
                      shape.dst_extents.size(),
              "dst_required_begin must be empty or one entry per rank");
  const auto num_src = static_cast<std::int64_t>(shape.src_extents.size());
  const auto num_dst = static_cast<std::int64_t>(shape.dst_extents.size());

  // recv_hits[r][slot]: how many channel entries target that slot.
  std::vector<std::vector<std::int32_t>> recv_hits(
      shape.dst_extents.size());
  for (std::size_t r = 0; r < shape.dst_extents.size(); ++r) {
    CPX_CHECK_MSG(shape.dst_extents[r] >= 0,
                  "negative extent for dst rank " << r);
    recv_hits[r].assign(static_cast<std::size_t>(shape.dst_extents[r]), 0);
  }

  std::vector<std::pair<Rank, Rank>> pairs;
  pairs.reserve(plan.channels().size());
  for (const ExchangePlan::Channel& ch : plan.channels()) {
    CPX_CHECK_MSG(ch.src >= 0 && ch.src < num_src,
                  "channel src rank " << ch.src << " out of range");
    CPX_CHECK_MSG(ch.dst >= 0 && ch.dst < num_dst,
                  "channel dst rank " << ch.dst << " out of range");
    CPX_CHECK_MSG(ch.src != ch.dst, "self-loop channel on rank " << ch.src);
    CPX_CHECK_MSG(ch.send_indices.size() == ch.recv_indices.size(),
                  "channel " << ch.src << "->" << ch.dst
                             << " send/recv asymmetry: "
                             << ch.send_indices.size() << " vs "
                             << ch.recv_indices.size());
    pairs.emplace_back(ch.src, ch.dst);
    const std::int64_t src_extent =
        shape.src_extents[static_cast<std::size_t>(ch.src)];
    for (const std::int32_t idx : ch.send_indices) {
      CPX_CHECK_MSG(idx >= 0 && idx < src_extent,
                    "send index " << idx << " outside rank " << ch.src
                                  << " extent " << src_extent);
    }
    auto& hits = recv_hits[static_cast<std::size_t>(ch.dst)];
    for (const std::int32_t idx : ch.recv_indices) {
      CPX_CHECK_MSG(idx >= 0 &&
                        static_cast<std::size_t>(idx) < hits.size(),
                    "recv index " << idx << " outside rank " << ch.dst
                                  << " extent " << hits.size());
      ++hits[static_cast<std::size_t>(idx)];
      CPX_CHECK_MSG(hits[static_cast<std::size_t>(idx)] == 1,
                    "recv slot " << idx << " on rank " << ch.dst
                                 << " targeted more than once");
    }
  }

  std::sort(pairs.begin(), pairs.end());
  CPX_CHECK_MSG(std::adjacent_find(pairs.begin(), pairs.end()) ==
                    pairs.end(),
                "duplicate (src, dst) channel in plan");

  for (std::size_t r = 0; r < shape.dst_required_begin.size(); ++r) {
    const std::int64_t begin = shape.dst_required_begin[r];
    CPX_CHECK_MSG(begin >= 0 && begin <= shape.dst_extents[r],
                  "required-coverage begin " << begin << " outside rank "
                                             << r << " extent");
    for (std::int64_t slot = begin; slot < shape.dst_extents[r]; ++slot) {
      CPX_CHECK_MSG(recv_hits[r][static_cast<std::size_t>(slot)] == 1,
                    "required slot " << slot << " on rank " << r
                                     << " covered "
                                     << recv_hits[r][static_cast<
                                            std::size_t>(slot)]
                                     << " times");
    }
  }
}

}  // namespace cpx::comm
