#include "comm/communicator.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "support/blas1.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::comm {

namespace metrics = support::metrics;

namespace {

/// Accumulates the wall time spent inside wait_all()/deliver() — matching,
/// copying, and hand-off — into the "comm/queue_wait_ns" counter. Costs a
/// relaxed load when the metrics layer is off.
class QueueWaitTimer {
 public:
  QueueWaitTimer() {
    if (metrics::enabled()) {
      active_ = true;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~QueueWaitTimer() {
    if (active_) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      metrics::counter_add(
          "comm/queue_wait_ns",
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count());
    }
  }
  QueueWaitTimer(const QueueWaitTimer&) = delete;
  QueueWaitTimer& operator=(const QueueWaitTimer&) = delete;

 private:
  bool active_ = false;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace

struct Communicator::State {
  std::string name;
  int size = 0;

  struct Send {
    Rank src = 0;
    Rank dst = 0;
    int tag = 0;
    int buffer = -1;  ///< index into `buffers`
    std::size_t bytes = 0;
    bool matched = false;
  };
  struct Recv {
    Rank dst = 0;
    Rank src = 0;
    int tag = 0;
    std::byte* out = nullptr;
    std::size_t bytes = 0;
  };

  std::vector<Send> sends;
  std::vector<Recv> recvs;
  std::vector<std::vector<std::byte>> buffers;
  std::vector<int> free_buffers;
  std::vector<std::size_t> deliver_scratch;
  CommStats stats;

  int acquire_buffer(std::size_t bytes) {
    if (!free_buffers.empty()) {
      const int idx = free_buffers.back();
      free_buffers.pop_back();
      if (buffers[static_cast<std::size_t>(idx)].size() < bytes) {
        // cpx-lint: allow(solve-alloc) — pooled buffer, grows only while warming up (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
        buffers[static_cast<std::size_t>(idx)].resize(bytes);
      }
      return idx;
    }
    // cpx-lint: allow(solve-alloc) — pool grows only while warming up (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
    buffers.emplace_back(bytes);
    return static_cast<int>(buffers.size()) - 1;
  }
  void release_buffer(int idx) {
    // cpx-lint: allow(solve-alloc) — capacity kept across rounds (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
    free_buffers.push_back(idx);
  }

  void check_rank(Rank r) const {
    CPX_CHECK_MSG(r >= 0 && r < size,
                  "comm rank " << r << " out of range [0, " << size << ")");
  }

  void count_message(std::size_t bytes) {
    ++stats.messages;
    stats.bytes += static_cast<std::int64_t>(bytes);
    metrics::counter_add("comm/messages", 1);
    metrics::counter_add("comm/bytes", static_cast<std::int64_t>(bytes));
  }

  void count_collective(std::int64_t messages, std::int64_t bytes) {
    stats.messages += messages;
    stats.bytes += bytes;
    metrics::counter_add("comm/messages", messages);
    metrics::counter_add("comm/bytes", bytes);
  }
};

Communicator::Communicator(std::shared_ptr<State> state)
    : state_(std::move(state)) {}

Communicator Communicator::world(int size, std::string name) {
  CPX_REQUIRE(size > 0, "comm world needs at least one rank, got " << size);
  auto state = std::make_shared<State>();
  state->name = std::move(name);
  state->size = size;
  return Communicator(std::move(state));
}

int Communicator::size() const {
  CPX_CHECK(state_ != nullptr);
  return state_->size;
}

const std::string& Communicator::name() const {
  CPX_CHECK(state_ != nullptr);
  return state_->name;
}

void Communicator::isend(Rank src, Rank dst, int tag, const void* data,
                         std::size_t bytes) {
  CPX_CHECK(state_ != nullptr);
  State& s = *state_;
  s.check_rank(src);
  s.check_rank(dst);
  CPX_REQUIRE(src != dst, "isend to self (rank " << src << ")");
  const int buffer = s.acquire_buffer(bytes);
  if (bytes > 0) {
    std::memcpy(s.buffers[static_cast<std::size_t>(buffer)].data(), data,
                bytes);
  }
  // cpx-lint: allow(solve-alloc) — capacity kept across rounds (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  s.sends.push_back({src, dst, tag, buffer, bytes, false});
}

void Communicator::irecv(Rank dst, Rank src, int tag, void* buffer,
                         std::size_t bytes) {
  CPX_CHECK(state_ != nullptr);
  State& s = *state_;
  s.check_rank(dst);
  s.check_rank(src);
  CPX_REQUIRE(src != dst, "irecv from self (rank " << dst << ")");
  // cpx-lint: allow(solve-alloc) — capacity kept across rounds (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  s.recvs.push_back({dst, src, tag, static_cast<std::byte*>(buffer), bytes});
}

void Communicator::wait_all() {
  CPX_CHECK(state_ != nullptr);
  QueueWaitTimer timer;
  State& s = *state_;
  // Receives complete in posting order; each matches the earliest pending
  // send with the same (src, dst, tag) — FIFO per triple. Both orders are
  // fixed by program order, never by thread scheduling.
  for (const State::Recv& recv : s.recvs) {
    State::Send* match = nullptr;
    for (State::Send& send : s.sends) {
      if (!send.matched && send.src == recv.src && send.dst == recv.dst &&
          send.tag == recv.tag) {
        match = &send;
        break;
      }
    }
    CPX_CHECK_MSG(match != nullptr, "unmatched irecv on '"
                                        << s.name << "': src=" << recv.src
                                        << " dst=" << recv.dst
                                        << " tag=" << recv.tag);
    CPX_CHECK_MSG(match->bytes == recv.bytes,
                  "message size mismatch on '"
                      << s.name << "' (src=" << recv.src
                      << " dst=" << recv.dst << " tag=" << recv.tag
                      << "): sent " << match->bytes << " bytes, receiving "
                      << recv.bytes);
    if (recv.bytes > 0) {
      std::memcpy(recv.out,
                  s.buffers[static_cast<std::size_t>(match->buffer)].data(),
                  recv.bytes);
    }
    match->matched = true;
    s.release_buffer(match->buffer);
    s.count_message(recv.bytes);
  }
  for (const State::Send& send : s.sends) {
    CPX_CHECK_MSG(send.matched, "unmatched isend on '"
                                    << s.name << "': src=" << send.src
                                    << " dst=" << send.dst
                                    << " tag=" << send.tag);
  }
  s.sends.clear();
  s.recvs.clear();
}

void Communicator::deliver(Rank dst, int tag, DeliverFn sink) {
  CPX_CHECK(state_ != nullptr);
  QueueWaitTimer timer;
  State& s = *state_;
  s.check_rank(dst);
  // Sources ascending, FIFO per source: ordering by (source, posting
  // index) fixes delivery order by program order. Unlike a stable sort,
  // std::sort needs no temporary buffer, so a warm call allocates nothing.
  s.deliver_scratch.clear();
  for (std::size_t i = 0; i < s.sends.size(); ++i) {
    const State::Send& send = s.sends[i];
    if (!send.matched && send.dst == dst && send.tag == tag) {
      // cpx-lint: allow(solve-alloc) — capacity kept across rounds (SolverAllocations.WarmDistributedPicStepAllocatesNothing)
      s.deliver_scratch.push_back(i);
    }
  }
  std::sort(s.deliver_scratch.begin(), s.deliver_scratch.end(),
            [&s](std::size_t a, std::size_t b) {
              const Rank src_a = s.sends[a].src;
              const Rank src_b = s.sends[b].src;
              return src_a < src_b || (src_a == src_b && a < b);
            });
  for (const std::size_t i : s.deliver_scratch) {
    State::Send& send = s.sends[i];
    sink(send.src,
         std::span<const std::byte>(
             s.buffers[static_cast<std::size_t>(send.buffer)].data(),
             send.bytes));
    send.matched = true;
    s.release_buffer(send.buffer);
    s.count_message(send.bytes);
  }
  std::erase_if(s.sends,
                [](const State::Send& send) { return send.matched; });
}

double Communicator::allreduce_sum(std::span<const double> contributions) {
  CPX_CHECK(state_ != nullptr);
  CPX_REQUIRE(contributions.size() ==
                  static_cast<std::size_t>(state_->size),
              "allreduce needs one contribution per rank: "
                  << contributions.size() << " vs " << state_->size);
  state_->count_collective(
      state_->size,
      static_cast<std::int64_t>(sizeof(double)) * state_->size);
  return support::blas1::sum(contributions);
}

const CommStats& Communicator::stats() const {
  CPX_CHECK(state_ != nullptr);
  return state_->stats;
}

std::size_t Communicator::pool_size() const {
  CPX_CHECK(state_ != nullptr);
  return state_->buffers.size();
}

}  // namespace cpx::comm
