#pragma once
// MPI-shaped in-process message-passing substrate (docs/communication.md).
//
// Every distributed solver in this repo — the MG-CFD halo exchange and the
// SIMPIC boundary merge / particle migration / pipelined Thomas solve —
// used to move rank-to-rank bytes with its own ad-hoc buffer copies and
// its own byte bookkeeping. This layer is the single transport they all
// route through:
//
//  * Communicator — a rank group with its own message space. The world
//    communicator covers all ranks of a distributed run.
//  * isend/irecv/wait_all — nonblocking point-to-point with (src, dst,
//    tag) matching. Matching is FIFO per triple and delivery happens in
//    receive-posting order, so a fixed program order yields a fixed
//    delivery order at any CPX_THREADS. deliver() is the variable-size
//    variant (particle migration): pending sends to one rank are handed
//    to a sink in (source rank, posting) order.
//  * allreduce_sum — deterministic reduction over one contribution per
//    rank, combined through support::blas1::sum, i.e. the fixed-grain
//    chunk-order contract of docs/parallelism.md: bitwise identical at
//    any thread count.
//
// The performance models (spray strategies, coupler units, the analytic
// instances) move no payload, so they do not use this layer: their
// messages exist only on the virtual cluster, which counts them in
// sim::Cluster::comm_bytes/comm_messages.
//
// Byte accounting: every delivered message increments the communicator's
// CommStats and, when the metrics layer is enabled, the global
// "comm/bytes" / "comm/messages" counters ("comm/queue_wait_ns"
// accumulates wall time spent matching and copying in wait_all/deliver).
// These count only bytes this host transport moved.
//
// Steady-state exchanges are allocation-free: send payloads go through a
// buffer pool, the pending-operation vectors keep their capacity and
// deliver() orders its matches in place, so once a communicator is warm
// no call allocates (tests/comm_test.cpp checks the pool stops growing;
// tests/solver_alloc_test.cpp counts allocations of warm distributed
// steps, migration included).
//
// Not thread-safe: a communicator is driven by the single thread that
// executes the rank loop, exactly like the distributed solvers it serves.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>

#include "support/parallel.hpp"

namespace cpx::comm {

using Rank = int;

/// Cumulative per-communicator traffic counters.
struct CommStats {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
};

class Communicator {
 public:
  /// Null handle; every operation except bool conversion requires a real
  /// communicator from world().
  Communicator() = default;

  /// Root communicator of `size` ranks. `name` labels its stats.
  static Communicator world(int size, std::string name = "world");

  explicit operator bool() const { return state_ != nullptr; }
  int size() const;
  const std::string& name() const;

  // --- Nonblocking point-to-point -------------------------------------
  void isend(Rank src, Rank dst, int tag, const void* data,
             std::size_t bytes);
  void irecv(Rank dst, Rank src, int tag, void* buffer, std::size_t bytes);

  template <typename T>
  void isend_span(Rank src, Rank dst, int tag, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    isend(src, dst, tag, values.data(), values.size_bytes());
  }
  template <typename T>
  void irecv_span(Rank dst, Rank src, int tag, std::span<T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    irecv(dst, src, tag, values.data(), values.size_bytes());
  }
  template <typename T>
  void isend_value(Rank src, Rank dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    isend(src, dst, tag, &value, sizeof(T));
  }
  template <typename T>
  void irecv_value(Rank dst, Rank src, int tag, T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    irecv(dst, src, tag, value, sizeof(T));
  }

  /// Matches every pending receive against the pending sends — FIFO per
  /// (src, dst, tag) — and copies payloads. Throws CheckError if any
  /// send or receive is left unmatched or a matched pair disagrees on
  /// size. Delivery happens in receive-posting order.
  void wait_all();

  /// Variable-size receive: hands every pending send addressed to `dst`
  /// with `tag` to `sink(src, payload)`, sources ascending and FIFO per
  /// source. Used where the receiver cannot know message sizes up front
  /// (particle migration).
  using DeliverFn =
      support::FunctionRef<void(Rank src, std::span<const std::byte>)>;
  void deliver(Rank dst, int tag, DeliverFn sink);

  // --- Deterministic collectives --------------------------------------
  /// Sum of one contribution per rank, combined with blas1::sum (fixed-
  /// grain chunk order — bitwise identical at any CPX_THREADS). Counted
  /// as size() messages of sizeof(double) bytes.
  double allreduce_sum(std::span<const double> contributions);

  // --- Accounting -----------------------------------------------------
  const CommStats& stats() const;

  /// Number of pooled payload buffers (diagnostic: steady-state exchange
  /// must stop growing the pool — see tests/comm_test.cpp).
  std::size_t pool_size() const;

 private:
  struct State;
  explicit Communicator(std::shared_ptr<State> state);

  std::shared_ptr<State> state_;
};

}  // namespace cpx::comm
