#pragma once
// The virtual cluster: per-rank virtual clocks advanced by a machine model.
//
// Execution model (BSP-flavoured discrete events):
//  * Application code iterates over its ranks, calling compute() to account
//    kernel time, then issues bulk point-to-point exchanges and collectives.
//  * exchange() implements a message round: every sender pays a per-message
//    overhead (serialised per sender, with node injection-bandwidth
//    contention), each message arrives at
//        send_completion + latency + bytes/bandwidth,
//    and each receiver's clock advances to the latest arrival it depends
//    on. Waiting time is accounted as communication time, as an MPI
//    profiler would.
//  * Collectives (allreduce/barrier/broadcast) synchronise a contiguous
//    rank range: everyone leaves at max(entry clocks) + collective cost.
//  * send() is a single eagerly-matched message; chaining sends rank
//    i -> i+1 therefore serialises into a pipeline — exactly the behaviour
//    of SIMPIC's distributed tridiagonal field solve.
//
// Clock propagation through messages is what makes coupled multi-app
// schedules come out right: a density-solver rank that waits on coupler
// data cannot advance past the coupler's clock.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "sim/trace.hpp"

namespace cpx::ckpt {
class Writer;
class Reader;
}  // namespace cpx::ckpt

namespace cpx::sim {

/// Contiguous rank interval [begin, end). All application instances in the
/// coupled workflow own disjoint contiguous ranges.
struct RankRange {
  Rank begin = 0;
  Rank end = 0;

  int size() const { return end - begin; }
  bool contains(Rank r) const { return r >= begin && r < end; }
};

/// One point-to-point message in a bulk exchange.
struct Message {
  Rank src = 0;
  Rank dst = 0;
  std::size_t bytes = 0;
};

/// The compute a rank range runs while an exchange is in flight: rank
/// ranks.begin + i computes seconds[i], charged to `region`. Overlap{} is
/// the empty window.
struct Overlap {
  RankRange ranks;
  std::span<const double> seconds;
  RegionId region = -1;
};

/// A bulk exchange with everything that does not depend on the clocks
/// resolved up front (docs/SIMULATOR.md, "Schedules and bound instances").
/// Built once by Cluster::make_schedule() for a message list that repeats
/// every step (a halo or migration pattern); charging it touches only the
/// clocks, the profile and the traffic counters. A schedule is valid only
/// on the cluster that built it.
class ExchangeSchedule {
 private:
  friend class Cluster;

  /// One message: endpoints, the wire latency and the transfer seconds
  /// `bytes / effective_bw`, where the effective bandwidth already
  /// includes the node's NIC share. Arrival is charged as
  /// `(send_completion + latency) + transfer`, the association of the
  /// message-list form.
  struct Entry {
    Rank src = 0;
    Rank dst = 0;
    double latency = 0.0;
    double transfer = 0.0;
  };
  /// Traffic injected by one sending rank (integer sums, so exact).
  struct Sender {
    Rank rank = 0;
    std::size_t bytes = 0;
    std::int64_t messages = 0;
  };

  std::uint64_t cluster_id_ = 0;  ///< Cluster::id() of the builder
  std::vector<Entry> entries_;    ///< in message-list order
  std::vector<Sender> senders_;   ///< in order of first appearance
};

/// Thrown when a fault-injected rank reaches its failure step and then
/// touches the cluster (compute or communication): the simulated process
/// died, so the simulation object driving it must be discarded and rebuilt
/// from the last snapshot (docs/checkpoint.md).
class RankFailure : public std::runtime_error {
 public:
  RankFailure(Rank rank, int step)
      : std::runtime_error("rank " + std::to_string(rank) +
                           " failed at step " + std::to_string(step)),
        rank_(rank),
        step_(step) {}

  Rank rank() const { return rank_; }
  int step() const { return step_; }

 private:
  Rank rank_;
  int step_;
};

class Cluster {
 public:
  Cluster(const MachineModel& machine, int num_ranks);

  /// Process-unique identity of this cluster (never 0). Instances key
  /// their bind-once caches on it (sim/app.hpp).
  std::uint64_t id() const { return id_; }

  const MachineModel& machine() const { return machine_; }
  int num_ranks() const { return num_ranks_; }
  int num_nodes() const { return num_nodes_; }

  /// Block placement: rank r lives on node r / cores_per_node.
  int node_of(Rank rank) const;
  /// Number of ranks resident on `node` (cores_per_node except the tail).
  int ranks_on_node(int node) const;

  double clock(Rank rank) const;
  double max_clock() const;
  double max_clock(RankRange range) const;
  double min_clock(RankRange range) const;

  /// Interns a profiling region.
  RegionId region(std::string_view name);
  Profile& profile() { return profile_; }
  const Profile& profile() const { return profile_; }

  // --- Compute ---
  void compute(Rank rank, const Work& work, RegionId region);
  void compute_seconds(Rank rank, double seconds, RegionId region);
  /// Range charge: rank range.begin + i computes seconds[i]. Charges
  /// exactly what compute_seconds(rank, seconds[i], region) would, rank by
  /// rank in ascending order, in one loop (a failing rank throws after the
  /// ranks before it were charged).
  void compute_seconds(RankRange range, std::span<const double> seconds,
                       RegionId region);
  /// Uniform range charge: every rank in the range computes `seconds`,
  /// exactly as the span form charges a span holding that value.
  void compute_seconds(RankRange range, double seconds, RegionId region);

  // --- Point-to-point ---
  /// Resolves a message list into a reusable schedule: per message the
  /// latency and transfer seconds under this round's NIC contention, per
  /// sender its byte and message totals.
  ExchangeSchedule make_schedule(std::span<const Message> messages);
  /// Bulk BSP-style exchange of independent messages. Equivalent to the
  /// overlapped form with an empty window.
  void exchange(const ExchangeSchedule& schedule, RegionId region);
  /// Message-list form: builds into a schedule this cluster owns (warm
  /// calls allocate nothing) and charges it.
  void exchange(std::span<const Message> messages, RegionId region);
  /// Overlapped exchange (docs/communication.md): posts the schedule
  /// (arrivals are fixed, so the window cannot speed the wire up),
  /// charges the window as compute_seconds(window.ranks, window.seconds,
  /// window.region) would, then receives: each destination waits only for
  /// the arrivals its window did not cover. The comm time this hides is
  /// accumulated per destination in comm_hidden_seconds() and, with host
  /// metrics on, the "comm/overlap_hidden_ns" / "comm/overlap_window_ns"
  /// counters. Overlap{} charges exactly what the synchronous form does.
  void exchange(const ExchangeSchedule& schedule, RegionId region,
                const Overlap& window);
  /// Single eager message (use for pipelines / coupler hand-offs).
  void send(Rank src, Rank dst, std::size_t bytes, RegionId region);

  /// Virtual comm seconds hidden behind concurrent compute on `rank` —
  /// the honesty channel of the overlap model: clock(r) + nothing, but
  /// the synchronous counterfactual would have charged this much more.
  double comm_hidden_seconds(Rank rank) const;
  double comm_hidden_seconds(RankRange range) const;

  // --- Collectives over a contiguous range ---
  void allreduce(RankRange range, std::size_t bytes, RegionId region);
  void barrier(RankRange range, RegionId region);
  void broadcast(RankRange range, Rank root, std::size_t bytes,
                 RegionId region);
  /// Gather of `bytes_per_rank` from every rank in `range` to `root`.
  void gather(RankRange range, Rank root, std::size_t bytes_per_rank,
              RegionId region);
  /// Personalised all-to-all over the range (`bytes_per_pair` per pair).
  void alltoall(RankRange range, std::size_t bytes_per_pair,
                RegionId region);

  /// Advances every rank in `range` to at least `time`, charging the jump
  /// to `region` as communication (used for schedule-level waits).
  void wait_until(RankRange range, double time, RegionId region);

  /// Charges `seconds` of communication time to one rank without modelling
  /// individual messages — used for latency-bound exchange rounds (e.g.
  /// multigrid coarse levels) where per-message simulation would be wasteful.
  void comm_delay(Rank rank, double seconds, RegionId region);
  /// Range form of comm_delay: rank range.begin + i is charged seconds[i],
  /// in ascending rank order. Like the per-rank form, it models no
  /// failure.
  void comm_delay(RankRange range, std::span<const double> seconds,
                  RegionId region);

  // --- Traffic accounting (docs/communication.md) ---
  /// Bytes rank `rank` has injected into the network: message payloads
  /// from exchange()/send(), plus its modelled contribution to
  /// collectives (allreduce/broadcast root/gather leaves/alltoall).
  std::size_t comm_bytes(Rank rank) const;
  /// Total injected bytes over a rank range — the measured per-instance
  /// comm volume consumed by perfmodel (perfmodel::measure_comm_volume).
  std::size_t comm_bytes(RankRange range) const;
  std::int64_t comm_messages(Rank rank) const;
  std::int64_t comm_messages(RankRange range) const;

  /// Zeroes every clock and the profile (region ids survive).
  void reset();

  /// Zeroes the per-rank clocks, traffic counters and hidden-comm totals
  /// — but NOT the profile. This is the between-scenario reset for
  /// benchmarks that warm up, reset, then measure: reusing one cluster
  /// across scenarios without it used to leak the warm-up clocks and
  /// comm_hidden_seconds into the measured averages. Call
  /// profile().reset() as well when the measured quantity is read from
  /// the profile.
  void reset_clocks();

  // --- Fault injection (docs/checkpoint.md) ---
  /// Arms a failure: once begin_step() reaches `step`, any compute or
  /// send issued by `rank` throws RankFailure. Models an MPI process
  /// dying mid-step; the workflow catches it, discards the dead
  /// simulation, and restores from the last snapshot.
  void inject_failure(Rank rank, int step);
  void clear_failure();
  bool failure_armed() const { return failed_rank_ >= 0; }

  /// Marks the start of workflow step `step` (drives the failure trigger).
  void begin_step(int step) { current_step_ = step; }
  int current_step() const { return current_step_; }

  /// Snapshot section "sim/cluster" (docs/checkpoint.md): per-rank clocks,
  /// traffic counters, hidden-comm totals, the step counter, and the
  /// nested profile. Restore validates the rank count and throws
  /// CheckError on mismatch or corruption.
  void serialize(ckpt::Writer& w) const;
  void restore(ckpt::Reader& r);

  /// Enables timeline recording (see sim/trace.hpp). Call before running;
  /// reset() clears recorded events but keeps tracing enabled.
  void enable_tracing(std::size_t max_events = 1 << 20);
  bool tracing_enabled() const { return trace_ != nullptr; }
  const Trace* trace() const { return trace_.get(); }

 private:
  /// Advances every rank of `range` that is behind `time` to it, in
  /// ascending order, charging the wait as comm.
  void bump_to(RankRange range, double time, RegionId region);

  /// Records one interval when tracing is on (inline: every charging loop
  /// calls it, and with tracing off it is one pointer test).
  void record(Rank rank, RegionId region, TraceKind kind, double start,
              double end) {
    if (trace_ != nullptr && end > start) {
      trace_->record(rank, region, kind, start, end);
    }
  }
  /// Throws CheckError unless `range` is a non-empty range of this
  /// cluster's ranks.
  void check_range(RankRange range) const;
  /// Validates the arguments of a range charge.
  void check_range_charge(RankRange range,
                          std::span<const double> seconds) const;
  /// The loop of both range compute charges: rank r computes
  /// seconds_of(r), in ascending rank order.
  template <typename SecondsOf>
  void compute_range(RankRange range, RegionId region, SecondsOf seconds_of);

  /// Throws RankFailure when `rank` is armed and past its failure step.
  void maybe_fail(Rank rank) const {
    if (failed_rank_ >= 0 && rank == failed_rank_ &&
        current_step_ >= failure_step_) {
      throw RankFailure(rank, current_step_);
    }
  }

  std::uint64_t id_;      ///< process-unique // cpx-lint: allow(ckpt)
  MachineModel machine_;  ///< construction config // cpx-lint: allow(ckpt)
  int num_ranks_;
  int num_nodes_;  ///< derived from machine_ // cpx-lint: allow(ckpt)
  void account_traffic(Rank src, std::size_t bytes,
                       std::int64_t messages = 1);
  /// account_traffic for every rank of [begin, end).
  void account_traffic(Rank begin, Rank end, std::size_t bytes,
                       std::int64_t messages = 1);

  struct PendingMessage {
    Rank dst = 0;
    double arrival = 0.0;
  };
  /// Fills `out` from `messages` (reusing its storage).
  void build_schedule(std::span<const Message> messages,
                      ExchangeSchedule& out);
  /// The sender half of every bulk exchange: charges overheads and
  /// traffic, writes each message's arrival to `arrivals`.
  void post(const ExchangeSchedule& schedule, RegionId region,
            std::vector<PendingMessage>& arrivals);
  /// The receiver half: each destination waits for its arrivals and pays
  /// the per-message overhead. With `replay`, also advances the
  /// synchronous counterfactual from sync_clock_scratch_ and returns the
  /// comm time it hides (the overlapped exchange); without, returns 0.
  double receive(std::span<const PendingMessage> arrivals, RegionId region,
                 bool replay);

  std::vector<double> clocks_;
  std::vector<std::size_t> comm_bytes_;
  std::vector<std::int64_t> comm_messages_;
  std::vector<double> comm_hidden_;
  Profile profile_;
  std::unique_ptr<Trace> trace_;  ///< diagnostic // cpx-lint: allow(ckpt)

  // Fault-injection trigger (not state of the simulated machine: a
  // restored run re-arms explicitly if it wants another failure).
  Rank failed_rank_ = -1;   // cpx-lint: allow(ckpt)
  int failure_step_ = 0;    // cpx-lint: allow(ckpt)
  int current_step_ = 0;

  // Scratch of the message-list adapter and of every bulk exchange,
  // reused so warm calls allocate nothing. sender_slot_ maps a rank to its
  // entry in a schedule's sender list while one is built (-1 otherwise);
  // message_node_ holds each message's sender node (-1 for an intra-node
  // message) between the two passes of a build.
  ExchangeSchedule schedule_scratch_;          // cpx-lint: allow(ckpt)
  std::vector<int> senders_per_node_;          // cpx-lint: allow(ckpt)
  std::vector<int> sender_slot_;               // cpx-lint: allow(ckpt)
  std::vector<int> message_node_;              // cpx-lint: allow(ckpt)
  std::vector<PendingMessage> arrival_scratch_;  // cpx-lint: allow(ckpt)
  // Per-rank scratch of the overlapped exchange: the synchronous
  // counterfactual clocks, and the epoch marks that count each
  // destination's window once for the overlap_window_ns counter (no
  // per-call clearing).
  std::vector<double> sync_clock_scratch_;  // cpx-lint: allow(ckpt)
  std::vector<std::int64_t> window_mark_;   // cpx-lint: allow(ckpt)
  std::int64_t window_epoch_ = 0;           // cpx-lint: allow(ckpt)
};

}  // namespace cpx::sim
