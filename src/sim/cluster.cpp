#include "sim/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "ckpt/snapshot.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::sim {
namespace {

std::uint64_t next_cluster_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

Cluster::Cluster(const MachineModel& machine, int num_ranks)
    : id_(next_cluster_id()),
      machine_(machine),
      num_ranks_(num_ranks),
      num_nodes_((num_ranks + machine.cores_per_node - 1) /
                 machine.cores_per_node),
      clocks_(static_cast<std::size_t>(num_ranks), 0.0),
      comm_bytes_(static_cast<std::size_t>(num_ranks), 0),
      comm_messages_(static_cast<std::size_t>(num_ranks), 0),
      comm_hidden_(static_cast<std::size_t>(num_ranks), 0.0),
      profile_(num_ranks),
      sender_slot_(static_cast<std::size_t>(num_ranks), -1),
      sync_clock_scratch_(static_cast<std::size_t>(num_ranks), 0.0),
      window_mark_(static_cast<std::size_t>(num_ranks), 0) {
  CPX_REQUIRE(num_ranks >= 1, "Cluster: need at least one rank");
  CPX_REQUIRE(machine.cores_per_node >= 1, "Cluster: bad cores_per_node");
}

int Cluster::node_of(Rank rank) const {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  return rank / machine_.cores_per_node;
}

int Cluster::ranks_on_node(int node) const {
  CPX_DCHECK(node >= 0 && node < num_nodes_);
  const int begin = node * machine_.cores_per_node;
  return std::min(machine_.cores_per_node, num_ranks_ - begin);
}

double Cluster::clock(Rank rank) const {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  return clocks_[static_cast<std::size_t>(rank)];
}

double Cluster::max_clock() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

double Cluster::max_clock(RankRange range) const {
  check_range(range);
  return *std::max_element(clocks_.begin() + range.begin,
                           clocks_.begin() + range.end);
}

double Cluster::min_clock(RankRange range) const {
  check_range(range);
  return *std::min_element(clocks_.begin() + range.begin,
                           clocks_.begin() + range.end);
}

RegionId Cluster::region(std::string_view name) {
  return profile_.region(name);
}

void Cluster::compute(Rank rank, const Work& work, RegionId region) {
  compute_seconds(rank, machine_.compute_time(work), region);
}

void Cluster::compute_seconds(Rank rank, double seconds, RegionId region) {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  CPX_DCHECK(seconds >= 0.0);
  maybe_fail(rank);
  double& clock_ref = clocks_[static_cast<std::size_t>(rank)];
  record(rank, region, TraceKind::kCompute, clock_ref, clock_ref + seconds);
  clock_ref += seconds;
  profile_.add_compute(rank, region, seconds);
}

template <typename SecondsOf>
void Cluster::compute_range(RankRange range, RegionId region,
                            SecondsOf seconds_of) {
  double* clocks = clocks_.data();
  double* row = profile_.compute_row(region);
  for (Rank r = range.begin; r < range.end; ++r) {
    const double s = seconds_of(r);
    CPX_DCHECK(s >= 0.0);
    maybe_fail(r);
    const auto i = static_cast<std::size_t>(r);
    const double start = clocks[i];
    record(r, region, TraceKind::kCompute, start, start + s);
    clocks[i] = start + s;
    row[i] += s;
  }
}

void Cluster::compute_seconds(RankRange range,
                              std::span<const double> seconds,
                              RegionId region) {
  check_range_charge(range, seconds);
  compute_range(range, region, [&](Rank r) {
    return seconds[static_cast<std::size_t>(r - range.begin)];
  });
}

void Cluster::compute_seconds(RankRange range, double seconds,
                              RegionId region) {
  check_range(range);
  compute_range(range, region, [=](Rank) { return seconds; });
}

void Cluster::check_range(RankRange range) const {
  CPX_REQUIRE(range.begin >= 0 && range.end <= num_ranks_ && range.size() > 0,
              "Cluster: bad rank range");
}

void Cluster::check_range_charge(RankRange range,
                                 std::span<const double> seconds) const {
  check_range(range);
  CPX_REQUIRE(seconds.size() == static_cast<std::size_t>(range.size()),
              "Cluster: " << seconds.size() << " charges for "
                          << range.size() << " ranks");
}

void Cluster::account_traffic(Rank src, std::size_t bytes,
                              std::int64_t messages) {
  comm_bytes_[static_cast<std::size_t>(src)] += bytes;
  comm_messages_[static_cast<std::size_t>(src)] += messages;
}

void Cluster::account_traffic(Rank begin, Rank end, std::size_t bytes,
                              std::int64_t messages) {
  std::size_t* sent = comm_bytes_.data();
  std::int64_t* count = comm_messages_.data();
  for (auto i = static_cast<std::size_t>(begin);
       i < static_cast<std::size_t>(end); ++i) {
    sent[i] += bytes;
    count[i] += messages;
  }
}

std::size_t Cluster::comm_bytes(Rank rank) const {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  return comm_bytes_[static_cast<std::size_t>(rank)];
}

std::size_t Cluster::comm_bytes(RankRange range) const {
  check_range(range);
  std::size_t total = 0;
  for (Rank r = range.begin; r < range.end; ++r) {
    total += comm_bytes_[static_cast<std::size_t>(r)];
  }
  return total;
}

std::int64_t Cluster::comm_messages(Rank rank) const {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  return comm_messages_[static_cast<std::size_t>(rank)];
}

std::int64_t Cluster::comm_messages(RankRange range) const {
  check_range(range);
  std::int64_t total = 0;
  for (Rank r = range.begin; r < range.end; ++r) {
    total += comm_messages_[static_cast<std::size_t>(r)];
  }
  return total;
}

void Cluster::bump_to(RankRange range, double time, RegionId region) {
  double* clocks = clocks_.data();
  double* comm = profile_.comm_row(region);
  const bool traced = tracing_enabled();
  for (Rank r = range.begin; r < range.end; ++r) {
    // Branch-free like receive(): a rank already past `time` adds +0.0.
    const auto i = static_cast<std::size_t>(r);
    const double c = clocks[i];
    const double end = std::max(c, time);
    if (traced) [[unlikely]] {
      record(r, region, TraceKind::kComm, c, end);
    }
    comm[i] += end - c;
    clocks[i] = end;
  }
}

ExchangeSchedule Cluster::make_schedule(std::span<const Message> messages) {
  ExchangeSchedule schedule;
  build_schedule(messages, schedule);
  return schedule;
}

void Cluster::build_schedule(std::span<const Message> messages,
                             ExchangeSchedule& out) {
  out.cluster_id_ = id_;
  // cpx-lint: allow(solve-alloc) — same size when warm (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  out.entries_.resize(messages.size());
  out.senders_.clear();

  // Count inter-node messages per sending node for injection-bandwidth
  // sharing. A rank may send several messages; each message occupies the
  // NIC, so contention scales with message concurrency, not with distinct
  // senders. Each message's sender node (-1 when both ends share a node)
  // is kept for the second pass, so every message divides by
  // cores_per_node only twice.
  const int cores_per_node = machine_.cores_per_node;
  // cpx-lint: allow(solve-alloc) — same size when warm (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  senders_per_node_.assign(static_cast<std::size_t>(num_nodes_), 0);
  // cpx-lint: allow(solve-alloc) — same size when warm (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  message_node_.resize(messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Message& m = messages[i];
    CPX_DCHECK(m.src >= 0 && m.src < num_ranks_);
    CPX_DCHECK(m.dst >= 0 && m.dst < num_ranks_);
    const int src_node = m.src / cores_per_node;
    const bool same_node = src_node == m.dst / cores_per_node;
    message_node_[i] = same_node ? -1 : src_node;
    if (!same_node) {
      ++senders_per_node_[static_cast<std::size_t>(src_node)];
    }
  }

  for (std::size_t i = 0; i < messages.size(); ++i) {
    const Message& m = messages[i];
    const int src_node = message_node_[i];
    const bool same_node = src_node < 0;
    double bw = machine_.bandwidth(same_node);
    if (!same_node) {
      const int concurrent =
          senders_per_node_[static_cast<std::size_t>(src_node)];
      const double nic_share =
          machine_.node_injection_bw / std::max(1, concurrent);
      bw = std::min(bw, nic_share);
    }
    out.entries_[i] = {m.src, m.dst, machine_.latency(same_node),
                       static_cast<double>(m.bytes) / bw};

    int& slot = sender_slot_[static_cast<std::size_t>(m.src)];
    if (slot < 0) {
      slot = static_cast<int>(out.senders_.size());
      // cpx-lint: allow(solve-alloc) — refills a cleared vector, capacity kept (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
      out.senders_.push_back({m.src, 0, 0});
    }
    ExchangeSchedule::Sender& sender =
        out.senders_[static_cast<std::size_t>(slot)];
    sender.bytes += m.bytes;
    ++sender.messages;
  }
  for (const ExchangeSchedule::Sender& sender : out.senders_) {
    sender_slot_[static_cast<std::size_t>(sender.rank)] = -1;
  }
}

void Cluster::exchange(std::span<const Message> messages, RegionId region) {
  if (messages.empty()) {
    return;
  }
  build_schedule(messages, schedule_scratch_);
  exchange(schedule_scratch_, region);
}

void Cluster::post(const ExchangeSchedule& schedule, RegionId region,
                   std::vector<PendingMessage>& arrivals) {
  CPX_REQUIRE(schedule.cluster_id_ == id_,
              "Cluster: exchange schedule was built by another cluster");
  const std::size_t n = schedule.entries_.size();
  support::metrics::counter_add("sim/messages",
                                static_cast<std::int64_t>(n));
  // Every sender is checked and its traffic counted before any clock
  // moves, so a failing sender leaves every clock untouched.
  for (const ExchangeSchedule::Sender& sender : schedule.senders_) {
    maybe_fail(sender.rank);
    account_traffic(sender.rank, sender.bytes, sender.messages);
  }
  // Senders pay the per-message software overhead; several messages from
  // one rank serialise because its clock advances in place. Arrivals are
  // fixed here — compute issued before the receive cannot make the wire
  // faster.
  // cpx-lint: allow(solve-alloc) — same size when warm (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  arrivals.resize(n);
  PendingMessage* out = arrivals.data();
  const ExchangeSchedule::Entry* entries = schedule.entries_.data();
  double* clocks = clocks_.data();
  double* comm = profile_.comm_row(region);
  const double overhead = machine_.msg_overhead;
  for (std::size_t i = 0; i < n; ++i) {
    const ExchangeSchedule::Entry& e = entries[i];
    const auto src = static_cast<std::size_t>(e.src);
    const double sent = clocks[src] + overhead;
    clocks[src] = sent;
    comm[src] += overhead;
    out[i] = {e.dst, (sent + e.latency) + e.transfer};
  }
}

double Cluster::receive(std::span<const PendingMessage> arrivals,
                        RegionId region, bool replay) {
  // Receivers pay a per-message overhead and wait for arrivals. The
  // replay advances the synchronous counterfactual from the pre-window
  // snapshot with the same recurrence, so the hidden time of a message is
  // its sync wait minus its real wait.
  double* clocks = clocks_.data();
  double* comm = profile_.comm_row(region);
  const double overhead = machine_.msg_overhead;
  double hidden_total = 0.0;
  const bool traced = tracing_enabled();
  for (const PendingMessage& pm : arrivals) {
    const auto dst = static_cast<std::size_t>(pm.dst);
    const double clock = clocks[dst];
    if (replay) {
      double& sync_clock = sync_clock_scratch_[dst];
      const double sync_wait = std::max(0.0, pm.arrival - sync_clock);
      const double real_wait = std::max(0.0, pm.arrival - clock);
      sync_clock = std::max(sync_clock, pm.arrival) + overhead;
      const double hidden = std::max(0.0, sync_wait - real_wait);
      comm_hidden_[dst] += hidden;
      hidden_total += hidden;
    }
    // Branch-free: a message that is already there waits
    // clock - clock = +0.0, and adding +0.0 to a non-negative comm total
    // leaves its bits unchanged. record() skips the empty interval; the
    // trace test is hoisted into `traced` so that the compiler cannot
    // fold it into a branch on the data.
    const double start = std::max(clock, pm.arrival);
    if (traced) [[unlikely]] {
      record(pm.dst, region, TraceKind::kComm, clock, start);
    }
    comm[dst] = (comm[dst] + (start - clock)) + overhead;
    clocks[dst] = start + overhead;
  }
  return hidden_total;
}

void Cluster::exchange(const ExchangeSchedule& schedule, RegionId region) {
  // A synchronous exchange is an overlapped one with an empty window: the
  // counterfactual replay would start every destination at its real clock
  // and advance it by the same recurrence, so it would hide exactly
  // nothing. It is skipped.
  post(schedule, region, arrival_scratch_);
  receive(arrival_scratch_, region, /*replay=*/false);
}

void Cluster::exchange(const ExchangeSchedule& schedule, RegionId region,
                       const Overlap& window) {
  const bool empty = window.ranks.size() == 0 && window.seconds.empty();
  if (!empty) {
    check_range_charge(window.ranks, window.seconds);
  }
  post(schedule, region, arrival_scratch_);

  // The synchronous counterfactual starts waiting at each destination's
  // clock after every sender was charged. Only the window moves a clock
  // before the receive, so writing it once per message is idempotent.
  double* clocks = clocks_.data();
  for (const PendingMessage& pm : arrival_scratch_) {
    const auto dst = static_cast<std::size_t>(pm.dst);
    sync_clock_scratch_[dst] = clocks[dst];
  }
  if (!empty) {
    compute_range(window.ranks, window.region, [&](Rank r) {
      return window.seconds[static_cast<std::size_t>(r - window.ranks.begin)];
    });
  }
  // The window each destination ran, counted once per destination in
  // order of first appearance.
  ++window_epoch_;
  double window_total = 0.0;
  for (const PendingMessage& pm : arrival_scratch_) {
    const auto dst = static_cast<std::size_t>(pm.dst);
    if (window_mark_[dst] != window_epoch_) {
      window_mark_[dst] = window_epoch_;
      window_total += clocks[dst] - sync_clock_scratch_[dst];
    }
  }
  const double hidden_total =
      receive(arrival_scratch_, region, /*replay=*/true);

  if (support::metrics::enabled()) {
    support::metrics::counter_add(
        "comm/overlap_window_ns",
        static_cast<std::int64_t>(window_total * 1e9));
    support::metrics::counter_add(
        "comm/overlap_hidden_ns",
        static_cast<std::int64_t>(hidden_total * 1e9));
  }
}

double Cluster::comm_hidden_seconds(Rank rank) const {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  return comm_hidden_[static_cast<std::size_t>(rank)];
}

double Cluster::comm_hidden_seconds(RankRange range) const {
  check_range(range);
  double total = 0.0;
  for (Rank r = range.begin; r < range.end; ++r) {
    total += comm_hidden_[static_cast<std::size_t>(r)];
  }
  return total;
}

void Cluster::send(Rank src, Rank dst, std::size_t bytes, RegionId region) {
  CPX_DCHECK(src >= 0 && src < num_ranks_);
  CPX_DCHECK(dst >= 0 && dst < num_ranks_);
  maybe_fail(src);
  const bool same_node = node_of(src) == node_of(dst);
  double& src_clock = clocks_[static_cast<std::size_t>(src)];
  src_clock += machine_.msg_overhead;
  profile_.add_comm(src, region, machine_.msg_overhead);
  account_traffic(src, bytes);
  const double arrival = src_clock + machine_.wire_time(bytes, same_node);
  bump_to(RankRange{dst, dst + 1}, arrival, region);
  clocks_[static_cast<std::size_t>(dst)] += machine_.msg_overhead;
  profile_.add_comm(dst, region, machine_.msg_overhead);
}

void Cluster::allreduce(RankRange range, std::size_t bytes, RegionId region) {
  check_range(range);
  if (range.size() == 1) {
    return;
  }
  const int nodes = node_of(range.end - 1) - node_of(range.begin) + 1;
  const double cost = machine_.allreduce_time(range.size(), nodes, bytes);
  const double done = max_clock(range) + cost;
  account_traffic(range.begin, range.end, bytes);
  bump_to(range, done, region);
}

void Cluster::barrier(RankRange range, RegionId region) {
  check_range(range);
  if (range.size() == 1) {
    return;
  }
  const int nodes = node_of(range.end - 1) - node_of(range.begin) + 1;
  const double done =
      max_clock(range) + machine_.barrier_time(range.size(), nodes);
  bump_to(range, done, region);
}

void Cluster::broadcast(RankRange range, Rank root, std::size_t bytes,
                        RegionId region) {
  CPX_REQUIRE(range.contains(root), "Cluster: broadcast root outside range");
  if (range.size() == 1) {
    return;
  }
  const int nodes = node_of(range.end - 1) - node_of(range.begin) + 1;
  const double done =
      clock(root) + machine_.broadcast_time(range.size(), nodes, bytes);
  account_traffic(root, bytes);
  bump_to(range, done, region);
}

void Cluster::gather(RankRange range, Rank root, std::size_t bytes_per_rank,
                     RegionId region) {
  CPX_REQUIRE(range.contains(root), "Cluster: gather root outside range");
  if (range.size() == 1) {
    return;
  }
  // Model: binomial-tree gather; data volume at the root dominates, so cost
  // is latency rounds plus the full payload crossing the root's link.
  const int nodes = node_of(range.end - 1) - node_of(range.begin) + 1;
  const double payload =
      static_cast<double>(bytes_per_rank) * (range.size() - 1);
  const double link_bw = nodes > 1 ? machine_.bw_inter : machine_.bw_intra;
  const double cost = machine_.barrier_time(range.size(), nodes) / 2.0 +
                      payload / link_bw +
                      machine_.msg_overhead * std::log2(range.size());
  const double done = max_clock(range) + cost;
  account_traffic(range.begin, root, bytes_per_rank);
  account_traffic(root + 1, range.end, bytes_per_rank);
  bump_to(range, done, region);
}

void Cluster::alltoall(RankRange range, std::size_t bytes_per_pair,
                       RegionId region) {
  check_range(range);
  if (range.size() == 1) {
    return;
  }
  const int nodes = node_of(range.end - 1) - node_of(range.begin) + 1;
  const double done =
      max_clock(range) +
      machine_.alltoall_time(range.size(), nodes, bytes_per_pair);
  account_traffic(range.begin, range.end,
                  bytes_per_pair * static_cast<std::size_t>(range.size() - 1),
                  range.size() - 1);
  bump_to(range, done, region);
}

void Cluster::wait_until(RankRange range, double time, RegionId region) {
  check_range(range);
  bump_to(range, time, region);
}

void Cluster::comm_delay(Rank rank, double seconds, RegionId region) {
  CPX_DCHECK(rank >= 0 && rank < num_ranks_);
  CPX_DCHECK(seconds >= 0.0);
  double& clock_ref = clocks_[static_cast<std::size_t>(rank)];
  record(rank, region, TraceKind::kComm, clock_ref, clock_ref + seconds);
  clock_ref += seconds;
  profile_.add_comm(rank, region, seconds);
}

void Cluster::comm_delay(RankRange range, std::span<const double> seconds,
                         RegionId region) {
  check_range_charge(range, seconds);
  double* clocks = clocks_.data();
  double* row = profile_.comm_row(region);
  for (Rank r = range.begin; r < range.end; ++r) {
    const double s = seconds[static_cast<std::size_t>(r - range.begin)];
    CPX_DCHECK(s >= 0.0);
    const auto i = static_cast<std::size_t>(r);
    const double start = clocks[i];
    record(r, region, TraceKind::kComm, start, start + s);
    clocks[i] = start + s;
    row[i] += s;
  }
}

void Cluster::reset() {
  reset_clocks();
  profile_.reset();
  if (trace_ != nullptr) {
    trace_->clear();
  }
}

void Cluster::reset_clocks() {
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
  std::fill(comm_bytes_.begin(), comm_bytes_.end(), 0);
  std::fill(comm_messages_.begin(), comm_messages_.end(), 0);
  std::fill(comm_hidden_.begin(), comm_hidden_.end(), 0.0);
  current_step_ = 0;
}

void Cluster::inject_failure(Rank rank, int step) {
  CPX_REQUIRE(rank >= 0 && rank < num_ranks_,
              "inject_failure: bad rank " << rank);
  CPX_REQUIRE(step >= 0, "inject_failure: bad step " << step);
  failed_rank_ = rank;
  failure_step_ = step;
}

void Cluster::clear_failure() {
  failed_rank_ = -1;
  failure_step_ = 0;
}

void Cluster::serialize(ckpt::Writer& w) const {
  w.begin_section("sim/cluster");
  w.put_u32(static_cast<std::uint32_t>(num_ranks_));
  w.put_u32(static_cast<std::uint32_t>(current_step_));
  w.put_f64_span(clocks_);
  for (const std::size_t b : comm_bytes_) {
    w.put_u64(static_cast<std::uint64_t>(b));
  }
  w.put_i64_span(comm_messages_);
  w.put_f64_span(comm_hidden_);
  w.end_section();
  profile_.serialize(w);
}

void Cluster::restore(ckpt::Reader& r) {
  r.open_section("sim/cluster");
  const auto ranks = static_cast<int>(r.get_u32());
  CPX_CHECK_MSG(ranks == num_ranks_,
                "Cluster::restore: snapshot holds " << ranks
                                                    << " ranks, expected "
                                                    << num_ranks_);
  current_step_ = static_cast<int>(r.get_u32());
  r.get_f64_vec(clocks_);
  CPX_CHECK_MSG(static_cast<int>(clocks_.size()) == num_ranks_,
                "Cluster::restore: clock array truncated");
  for (std::size_t& b : comm_bytes_) {
    b = static_cast<std::size_t>(r.get_u64());
  }
  r.get_i64_vec(comm_messages_);
  r.get_f64_vec(comm_hidden_);
  CPX_CHECK_MSG(static_cast<int>(comm_messages_.size()) == num_ranks_ &&
                    static_cast<int>(comm_hidden_.size()) == num_ranks_,
                "Cluster::restore: traffic arrays truncated");
  r.end_section();
  profile_.restore(r);
}

void Cluster::enable_tracing(std::size_t max_events) {
  trace_ = std::make_unique<Trace>(max_events);
}

}  // namespace cpx::sim
