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
    : id_(0), machine_(machine), num_ranks_(0), num_nodes_(0),
      profile_(num_ranks) {
  CPX_REQUIRE(machine.cores_per_node >= 1, "Cluster: bad cores_per_node");
  reshape(num_ranks);
  support::metrics::counter_add("sim/clusters_built", 1);
}

void Cluster::reshape(int num_ranks) {
  CPX_REQUIRE(num_ranks >= 1, "Cluster: need at least one rank");
  const auto n = static_cast<std::size_t>(num_ranks);
  id_ = next_cluster_id();
  num_ranks_ = num_ranks;
  num_nodes_ = (num_ranks + machine_.cores_per_node - 1) /
               machine_.cores_per_node;
  // assign() keeps the capacity, so a smaller size writes zeroes into
  // memory that is already mapped.
  clocks_.assign(n, 0.0);
  comm_bytes_.assign(n, 0);
  comm_messages_.assign(n, 0);
  comm_hidden_.assign(n, 0.0);
  profile_.reshape(num_ranks);
  sender_slot_.assign(n, -1);
  sync_clock_scratch_.assign(n, 0.0);
  window_mark_.assign(n, 0);
  window_epoch_ = 0;
  current_step_ = 0;
  clear_failure();
  if (trace_ != nullptr) {
    trace_->clear();
  }
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
  ExchangeSchedule out;
  out.cluster_id_ = id_;

  // Count inter-node messages per sending node for injection-bandwidth
  // sharing. A rank may send several messages; each message occupies the
  // NIC, so contention scales with message concurrency, not with distinct
  // senders. Each message's sender node (-1 when both ends share a node)
  // is kept for the second pass, so every message divides by
  // cores_per_node only twice. The same pass gives every distinct sender
  // its slot in order of first appearance, so both output lists are
  // sized once.
  const int cores_per_node = machine_.cores_per_node;
  senders_per_node_.assign(static_cast<std::size_t>(num_nodes_), 0);
  message_node_.resize(messages.size());
  int num_senders = 0;
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
    int& slot = sender_slot_[static_cast<std::size_t>(m.src)];
    if (slot < 0) {
      slot = num_senders++;
    }
  }

  out.entries_.reserve(messages.size());
  out.senders_.resize(static_cast<std::size_t>(num_senders));
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
    out.entries_.push_back({m.src, m.dst, machine_.latency(same_node),
                            static_cast<double>(m.bytes) / bw});

    ExchangeSchedule::Sender& sender = out.senders_[static_cast<std::size_t>(
        sender_slot_[static_cast<std::size_t>(m.src)])];
    sender.rank = m.src;
    sender.bytes += m.bytes;
    ++sender.messages;
  }
  for (const ExchangeSchedule::Sender& sender : out.senders_) {
    sender_slot_[static_cast<std::size_t>(sender.rank)] = -1;
  }
  return out;
}

void Cluster::post(const ExchangeSchedule& schedule, RegionId region) {
  CPX_REQUIRE(schedule.cluster_id_ == id_,
              "Cluster: exchange schedule was built by another cluster");
  support::metrics::counter_add(
      "sim/messages", static_cast<std::int64_t>(schedule.entries_.size()));
  // Every sender is checked before anything is charged, so a refused
  // exchange leaves every clock, comm total and traffic counter untouched.
  if (failure_armed()) {
    for (const ExchangeSchedule::Sender& sender : schedule.senders_) {
      maybe_fail(sender.rank);
    }
  }
  // Senders pay the per-message software overhead, one add per message,
  // so several messages from one rank serialise; receive() times each
  // send by repeating that chain from the stored clock.
  // cpx-lint: allow(solve-alloc) — sized once per rank count (SolverAllocations.FirstExchangeOfALargerScheduleAllocatesNothing)
  send_clock_.resize(static_cast<std::size_t>(num_ranks_));
  double* clocks = clocks_.data();
  double* comm = profile_.comm_row(region);
  double* send_clock = send_clock_.data();
  const double overhead = machine_.msg_overhead;
  for (const ExchangeSchedule::Sender& sender : schedule.senders_) {
    const auto src = static_cast<std::size_t>(sender.rank);
    double clock = clocks[src];
    double total = comm[src];
    send_clock[src] = clock;
    for (std::int64_t k = 0; k < sender.messages; ++k) {
      clock += overhead;
      total += overhead;
    }
    clocks[src] = clock;
    comm[src] = total;
    comm_bytes_[src] += sender.bytes;
    comm_messages_[src] += sender.messages;
  }
}

double Cluster::receive(const ExchangeSchedule& schedule, RegionId region,
                        bool replay) {
  // Each message leaves one overhead after its sender's previous one,
  // starting from the clock post() stored, so arrivals are fixed at the
  // post: compute issued before the receive cannot make the wire faster.
  // The chain of the current sender run is carried in `sent` and stored
  // back when the run ends, so a later run of that sender resumes it,
  // whatever its own receives did to its clock.
  //
  // Receivers pay a per-message overhead and wait for arrivals. The
  // replay advances the synchronous counterfactual from the pre-window
  // snapshot with the same recurrence, so the hidden time of a message is
  // its sync wait minus its real wait.
  const std::size_t n = schedule.entries_.size();
  if (n == 0) {
    return 0.0;
  }
  const ExchangeSchedule::Entry* entries = schedule.entries_.data();
  double* clocks = clocks_.data();
  double* comm = profile_.comm_row(region);
  double* send_clock = send_clock_.data();
  const double overhead = machine_.msg_overhead;
  double hidden_total = 0.0;
  const bool traced = tracing_enabled();
  auto src = static_cast<std::size_t>(entries[0].src);
  double sent = send_clock[src];
  for (std::size_t i = 0; i < n; ++i) {
    const ExchangeSchedule::Entry& e = entries[i];
    const auto from = static_cast<std::size_t>(e.src);
    if (from != src) {
      send_clock[src] = sent;
      src = from;
      sent = send_clock[src];
    }
    sent = sent + overhead;
    const double arrival = (sent + e.latency) + e.transfer;
    const auto dst = static_cast<std::size_t>(e.dst);
    const double clock = clocks[dst];
    if (replay) {
      double& sync_clock = sync_clock_scratch_[dst];
      // Select form, like the wait below: max(s, a) - s is the
      // max(0, a - s) of the documented recurrence bit for bit on finite
      // clocks (a - s > 0 exactly when a > s, and s - s is +0.0), and
      // compiles to maxsd where the max(0, .) form compiled to branches.
      const double sync_start = std::max(sync_clock, arrival);
      const double sync_wait = sync_start - sync_clock;
      const double real_wait = std::max(clock, arrival) - clock;
      sync_clock = sync_start + overhead;
      const double hidden = std::max(sync_wait, real_wait) - real_wait;
      comm_hidden_[dst] += hidden;
      hidden_total += hidden;
    }
    // Branch-free: a message that is already there waits
    // clock - clock = +0.0, and adding +0.0 to a non-negative comm total
    // leaves its bits unchanged. record() skips the empty interval; the
    // trace test is hoisted into `traced` so that the compiler cannot
    // fold it into a branch on the data.
    const double start = std::max(clock, arrival);
    if (traced) [[unlikely]] {
      record(e.dst, region, TraceKind::kComm, clock, start);
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
  post(schedule, region);
  receive(schedule, region, /*replay=*/false);
}

void Cluster::exchange(const ExchangeSchedule& schedule, RegionId region,
                       const Overlap& window) {
  const bool empty = window.ranks.size() == 0 && window.seconds.empty();
  if (!empty) {
    check_range_charge(window.ranks, window.seconds);
    // A window rank that fails refuses the exchange before post charges
    // anything, like a failing sender.
    if (window.ranks.contains(failed_rank_)) {
      maybe_fail(failed_rank_);
    }
  }
  post(schedule, region);

  // The synchronous counterfactual starts waiting at each destination's
  // clock after every sender was charged. Only the window moves a clock
  // before the receive, so writing it once per message is idempotent.
  double* clocks = clocks_.data();
  for (const ExchangeSchedule::Entry& e : schedule.entries_) {
    const auto dst = static_cast<std::size_t>(e.dst);
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
  for (const ExchangeSchedule::Entry& e : schedule.entries_) {
    const auto dst = static_cast<std::size_t>(e.dst);
    if (window_mark_[dst] != window_epoch_) {
      window_mark_[dst] = window_epoch_;
      window_total += clocks[dst] - sync_clock_scratch_[dst];
    }
  }
  const double hidden_total = receive(schedule, region, /*replay=*/true);

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
