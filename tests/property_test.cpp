// Property-based tests: randomized sweeps asserting invariants that must
// hold for *any* input — the virtual cluster's accounting identities, the
// allocator's feasibility and optimality properties, the analytic
// partition model's bounds, and conservation laws of the physics kernels.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>

#include "cpx/unit.hpp"
#include "mesh/mesh.hpp"
#include "mesh/partition.hpp"
#include "mesh/stats.hpp"
#include "perfmodel/allocator.hpp"
#include "perfmodel/persistence.hpp"
#include "mgcfd/instance.hpp"
#include "reference_mesh.hpp"
#include "sim/cluster.hpp"
#include "simpic/instance.hpp"
#include "simpic/pic.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "workflow/case_io.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"
#include "support/rng.hpp"

namespace cpx {
namespace {

// --- Virtual cluster accounting identities -------------------------------

class ClusterAccounting : public ::testing::TestWithParam<int> {};

TEST_P(ClusterAccounting, ClockEqualsProfiledTimePerRank) {
  // Invariant: every clock advance is attributed to exactly one region,
  // so for each rank, clock == sum over regions of (compute + comm).
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int p = 8 + static_cast<int>(rng.uniform_index(120));
  sim::Cluster cluster(sim::MachineModel::archer2(), p);
  const sim::RegionId regions[3] = {cluster.region("a"), cluster.region("b"),
                                    cluster.region("c")};

  for (int op = 0; op < 300; ++op) {
    const auto choice = rng.uniform_index(4);
    const sim::RegionId region = regions[rng.uniform_index(3)];
    const auto rank = static_cast<sim::Rank>(
        rng.uniform_index(static_cast<std::uint64_t>(p)));
    switch (choice) {
      case 0:
        cluster.compute_seconds(rank, rng.uniform(0.0, 0.01), region);
        break;
      case 1:
        cluster.allreduce({0, p}, 8, region);
        break;
      case 2: {
        std::vector<sim::Message> msgs;
        for (int m = 0; m < 5; ++m) {
          const auto src = static_cast<sim::Rank>(
              rng.uniform_index(static_cast<std::uint64_t>(p)));
          const auto dst = static_cast<sim::Rank>(
              rng.uniform_index(static_cast<std::uint64_t>(p)));
          if (src != dst) {
            msgs.push_back({src, dst, rng.uniform_index(1 << 14)});
          }
        }
        if (!msgs.empty()) {
          cluster.exchange(cluster.make_schedule(msgs), region);
        }
        break;
      }
      default:
        cluster.comm_delay(rank, rng.uniform(0.0, 0.001), region);
        break;
    }
  }

  for (sim::Rank r = 0; r < p; ++r) {
    const sim::RegionTimes total = cluster.profile().rank_total(r);
    EXPECT_NEAR(cluster.clock(r), total.total(), 1e-9)
        << "rank " << r << " of " << p;
  }
}

TEST_P(ClusterAccounting, ClocksNeverDecrease) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const int p = 4 + static_cast<int>(rng.uniform_index(60));
  sim::Cluster cluster(sim::MachineModel::archer2(), p);
  const sim::RegionId region = cluster.region("r");
  std::vector<double> previous(static_cast<std::size_t>(p), 0.0);
  for (int op = 0; op < 200; ++op) {
    const auto rank = static_cast<sim::Rank>(
        rng.uniform_index(static_cast<std::uint64_t>(p)));
    if (rng.uniform() < 0.5) {
      cluster.compute_seconds(rank, rng.uniform(0.0, 0.01), region);
    } else {
      cluster.allreduce({0, p}, 8, region);
    }
    for (sim::Rank r = 0; r < p; ++r) {
      EXPECT_GE(cluster.clock(r),
                previous[static_cast<std::size_t>(r)] - 1e-15);
      previous[static_cast<std::size_t>(r)] = cluster.clock(r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterAccounting,
                         ::testing::Range(1, 11));

// --- Exchange schedules: one charging path, bitwise ----------------------

/// Everything a bulk exchange charges, compared bit for bit.
void expect_same_state(const sim::Cluster& a, const sim::Cluster& b,
                       const std::string& what) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  ASSERT_EQ(a.profile().num_regions(), b.profile().num_regions());
  for (sim::Rank r = 0; r < a.num_ranks(); ++r) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.clock(r)),
              std::bit_cast<std::uint64_t>(b.clock(r)))
        << what << ": clock of rank " << r;
    ASSERT_EQ(a.comm_bytes(r), b.comm_bytes(r)) << what << ": rank " << r;
    ASSERT_EQ(a.comm_messages(r), b.comm_messages(r))
        << what << ": rank " << r;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.comm_hidden_seconds(r)),
              std::bit_cast<std::uint64_t>(b.comm_hidden_seconds(r)))
        << what << ": hidden comm of rank " << r;
    for (std::size_t g = 0; g < a.profile().num_regions(); ++g) {
      const auto region = static_cast<sim::RegionId>(g);
      const sim::RegionTimes ta = a.profile().rank_region(r, region);
      const sim::RegionTimes tb = b.profile().rank_region(r, region);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ta.compute),
                std::bit_cast<std::uint64_t>(tb.compute))
          << what << ": rank " << r << " region " << g;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ta.comm),
                std::bit_cast<std::uint64_t>(tb.comm))
          << what << ": rank " << r << " region " << g;
    }
  }
}

/// Both clusters recorded the same events, bit for bit.
void expect_same_trace(const sim::Cluster& a, const sim::Cluster& b) {
  const auto& ea = a.trace()->events();
  const auto& eb = b.trace()->events();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].rank, eb[i].rank);
    EXPECT_EQ(ea[i].region, eb[i].region);
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ea[i].start),
              std::bit_cast<std::uint64_t>(eb[i].start));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ea[i].end),
              std::bit_cast<std::uint64_t>(eb[i].end));
  }
}

/// A random bulk round over several nodes: multi-message senders, intra-
/// and inter-node traffic, and ranks that both send and receive.
std::vector<sim::Message> random_round(Rng& rng, int p, int cores_per_node) {
  std::vector<sim::Message> msgs;
  const int senders = 1 + static_cast<int>(rng.uniform_index(
                              static_cast<std::uint64_t>(p / 2)));
  for (int s = 0; s < senders; ++s) {
    const auto src = static_cast<sim::Rank>(
        rng.uniform_index(static_cast<std::uint64_t>(p)));
    const int count = 1 + static_cast<int>(rng.uniform_index(4));
    for (int m = 0; m < count; ++m) {
      sim::Rank dst = src;
      if (rng.uniform() < 0.5) {
        // Same node (when the node has another rank).
        const int node_begin = src / cores_per_node * cores_per_node;
        const int node_size = std::min(cores_per_node, p - node_begin);
        dst = node_begin + static_cast<sim::Rank>(rng.uniform_index(
                               static_cast<std::uint64_t>(node_size)));
      } else {
        dst = static_cast<sim::Rank>(
            rng.uniform_index(static_cast<std::uint64_t>(p)));
      }
      if (dst != src) {
        msgs.push_back({src, dst, rng.uniform_index(1 << 20)});
      }
    }
  }
  return msgs;
}

/// The exchange recurrence of docs/SIMULATOR.md, written out per message
/// from the machine model alone, with no schedule and no branch-free
/// receive: the independent reference that Cluster::exchange must match
/// bit for bit, synchronous and overlapped.
struct ReferenceCluster {
  sim::MachineModel machine;
  std::vector<double> clock, work, halo, hidden;
  std::vector<std::size_t> bytes;
  std::vector<std::int64_t> messages;
  std::vector<sim::TraceEvent> waits;  ///< every positive wait, in order

  ReferenceCluster(const sim::MachineModel& m, int p)
      : machine(m),
        clock(static_cast<std::size_t>(p), 0.0),
        work(clock),
        halo(clock),
        hidden(clock),
        bytes(static_cast<std::size_t>(p), 0),
        messages(static_cast<std::size_t>(p), 0) {}

  void compute(sim::Rank r, double seconds) {
    clock[static_cast<std::size_t>(r)] += seconds;
    work[static_cast<std::size_t>(r)] += seconds;
  }

  void exchange(const std::vector<sim::Message>& msgs) {
    receive(msgs, post(msgs));
  }

  /// The overlapped form: post, snapshot every clock, run the window
  /// (rank ranks.begin + i computes window[i]), then receive while a
  /// synchronous counterfactual started from the snapshot advances by the
  /// same recurrence; each message hides max(0, sync_wait - real_wait).
  void exchange(const std::vector<sim::Message>& msgs, sim::RankRange ranks,
                const std::vector<double>& window) {
    const std::vector<double> arrival = post(msgs);
    std::vector<double> sync = clock;
    for (sim::Rank r = ranks.begin; r < ranks.end; ++r) {
      compute(r, window[static_cast<std::size_t>(r - ranks.begin)]);
    }
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      const auto dst = static_cast<std::size_t>(msgs[i].dst);
      const double sync_wait = std::max(0.0, arrival[i] - sync[dst]);
      const double real_wait = std::max(0.0, arrival[i] - clock[dst]);
      sync[dst] = std::max(sync[dst], arrival[i]) + machine.msg_overhead;
      hidden[dst] += std::max(0.0, sync_wait - real_wait);
      receive_one(msgs[i].dst, arrival[i]);
    }
  }

  /// The sender half: overheads, traffic, and each message's arrival.
  std::vector<double> post(const std::vector<sim::Message>& msgs) {
    const int cpn = machine.cores_per_node;
    std::vector<int> inter_per_node(
        clock.size() / static_cast<std::size_t>(cpn) + 1, 0);
    for (const sim::Message& m : msgs) {
      if (m.src / cpn != m.dst / cpn) {
        ++inter_per_node[static_cast<std::size_t>(m.src / cpn)];
      }
    }
    std::vector<double> arrival;
    for (const sim::Message& m : msgs) {
      const bool same_node = m.src / cpn == m.dst / cpn;
      double bw = machine.bandwidth(same_node);
      if (!same_node) {
        bw = std::min(bw, machine.node_injection_bw /
                              std::max(1, inter_per_node[static_cast<
                                              std::size_t>(m.src / cpn)]));
      }
      const auto src = static_cast<std::size_t>(m.src);
      bytes[src] += m.bytes;
      ++messages[src];
      const double sent = clock[src] + machine.msg_overhead;
      clock[src] = sent;
      halo[src] += machine.msg_overhead;
      arrival.push_back((sent + machine.latency(same_node)) +
                        static_cast<double>(m.bytes) / bw);
    }
    return arrival;
  }

  void receive(const std::vector<sim::Message>& msgs,
               const std::vector<double>& arrival) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      receive_one(msgs[i].dst, arrival[i]);
    }
  }

  void receive_one(sim::Rank rank, double arrival) {
    const auto dst = static_cast<std::size_t>(rank);
    if (arrival > clock[dst]) {
      waits.push_back({rank, 0, sim::TraceKind::kComm, clock[dst], arrival});
      halo[dst] += arrival - clock[dst];
      clock[dst] = arrival;
    }
    clock[dst] += machine.msg_overhead;
    halo[dst] += machine.msg_overhead;
  }

  /// Compares everything `cluster` charged to regions "work" and "halo".
  void expect_matches(const sim::Cluster& cluster,
                      const std::string& what) const {
    const sim::RegionId work_id = cluster.profile().find_region("work");
    const sim::RegionId halo_id = cluster.profile().find_region("halo");
    for (sim::Rank r = 0; r < cluster.num_ranks(); ++r) {
      const auto i = static_cast<std::size_t>(r);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cluster.clock(r)),
                std::bit_cast<std::uint64_t>(clock[i]))
          << what << ": clock of rank " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    cluster.profile().rank_region(r, work_id).compute),
                std::bit_cast<std::uint64_t>(work[i]))
          << what << ": work of rank " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(
                    cluster.profile().rank_region(r, halo_id).comm),
                std::bit_cast<std::uint64_t>(halo[i]))
          << what << ": halo comm of rank " << r;
      ASSERT_EQ(cluster.comm_bytes(r), bytes[i]) << what << ": rank " << r;
      ASSERT_EQ(cluster.comm_messages(r), messages[i])
          << what << ": rank " << r;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(cluster.comm_hidden_seconds(r)),
                std::bit_cast<std::uint64_t>(hidden[i]))
          << what << ": hidden comm of rank " << r;
    }
  }

  /// The trace of `cluster` must hold exactly the positive waits.
  void expect_trace_is_the_waits(const sim::Cluster& cluster) const {
    const sim::RegionId halo_id = cluster.profile().find_region("halo");
    std::vector<sim::TraceEvent> comm;
    for (const sim::TraceEvent& e : cluster.trace()->events()) {
      if (e.kind == sim::TraceKind::kComm) {
        comm.push_back(e);
      }
    }
    ASSERT_EQ(comm.size(), waits.size());
    for (std::size_t i = 0; i < comm.size(); ++i) {
      EXPECT_EQ(comm[i].rank, waits[i].rank) << "wait " << i;
      EXPECT_EQ(comm[i].region, halo_id) << "wait " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(comm[i].start),
                std::bit_cast<std::uint64_t>(waits[i].start))
          << "wait " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(comm[i].end),
                std::bit_cast<std::uint64_t>(waits[i].end))
          << "wait " << i;
    }
  }
};

/// Number of maximal runs of consecutive messages from `src`.
int sender_runs(const std::vector<sim::Message>& msgs, sim::Rank src) {
  int runs = 0;
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    if (msgs[i].src == src && (i == 0 || msgs[i - 1].src != src)) {
      ++runs;
    }
  }
  return runs;
}

class ScheduleEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(ScheduleEquivalence, ExchangeMatchesTheDocumentedRecurrence) {
  // Every exchange form shares one sender loop and one receiver loop, so
  // comparing the forms with each other cannot see a change in those
  // loops. This pins them to the recurrence itself, on a traced and an
  // untraced cluster, with one sender split into two separate runs.
  const auto [seed, slow] = GetParam();
  const sim::MachineModel machine =
      slow ? sim::MachineModel::slow_network() : sim::MachineModel::archer2();
  Rng rng(static_cast<std::uint64_t>(seed) * 7919);
  const int p = machine.cores_per_node +
                static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(4 * machine.cores_per_node)));
  std::vector<sim::Message> msgs = random_round(rng, p, machine.cores_per_node);
  const sim::Rank again = msgs.empty() ? 0 : msgs.front().src;
  msgs.push_back({(again + 1) % p, again, 64});
  msgs.push_back({again, (again + 2) % p, 1 << 16});
  ASSERT_GE(sender_runs(msgs, again), 2);

  ReferenceCluster reference(machine, p);
  sim::Cluster plain(machine, p);
  sim::Cluster traced(machine, p);
  traced.enable_tracing();
  const sim::ExchangeSchedule plain_schedule = plain.make_schedule(msgs);
  const sim::ExchangeSchedule traced_schedule = traced.make_schedule(msgs);
  for (int round = 0; round < 4; ++round) {
    for (sim::Rank r = 0; r < p; ++r) {
      const double seconds = rng.uniform(0.0, 1e-4);
      reference.compute(r, seconds);
      plain.compute_seconds(r, seconds, plain.region("work"));
      traced.compute_seconds(r, seconds, traced.region("work"));
    }
    reference.exchange(msgs);
    plain.exchange(plain_schedule, plain.region("halo"));
    traced.exchange(traced_schedule, traced.region("halo"));
  }
  reference.expect_matches(plain, "untraced");
  reference.expect_matches(traced, "traced");
  expect_same_state(plain, traced, "traced vs untraced");
  ASSERT_FALSE(reference.waits.empty());
  reference.expect_trace_is_the_waits(traced);
}

TEST_P(ScheduleEquivalence, EveryExchangeFormChargesTheSameBits) {
  // A schedule built once and charged every round, and the overlapped
  // form with an empty window (on a schedule built every round and on one
  // built once) must leave identical clocks, profile, traffic counters
  // and hidden-comm totals.
  const auto [seed, slow] = GetParam();
  const sim::MachineModel machine =
      slow ? sim::MachineModel::slow_network() : sim::MachineModel::archer2();
  Rng rng(static_cast<std::uint64_t>(seed) * 104729);
  const int p = machine.cores_per_node +
                static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(4 * machine.cores_per_node)));
  sim::Cluster by_schedule(machine, p);
  sim::Cluster by_overlap(machine, p);
  sim::Cluster by_overlap_schedule(machine, p);
  sim::Cluster* clusters[] = {&by_schedule, &by_overlap,
                              &by_overlap_schedule};
  const std::vector<sim::Message> msgs =
      random_round(rng, p, machine.cores_per_node);
  const sim::ExchangeSchedule schedule = by_schedule.make_schedule(msgs);
  const sim::ExchangeSchedule overlap_schedule =
      by_overlap_schedule.make_schedule(msgs);

  for (int round = 0; round < 4; ++round) {
    // Uneven entry clocks, so waits and serialised overheads differ.
    for (sim::Rank r = 0; r < p; ++r) {
      const double seconds = rng.uniform(0.0, 1e-4);
      for (sim::Cluster* c : clusters) {
        c->compute_seconds(r, seconds, c->region("work"));
      }
    }
    by_schedule.exchange(schedule, by_schedule.region("halo"));
    by_overlap.exchange(by_overlap.make_schedule(msgs),
                        by_overlap.region("halo"), {});
    by_overlap_schedule.exchange(overlap_schedule,
                                 by_overlap_schedule.region("halo"), {});
  }
  expect_same_state(by_schedule, by_overlap, "schedule vs empty window");
  expect_same_state(by_schedule, by_overlap_schedule,
                    "schedule vs scheduled empty window");
  EXPECT_EQ(by_schedule.comm_hidden_seconds({0, p}), 0.0);
}

TEST_P(ScheduleEquivalence, OverlappedExchangeMatchesTheDocumentedRecurrence) {
  // The overlapped form pinned to the reference recurrence on random
  // rounds: clocks, profile, traffic and hidden comm, traced and
  // untraced. Each window covers senders, receivers and ranks that
  // receive nothing, with some ranks computing nothing in it.
  const auto [seed, slow] = GetParam();
  const sim::MachineModel machine =
      slow ? sim::MachineModel::slow_network() : sim::MachineModel::archer2();
  Rng rng(static_cast<std::uint64_t>(seed) * 6700417);
  const int p = machine.cores_per_node +
                static_cast<int>(rng.uniform_index(
                    static_cast<std::uint64_t>(4 * machine.cores_per_node)));
  const std::vector<sim::Message> msgs =
      random_round(rng, p, machine.cores_per_node);
  const auto trim = [&] {
    return static_cast<sim::Rank>(
        rng.uniform_index(static_cast<std::uint64_t>(p / 4)));
  };
  const sim::RankRange ranks{trim(), p - trim()};
  std::vector<bool> receives(static_cast<std::size_t>(p), false);
  bool window_sends = false;
  for (const sim::Message& m : msgs) {
    receives[static_cast<std::size_t>(m.dst)] = true;
    window_sends = window_sends || ranks.contains(m.src);
  }
  ASSERT_TRUE(window_sends);
  ASSERT_TRUE(std::find(receives.begin() + ranks.begin,
                        receives.begin() + ranks.end,
                        false) != receives.begin() + ranks.end);

  ReferenceCluster reference(machine, p);
  sim::Cluster plain(machine, p);
  sim::Cluster traced(machine, p);
  traced.enable_tracing();
  const sim::ExchangeSchedule plain_schedule = plain.make_schedule(msgs);
  const sim::ExchangeSchedule traced_schedule = traced.make_schedule(msgs);
  std::vector<double> window(static_cast<std::size_t>(ranks.size()));
  for (int round = 0; round < 4; ++round) {
    for (sim::Rank r = 0; r < p; ++r) {
      const double seconds = rng.uniform(0.0, 1e-4);
      reference.compute(r, seconds);
      plain.compute_seconds(r, seconds, plain.region("work"));
      traced.compute_seconds(r, seconds, traced.region("work"));
    }
    for (double& s : window) {
      s = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 2e-4);
    }
    reference.exchange(msgs, ranks, window);
    plain.exchange(plain_schedule, plain.region("halo"),
                   {ranks, window, plain.region("work")});
    traced.exchange(traced_schedule, traced.region("halo"),
                    {ranks, window, traced.region("work")});
  }
  reference.expect_matches(plain, "untraced");
  reference.expect_matches(traced, "traced");
  expect_same_state(plain, traced, "traced vs untraced");
  ASSERT_FALSE(reference.waits.empty());
  reference.expect_trace_is_the_waits(traced);
  EXPECT_GT(plain.comm_hidden_seconds({0, p}), 0.0);
}

TEST_P(ScheduleEquivalence, RangeChargesMatchThePerRankLoop) {
  // compute_seconds / comm_delay over a rank range charge exactly what the
  // per-rank calls charge, in the same order: clocks, profile rows and
  // the recorded trace events.
  const auto [seed, slow] = GetParam();
  const sim::MachineModel machine =
      slow ? sim::MachineModel::slow_network() : sim::MachineModel::archer2();
  Rng rng(static_cast<std::uint64_t>(seed) * 15485863);
  const int p = 8 + static_cast<int>(rng.uniform_index(200));
  const sim::RankRange range{
      static_cast<sim::Rank>(rng.uniform_index(4)),
      p - static_cast<sim::Rank>(rng.uniform_index(4))};
  std::vector<double> seconds(static_cast<std::size_t>(range.size()));
  sim::Cluster by_range(machine, p);
  sim::Cluster by_rank(machine, p);
  by_range.enable_tracing();
  by_rank.enable_tracing();
  for (int round = 0; round < 3; ++round) {
    for (double& s : seconds) {
      s = rng.uniform() < 0.1 ? 0.0 : rng.uniform(0.0, 1e-3);
    }
    by_range.compute_seconds(range, seconds, by_range.region("work"));
    for (sim::Rank r = range.begin; r < range.end; ++r) {
      by_rank.compute_seconds(
          r, seconds[static_cast<std::size_t>(r - range.begin)],
          by_rank.region("work"));
    }
    by_range.comm_delay(range, seconds, by_range.region("delay"));
    for (sim::Rank r = range.begin; r < range.end; ++r) {
      by_rank.comm_delay(r, seconds[static_cast<std::size_t>(r - range.begin)],
                         by_rank.region("delay"));
    }
  }
  expect_same_state(by_range, by_rank, "range vs per-rank charges");
  expect_same_trace(by_range, by_rank);

  // A failure armed at a middle rank: the range charge throws there,
  // after charging exactly the ranks before it, like the per-rank loop.
  // comm_delay does not model a failure (per rank or over a range).
  const sim::Rank victim = range.begin + range.size() / 2;
  for (sim::Cluster* c : {&by_range, &by_rank}) {
    c->inject_failure(victim, 2);
    c->begin_step(2);
  }
  bool range_threw = false;
  try {
    by_range.compute_seconds(range, seconds, by_range.region("work"));
  } catch (const sim::RankFailure& failure) {
    range_threw = true;
    EXPECT_EQ(failure.rank(), victim);
  }
  bool rank_threw = false;
  try {
    for (sim::Rank r = range.begin; r < range.end; ++r) {
      by_rank.compute_seconds(
          r, seconds[static_cast<std::size_t>(r - range.begin)],
          by_rank.region("work"));
    }
  } catch (const sim::RankFailure& failure) {
    rank_threw = true;
    EXPECT_EQ(failure.rank(), victim);
  }
  EXPECT_TRUE(range_threw);
  EXPECT_TRUE(rank_threw);
  by_range.comm_delay(range, seconds, by_range.region("delay"));
  for (sim::Rank r = range.begin; r < range.end; ++r) {
    by_rank.comm_delay(r, seconds[static_cast<std::size_t>(r - range.begin)],
                       by_rank.region("delay"));
  }
  expect_same_state(by_range, by_rank, "range vs per-rank, failure armed");
  expect_same_trace(by_range, by_rank);

  // The uniform overload charges what the per-rank loop charges for one
  // value, and throws at the same rank when a failure is armed there.
  sim::Cluster uniform(machine, p);
  sim::Cluster per_rank(machine, p);
  uniform.enable_tracing();
  per_rank.enable_tracing();
  const double value = rng.uniform(0.0, 1e-3);
  const auto charge_per_rank = [&] {
    for (sim::Rank r = range.begin; r < range.end; ++r) {
      per_rank.compute_seconds(r, value, per_rank.region("work"));
    }
  };
  for (int round = 0; round < 3; ++round) {
    uniform.compute_seconds(range, value, uniform.region("work"));
    charge_per_rank();
  }
  for (sim::Cluster* c : {&uniform, &per_rank}) {
    c->inject_failure(victim, 2);
    c->begin_step(2);
  }
  EXPECT_THROW(uniform.compute_seconds(range, value, uniform.region("work")),
               sim::RankFailure);
  EXPECT_THROW(charge_per_rank(), sim::RankFailure);
  expect_same_state(uniform, per_rank, "uniform vs per-rank charges");
  expect_same_trace(uniform, per_rank);
  EXPECT_GT(uniform.clock(victim - 1), uniform.clock(victim));
}

TEST(ExchangeSchedules, ArrivalTiedWithTheReceiverClockWaitsNothing) {
  // Rank 0 sends one message to each of ranks 1-3 on its node. Rank 2's
  // clock equals the arrival exactly, rank 1's lies one ulp before it and
  // rank 3's one ulp after: only rank 1 waits, and only its wait is traced.
  const sim::MachineModel machine = sim::MachineModel::archer2();
  const std::vector<sim::Message> msgs = {{0, 1, 4096}, {0, 2, 4096},
                                          {0, 3, 4096}};
  for (const bool trace : {false, true}) {
    sim::Cluster cluster(machine, 4);
    ReferenceCluster reference(machine, 4);
    if (trace) {
      cluster.enable_tracing();
    }
    const double transfer = 4096.0 / machine.bw_intra;
    const double o = machine.msg_overhead;
    const double arrivals[] = {(o + machine.lat_intra) + transfer,
                               ((o + o) + machine.lat_intra) + transfer,
                               (((o + o) + o) + machine.lat_intra) + transfer};
    const double entry[] = {std::nextafter(arrivals[0], 0.0), arrivals[1],
                            std::nextafter(arrivals[2], 1.0)};
    for (sim::Rank r = 1; r <= 3; ++r) {
      const double seconds = entry[r - 1];
      cluster.compute_seconds(r, seconds, cluster.region("work"));
      reference.compute(r, seconds);
    }
    cluster.exchange(cluster.make_schedule(msgs), cluster.region("halo"));
    reference.exchange(msgs);
    reference.expect_matches(cluster, trace ? "traced" : "untraced");
    ASSERT_EQ(reference.waits.size(), 1u);
    EXPECT_EQ(reference.waits[0].rank, 1);
    EXPECT_EQ(cluster.clock(2), arrivals[1] + o);
    EXPECT_EQ(cluster.clock(3), entry[2] + o);
    if (trace) {
      reference.expect_trace_is_the_waits(cluster);
    }
  }
}

TEST(ExchangeSchedules, RankThatReceivesBeforeItSendsUsesItsPostTimeClock) {
  // Rank R sends a run of messages, then receives two late ones that move
  // its clock far ahead, then sends a second run that ends the list. Its
  // second run leaves at the clock it had when the exchange was posted,
  // plus one overhead per message before it, not at the clock its receives
  // left it at: synchronous and overlapped, bit for bit.
  const sim::MachineModel machine = sim::MachineModel::archer2();
  const int cpn = machine.cores_per_node;
  const int p = cpn + 4;
  const sim::Rank r = 1;
  const std::vector<sim::Message> msgs = {
      {r, 2, 4096},   {r, cpn + 1, 1 << 16},  // R's first run
      {0, r, 1 << 20}, {cpn, r, 8192},        // R receives late
      {r, 3, 256},    {r, cpn + 2, 2048}};    // R's second run ends the list
  ASSERT_EQ(sender_runs(msgs, r), 2);
  std::vector<double> window(static_cast<std::size_t>(p));
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = 1e-6 * static_cast<double>(i % 7);
  }
  for (const bool overlapped : {false, true}) {
    ReferenceCluster reference(machine, p);
    sim::Cluster cluster(machine, p);
    const sim::ExchangeSchedule schedule = cluster.make_schedule(msgs);
    for (int round = 0; round < 3; ++round) {
      // The senders to R run well ahead of it, so it waits for them.
      for (const sim::Rank s : {0, cpn}) {
        reference.compute(s, 1e-3);
        cluster.compute_seconds(s, 1e-3, cluster.region("work"));
      }
      if (overlapped) {
        reference.exchange(msgs, {0, p}, window);
        cluster.exchange(schedule, cluster.region("halo"),
                         {{0, p}, window, cluster.region("work")});
      } else {
        reference.exchange(msgs);
        cluster.exchange(schedule, cluster.region("halo"));
      }
    }
    // R waits for its senders, and the ranks its second run reaches wait
    // for R, so a second run sent at any other clock shows.
    for (const sim::Rank waiter : {r, 3, cpn + 2}) {
      ASSERT_TRUE(std::any_of(
          reference.waits.begin(), reference.waits.end(),
          [&](const sim::TraceEvent& wait) { return wait.rank == waiter; }))
          << "rank " << waiter << " never waits";
    }
    reference.expect_matches(cluster, overlapped ? "overlapped" : "sync");
  }
}

TEST(ExchangeSchedules, ArmedFailureRefusesTheWholeExchange) {
  // Three senders, the middle one armed: the exchange throws at it and
  // charges nothing, not even the traffic of the sender listed before it,
  // synchronous and overlapped. A failing window rank that sends nothing
  // refuses an overlapped exchange the same way. Once the failure is
  // cleared, the exchange charges what it charges on a cluster that was
  // never armed.
  const sim::MachineModel machine = sim::MachineModel::archer2();
  constexpr int p = 6;
  const std::vector<sim::Message> msgs = {
      {0, 3, 4096}, {1, 4, 512}, {1, 5, 64}, {2, 5, 8192}};
  const std::vector<double> window(p, 1e-5);
  struct Case {
    bool overlapped;
    sim::Rank victim;
  };
  for (const Case c : {Case{false, 1}, Case{true, 1}, Case{true, 4}}) {
    const std::string what = std::string(c.overlapped ? "overlapped" : "sync") +
                             ", rank " + std::to_string(c.victim) + " armed";
    sim::Cluster armed(machine, p);
    sim::Cluster never_armed(machine, p);
    const auto run = [&](sim::Cluster& cluster,
                         const sim::ExchangeSchedule& schedule) {
      if (c.overlapped) {
        cluster.exchange(schedule, cluster.region("halo"),
                         {{0, p}, window, cluster.region("work")});
      } else {
        cluster.exchange(schedule, cluster.region("halo"));
      }
    };
    for (sim::Cluster* cluster : {&armed, &never_armed}) {
      for (sim::Rank r = 0; r < p; ++r) {
        cluster->compute_seconds(r, 1e-6 * (r + 1), cluster->region("work"));
      }
      cluster->region("halo");
      cluster->begin_step(2);
    }
    armed.inject_failure(c.victim, 2);
    const sim::ExchangeSchedule armed_schedule = armed.make_schedule(msgs);
    bool threw = false;
    try {
      run(armed, armed_schedule);
    } catch (const sim::RankFailure& failure) {
      threw = true;
      EXPECT_EQ(failure.rank(), c.victim) << what;
    }
    EXPECT_TRUE(threw) << what;
    expect_same_state(armed, never_armed, what);

    armed.clear_failure();
    run(armed, armed_schedule);
    run(never_armed, never_armed.make_schedule(msgs));
    expect_same_state(armed, never_armed, what + ", then cleared");
  }
}

TEST(ExchangeSchedules, RangeChargeRejectsAMismatchedSpan) {
  sim::Cluster cluster(sim::MachineModel::archer2(), 8);
  const std::vector<double> seconds(3, 1e-3);
  const sim::RegionId region = cluster.region("work");
  EXPECT_THROW(cluster.compute_seconds({0, 4}, seconds, region), CheckError);
  EXPECT_THROW(cluster.comm_delay({6, 9}, seconds, region), CheckError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleEquivalence,
                         ::testing::Combine(::testing::Range(1, 9),
                                            ::testing::Bool()));

TEST(ExchangeSchedules, ScheduleFromAnotherClusterIsRejected) {
  sim::Cluster a(sim::MachineModel::archer2(), 4);
  sim::Cluster b(sim::MachineModel::archer2(), 4);
  const std::vector<sim::Message> msgs = {{0, 1, 64}};
  const sim::ExchangeSchedule schedule = a.make_schedule(msgs);
  EXPECT_NE(a.id(), b.id());
  EXPECT_THROW(b.exchange(schedule, b.region("x")), CheckError);
}

// --- Bound instances: rebinding to another cluster -----------------------

/// Steps `app` alternately on two clusters of different machines and
/// region layouts, then on a cluster constructed in place of a destroyed
/// one (same address), and compares each against a fresh instance that
/// only ever saw one cluster. A per-cluster cache that survived the switch
/// (or was keyed on the cluster's address) charges the wrong regions or
/// machine and fails.
template <typename MakeApp>
void expect_rebinding_matches_fresh(const MakeApp& make_app, int p) {
  const sim::MachineModel machines[2] = {sim::MachineModel::archer2(),
                                         sim::MachineModel::slow_network()};
  // Region ids differ between the two machines' clusters.
  const auto make_cluster = [&](sim::Cluster* c, int k) {
    for (int extra = 0; extra <= k; ++extra) {
      c->region("other/" + std::to_string(extra));
    }
  };
  const auto app = make_app();
  sim::Cluster shared_0(machines[0], p);
  sim::Cluster shared_1(machines[1], p);
  sim::Cluster fresh_0(machines[0], p);
  sim::Cluster fresh_1(machines[1], p);
  sim::Cluster* shared[2] = {&shared_0, &shared_1};
  sim::Cluster* fresh[2] = {&fresh_0, &fresh_1};
  decltype(make_app()) fresh_apps[2] = {make_app(), make_app()};
  for (int k = 0; k < 2; ++k) {
    make_cluster(shared[k], k);
    make_cluster(fresh[k], k);
  }
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 2; ++k) {
      app->step(*shared[k]);
      fresh_apps[k]->step(*fresh[k]);
      expect_same_state(*shared[k], *fresh[k],
                        app->name() + " round " + std::to_string(round) +
                            " machine " + std::to_string(k));
    }
  }

  // The slot's second cluster is built where the first one lived.
  std::optional<sim::Cluster> slot;
  for (int k = 0; k < 2; ++k) {
    slot.emplace(machines[k], p);
    make_cluster(&*slot, k);
    sim::Cluster reference(machines[k], p);
    make_cluster(&reference, k);
    const auto fresh_app = make_app();
    app->step(*slot);
    fresh_app->step(reference);
    expect_same_state(*slot, reference,
                      app->name() + " in-place cluster " + std::to_string(k));
  }
}

TEST(BoundInstances, MgcfdRebindsPerCluster) {
  for (const bool overlap : {false, true}) {
    expect_rebinding_matches_fresh(
        [overlap] {
          auto app = std::make_unique<mgcfd::Instance>(
              "row", 2'000'000, sim::RankRange{3, 3 + 300});
          app->set_overlap(overlap);
          return app;
        },
        310);
  }
}

TEST(BoundInstances, SimpicRebindsPerCluster) {
  expect_rebinding_matches_fresh(
      [] {
        return std::make_unique<simpic::Instance>(
            "pic", simpic::base_stc_28m(), sim::RankRange{5, 5 + 400},
            simpic::WorkModel{}, 2.5);
      },
      410);
}

/// Steps `step` on a plain cluster, a traced one and one with a failure
/// armed for a later step; all three must charge the same bits.
template <typename Step>
void expect_traced_armed_and_plain_agree(const Step& step, int p,
                                         const std::string& what) {
  for (const sim::MachineModel& machine :
       {sim::MachineModel::archer2(), sim::MachineModel::slow_network()}) {
    sim::Cluster plain(machine, p);
    sim::Cluster traced(machine, p);
    sim::Cluster armed(machine, p);
    traced.enable_tracing();
    armed.inject_failure(p / 2, 1000);
    for (sim::Cluster* c : {&plain, &traced, &armed}) {
      step(*c);
    }
    expect_same_state(plain, traced, what + ": traced");
    expect_same_state(plain, armed, what + ": failure armed");
    EXPECT_FALSE(traced.trace()->events().empty()) << what;
  }
}

TEST(BoundInstances, TracedArmedAndPlainClustersChargeTheSameBits) {
  for (const bool overlap : {false, true}) {
    mgcfd::Instance row("row", 3'000'000, sim::RankRange{2, 2 + 250});
    row.set_overlap(overlap);
    expect_traced_armed_and_plain_agree(
        [&](sim::Cluster& c) {
          for (int s = 0; s < 3; ++s) {
            row.step(c);
          }
        },
        260, std::string("mgcfd analytic overlap=") + (overlap ? "1" : "0"));
  }

  const mesh::UnstructuredMesh box = mesh::make_box_mesh(10, 10, 10);
  mgcfd::Instance measured("measured", box, mesh::partition_rcb(box, 12),
                           sim::RankRange{1, 13});
  expect_traced_armed_and_plain_agree(
      [&](sim::Cluster& c) {
        for (int s = 0; s < 3; ++s) {
          measured.step(c);
        }
      },
      14, "mgcfd measured");

  simpic::Instance pic("pic", simpic::base_stc_28m(),
                       sim::RankRange{3, 3 + 300}, simpic::WorkModel{}, 2.5);
  expect_traced_armed_and_plain_agree(
      [&](sim::Cluster& c) {
        for (int s = 0; s < 3; ++s) {
          pic.step(c);
        }
      },
      310, "simpic");

  mgcfd::Instance side_a("side_a", 400'000, sim::RankRange{0, 40});
  mgcfd::Instance side_b("side_b", 300'000, sim::RankRange{48, 80});
  coupler::UnitConfig config;
  config.interface_cells = 20'000;
  coupler::CouplerUnit unit("cu", config, sim::RankRange{40, 48}, side_a,
                            side_b);
  expect_traced_armed_and_plain_agree(
      [&](sim::Cluster& c) {
        for (int s = 0; s < 2; ++s) {
          side_a.step(c);
          side_b.step(c);
          unit.exchange(c);
        }
      },
      80, "coupler unit");
}

// --- Allocator feasibility and quality ----------------------------------

class AllocatorProperties : public ::testing::TestWithParam<int> {};

perfmodel::InstanceModel random_model(Rng& rng, const std::string& name) {
  std::vector<perfmodel::ScalingPoint> pts;
  const double a = rng.uniform(10.0, 5000.0);
  const double b = rng.uniform(0.0, 0.01);
  const double d = rng.uniform() < 0.3 ? rng.uniform(0.0, 1e-4) : 0.0;
  for (double p = 16; p <= 60000; p *= 2) {
    pts.push_back({p, a / p + b + d * p});
  }
  perfmodel::InstanceModel m;
  m.name = name;
  m.curve = perfmodel::ScalingCurve::fit(pts);
  m.scale = rng.uniform(1.0, 50.0);
  m.min_ranks = 1 + static_cast<int>(rng.uniform_index(50));
  return m;
}

TEST_P(AllocatorProperties, FeasibleBalancedAndBeatsEqualSplit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  const int n_apps = 2 + static_cast<int>(rng.uniform_index(10));
  std::vector<perfmodel::InstanceModel> apps;
  for (int i = 0; i < n_apps; ++i) {
    apps.push_back(random_model(rng, "app" + std::to_string(i)));
  }
  const int budget =
      n_apps * 60 + static_cast<int>(rng.uniform_index(20000));
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(apps, {}, budget);

  // Feasibility: within budget and per-instance bounds.
  int used = 0;
  for (int i = 0; i < n_apps; ++i) {
    EXPECT_GE(alloc.app_ranks[static_cast<std::size_t>(i)],
              apps[static_cast<std::size_t>(i)].min_ranks);
    EXPECT_LE(alloc.app_ranks[static_cast<std::size_t>(i)],
              apps[static_cast<std::size_t>(i)].max_ranks);
    used += alloc.app_ranks[static_cast<std::size_t>(i)];
  }
  EXPECT_LE(used, budget);

  // Reported runtime is the actual max over instances.
  double worst = 0.0;
  for (int i = 0; i < n_apps; ++i) {
    worst = std::max(worst,
                     apps[static_cast<std::size_t>(i)].time(
                         alloc.app_ranks[static_cast<std::size_t>(i)]));
  }
  EXPECT_NEAR(alloc.app_time, worst, 1e-9 * worst);

  // Quality: greedy never loses to the equal split (both respecting the
  // same minima).
  std::vector<int> equal(static_cast<std::size_t>(n_apps), budget / n_apps);
  double equal_worst = 0.0;
  for (int i = 0; i < n_apps; ++i) {
    const auto& m = apps[static_cast<std::size_t>(i)];
    const int r = std::clamp(equal[static_cast<std::size_t>(i)],
                             m.min_ranks, m.max_ranks);
    equal_worst = std::max(equal_worst, m.time(r));
  }
  EXPECT_LE(alloc.app_time, equal_worst * (1.0 + 1e-9));
}

/// Alg 1 as it was written before distribute_ranks cached the curve
/// times: every iteration re-evaluates every component's time() at its
/// current rank count. The cached loop must give the same plan, bitwise.
perfmodel::Allocation reference_greedy(
    std::span<const perfmodel::InstanceModel> apps,
    std::span<const perfmodel::InstanceModel> cus, int total_ranks) {
  const auto slowest = [](std::span<const perfmodel::InstanceModel> models,
                          const std::vector<int>& ranks) {
    int worst = -1;
    double worst_time = -1.0;
    for (std::size_t i = 0; i < models.size(); ++i) {
      const double t = models[i].time(ranks[i]);
      if (t > worst_time) {
        worst_time = t;
        worst = static_cast<int>(i);
      }
    }
    return worst;
  };
  const auto gain = [](const perfmodel::InstanceModel& m, int cores) {
    if (cores + 1 > m.max_ranks) {
      return 0.0;
    }
    return m.time(cores) - m.time(cores + 1);
  };
  perfmodel::Allocation alloc;
  int used = 0;
  for (const auto& m : apps) {
    alloc.app_ranks.push_back(m.min_ranks);
    used += m.min_ranks;
  }
  for (const auto& m : cus) {
    alloc.cu_ranks.push_back(m.min_ranks);
    used += m.min_ranks;
  }
  for (int remaining = total_ranks - used; remaining > 0; --remaining) {
    const int app_i = slowest(apps, alloc.app_ranks);
    const int cu_i = cus.empty() ? -1 : slowest(cus, alloc.cu_ranks);
    const double app_gain =
        app_i >= 0 ? gain(apps[static_cast<std::size_t>(app_i)],
                          alloc.app_ranks[static_cast<std::size_t>(app_i)])
                   : 0.0;
    const double cu_gain =
        cu_i >= 0 ? gain(cus[static_cast<std::size_t>(cu_i)],
                         alloc.cu_ranks[static_cast<std::size_t>(cu_i)])
                  : 0.0;
    if (cu_i >= 0 && cu_gain > app_gain && cu_gain > 0.0) {
      ++alloc.cu_ranks[static_cast<std::size_t>(cu_i)];
    } else if (app_gain > 0.0) {
      ++alloc.app_ranks[static_cast<std::size_t>(app_i)];
    } else if (cu_i >= 0 && cu_gain > 0.0) {
      ++alloc.cu_ranks[static_cast<std::size_t>(cu_i)];
    } else {
      break;
    }
  }
  for (std::size_t i = 0; i < apps.size(); ++i) {
    alloc.app_time = std::max(alloc.app_time, apps[i].time(alloc.app_ranks[i]));
  }
  for (std::size_t i = 0; i < cus.size(); ++i) {
    alloc.cu_time = std::max(alloc.cu_time, cus[i].time(alloc.cu_ranks[i]));
  }
  alloc.predicted_runtime = alloc.app_time + alloc.cu_time;
  alloc.total_ranks = total_ranks;
  return alloc;
}

void expect_same_plan(std::span<const perfmodel::InstanceModel> apps,
                      std::span<const perfmodel::InstanceModel> cus,
                      int budget, const std::string& what) {
  const perfmodel::Allocation got =
      perfmodel::distribute_ranks(apps, cus, budget);
  const perfmodel::Allocation want = reference_greedy(apps, cus, budget);
  EXPECT_EQ(got.app_ranks, want.app_ranks) << what;
  EXPECT_EQ(got.cu_ranks, want.cu_ranks) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.app_time),
            std::bit_cast<std::uint64_t>(want.app_time))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cu_time),
            std::bit_cast<std::uint64_t>(want.cu_time))
      << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.predicted_runtime),
            std::bit_cast<std::uint64_t>(want.predicted_runtime))
      << what;
}

/// The Fig 8 (5,000 cores) and Fig 9 Base / Optimized (40,000 cores)
/// model sets, built once for every seed.
struct PaperModels {
  workflow::CaseModels models;
  int budget = 0;
  std::string name;
};

const std::vector<PaperModels>& paper_models() {
  static const std::vector<PaperModels> cases = [] {
    const auto machine = sim::MachineModel::archer2();
    workflow::ModelOptions fig8;
    fig8.app_sweep = {100, 200, 400, 800, 1600, 3200, 5000};
    std::vector<PaperModels> out;
    out.push_back({workflow::build_case_models(
                       workflow::small_validation_case(), machine, fig8),
                   5000, "fig8"});
    for (const bool optimized : {false, true}) {
      out.push_back({workflow::build_case_models(
                         workflow::hpc_combustor_hpt(optimized), machine),
                     40000, optimized ? "fig9-optimized" : "fig9-base"});
    }
    return out;
  }();
  return cases;
}

TEST_P(AllocatorProperties, CachedGreedyMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104723);
  // Random classes: caps that bind, coupler units that dominate the
  // apps (scaled up), and budgets beyond what the caps can absorb.
  std::vector<perfmodel::InstanceModel> apps;
  std::vector<perfmodel::InstanceModel> cus;
  const int n_apps = 1 + static_cast<int>(rng.uniform_index(8));
  const int n_cus = static_cast<int>(rng.uniform_index(5));
  for (int i = 0; i < n_apps; ++i) {
    apps.push_back(random_model(rng, "app" + std::to_string(i)));
    if (rng.uniform() < 0.4) {
      apps.back().max_ranks =
          apps.back().min_ranks + static_cast<int>(rng.uniform_index(400));
    }
  }
  for (int i = 0; i < n_cus; ++i) {
    cus.push_back(random_model(rng, "cu" + std::to_string(i)));
    cus.back().scale *= rng.uniform() < 0.5 ? 100.0 : 1.0;
    cus.back().max_ranks =
        cus.back().min_ranks + static_cast<int>(rng.uniform_index(300));
  }
  int minima = 0;
  for (const auto* group : {&apps, &cus}) {
    for (const auto& m : *group) {
      minima += m.min_ranks;
    }
  }
  for (const int extra : {0, 1, 37, 5000, 30000}) {
    expect_same_plan(apps, cus, minima + extra,
                     "random budget +" + std::to_string(extra));
  }

  // The paper's cases at their own budget and at a seeded other one.
  for (const PaperModels& pm : paper_models()) {
    expect_same_plan(pm.models.apps, pm.models.cus, pm.budget, pm.name);
    const int budget = 2000 + static_cast<int>(rng.uniform_index(60000));
    expect_same_plan(pm.models.apps, pm.models.cus, budget,
                     pm.name + " at " + std::to_string(budget));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorProperties,
                         ::testing::Range(1, 21));

// --- Analytic partition model bounds -------------------------------------

class PartitionModelBounds
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PartitionModelBounds, AnalyticTracksMeasuredHalo) {
  const auto [side, parts] = GetParam();
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(side, side, side);
  const mesh::PartitionStats measured =
      testing::measure_partition_stats(m, mesh::partition_rcb(m, parts));
  const mesh::PartitionStats analytic =
      mesh::PartitionStats::analytic(m.num_cells(), parts);
  EXPECT_NEAR(analytic.owned_mean, measured.owned_mean,
              0.01 * measured.owned_mean);
  EXPECT_NEAR(analytic.halo_mean, measured.halo_mean,
              0.4 * measured.halo_mean)
      << "side=" << side << " parts=" << parts;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionModelBounds,
    ::testing::Combine(::testing::Values(16, 24, 32),
                       ::testing::Values(4, 8, 27, 64)));

// --- Physics conservation under random configurations --------------------

class PicConservation : public ::testing::TestWithParam<int> {};

TEST_P(PicConservation, ChargeAndCountInvariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  simpic::PicOptions opt;
  opt.cells = 32 << rng.uniform_index(3);        // 32/64/128
  opt.dt = rng.uniform(0.005, 0.05);
  opt.boundary = simpic::Boundary::kPeriodic;
  opt.seed = static_cast<std::uint64_t>(GetParam());
  simpic::Pic pic(opt);
  const int ppc = 5 + static_cast<int>(rng.uniform_index(30));
  pic.load_uniform(ppc, rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.05));
  const auto n0 = pic.num_particles();
  pic.run(30);
  // Periodic walls: particle count conserved exactly; total deposited
  // charge equals the (constant) total particle charge.
  EXPECT_EQ(pic.num_particles(), n0);
  pic.deposit();
  const double dx = opt.length / static_cast<double>(opt.cells);
  double deposited = 0.0;
  for (std::size_t i = 0; i + 1 < pic.rho().size(); ++i) {
    deposited += (pic.rho()[i] - 1.0) * dx;
  }
  EXPECT_NEAR(deposited, -opt.length, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PicConservation, ::testing::Range(1, 9));

// --- Case-file parser robustness -----------------------------------------

class CaseIoFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CaseIoFuzz, RandomInputNeverCrashes) {
  // Random token soup must either parse or throw CheckError — never crash
  // or loop.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL);
  const char* words[] = {"instance", "coupler",  "mgcfd",   "simpic",
                         "thermal",  "sliding",  "steady",  "name",
                         "cells=10", "cells=x",  "iters=2", "every=0",
                         "stc=base-28m", "a",    "b",       "=",
                         "#",        "cells=99999999"};
  std::string text;
  const int lines = 1 + static_cast<int>(rng.uniform_index(12));
  for (int l = 0; l < lines; ++l) {
    const int tokens = static_cast<int>(rng.uniform_index(6));
    for (int t = 0; t < tokens; ++t) {
      text += words[rng.uniform_index(std::size(words))];
      text += ' ';
    }
    text += '\n';
  }
  std::istringstream in(text);
  try {
    const workflow::EngineCase ec = workflow::load_engine_case(in);
    EXPECT_FALSE(ec.instances.empty());  // success implies a valid case
  } catch (const CheckError&) {
    // Expected for most random inputs.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CaseIoFuzz, ::testing::Range(1, 41));

// --- Options parser robustness -------------------------------------------

class OptionsFuzz : public ::testing::TestWithParam<int> {};

TEST_P(OptionsFuzz, NumericAccessorsThrowOrReturnTheTrueValue) {
  // Invariant: for arbitrary argv soup, parse() and the numeric accessors
  // either throw CheckError or return a value that an independent strict
  // re-parse of the raw string confirms — never a silently wrong number.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6364136223846793005ULL);
  const char* keys[] = {"n", "iters", "rate"};
  const char* values[] = {"12",  "-3",   "0007", "3.5",  "1e3",
                          "",    "x",    "12x",  "nan",  "inf",
                          "99999999999999999999999", "1e999", "-9.5e-2"};
  std::vector<std::string> storage;
  storage.emplace_back("prog");
  const int nargs = static_cast<int>(rng.uniform_index(8));
  for (int i = 0; i < nargs; ++i) {
    const auto pick = rng.uniform_index(4);
    if (pick == 0) {
      storage.emplace_back(values[rng.uniform_index(std::size(values))]);
    } else if (pick == 1) {
      storage.emplace_back(std::string("--") +
                           keys[rng.uniform_index(std::size(keys))]);
    } else {
      storage.emplace_back(std::string("--") +
                           keys[rng.uniform_index(std::size(keys))] + "=" +
                           values[rng.uniform_index(std::size(values))]);
    }
  }
  std::vector<const char*> argv;
  for (const std::string& s : storage) {
    argv.push_back(s.c_str());
  }

  Options opts;
  try {
    opts = Options::parse(static_cast<int>(argv.size()), argv.data());
  } catch (const CheckError&) {
    return;  // rejecting the argv outright is always acceptable
  }

  for (const char* key : keys) {
    if (!opts.has(key)) {
      // Absent keys must yield the fallback exactly.
      EXPECT_EQ(opts.get_int(key, -7), -7);
      EXPECT_EQ(opts.get_double(key, 2.5), 2.5);
      continue;
    }
    const std::string raw = opts.get_string(key, "");
    try {
      const long long v = opts.get_int(key, -7);
      std::size_t used = 0;
      const long long check = std::stoll(raw, &used);
      EXPECT_EQ(used, raw.size()) << "accepted partially-numeric '" << raw
                                  << "'";
      EXPECT_EQ(v, check) << "wrong value for '" << raw << "'";
    } catch (const CheckError&) {
      // Rejection is fine; silent corruption is what we are hunting.
    }
    try {
      const double v = opts.get_double(key, 2.5);
      std::size_t used = 0;
      const double check = std::stod(raw, &used);
      EXPECT_EQ(used, raw.size()) << "accepted partially-numeric '" << raw
                                  << "'";
      EXPECT_TRUE(v == check || (std::isnan(v) && std::isnan(check)))
          << "wrong value for '" << raw << "'";
    } catch (const CheckError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptionsFuzz, ::testing::Range(1, 41));

// --- Model-file loader robustness ----------------------------------------

class ModelFileFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ModelFileFuzz, RandomModelFilesLoadCleanlyOrThrowCheckError) {
  // Invariant: arbitrary token soup fed to load_models() either throws
  // CheckError, or yields a ModelSet whose every model satisfies the
  // documented bounds and which round-trips byte-identically.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2862933555777941757ULL);
  const char* tokens[] = {"app",      "cu",       "mgcfd",    "simpic",
                          "scale=2",  "scale=",   "scale=1x", "scale=-3",
                          "scale=1e999", "min=1", "min=0",    "min=2.5",
                          "max=4",    "max=2",    "a=1.5",    "b=0.01",
                          "c=0",      "d=1e-6",   "extra",    "#"};
  std::string text = "# cpx-perfmodel v1\n";
  const int lines = static_cast<int>(rng.uniform_index(8));
  for (int l = 0; l < lines; ++l) {
    const int count = static_cast<int>(rng.uniform_index(11));
    for (int t = 0; t < count; ++t) {
      text += tokens[rng.uniform_index(std::size(tokens))];
      text += ' ';
    }
    text += '\n';
  }

  std::istringstream in(text);
  perfmodel::ModelSet models;
  try {
    models = perfmodel::load_models(in);
  } catch (const CheckError&) {
    return;  // expected for most random inputs
  }

  for (const auto* group : {&models.apps, &models.cus}) {
    for (const perfmodel::InstanceModel& m : *group) {
      EXPECT_FALSE(m.name.empty());
      EXPECT_GT(m.scale, 0.0);
      EXPECT_GE(m.min_ranks, 1);
      EXPECT_LE(m.min_ranks, m.max_ranks);
    }
  }

  // Anything the loader accepts must survive a save/load/save round trip.
  std::ostringstream first;
  perfmodel::save_models(first, models);
  std::istringstream again(first.str());
  const perfmodel::ModelSet reloaded = perfmodel::load_models(again);
  std::ostringstream second;
  perfmodel::save_models(second, reloaded);
  EXPECT_EQ(first.str(), second.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelFileFuzz, ::testing::Range(1, 41));

}  // namespace
}  // namespace cpx
