// Tests for the virtual cluster: machine model costs, clock propagation
// through messages and collectives, profiling accounting, and emergent
// behaviours the mini-apps rely on (pipeline serialisation, NIC
// contention, costs responding to machine parameters).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include <sstream>

#include "json_parse.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::sim {
namespace {

/// Charges one message as a bound one-message schedule.
void exchange_one(Cluster& c, Message m, RegionId region) {
  const Message msgs[] = {m};
  c.exchange(c.make_schedule(msgs), region);
}

TEST(MachineModel, ComputeRoofline) {
  MachineModel m = MachineModel::archer2();
  // Pure flops: time ~ flops / rate.
  Work flops_only{3.0e9, 0.0, 1.0};
  EXPECT_NEAR(m.compute_time(flops_only), 1.0 + m.kernel_overhead, 1e-9);
  // Pure memory: bandwidth share assumes a fully packed node (1/128).
  Work mem_only{0.0, 350.0e9, 1.0};
  EXPECT_NEAR(m.compute_time(mem_only), 128.0 + m.kernel_overhead, 1e-6);
  // A flop-heavy kernel is compute-bound, not memory-bound.
  Work mixed{3.0e9, 1.0e6, 1.0};
  EXPECT_NEAR(m.compute_time(mixed), 1.0 + m.kernel_overhead, 1e-9);
}

TEST(MachineModel, CollectiveScalesLogarithmically) {
  MachineModel m = MachineModel::archer2();
  const double t128 = m.allreduce_time(128, 1, 8);
  const double t16k = m.allreduce_time(16384, 128, 8);
  EXPECT_GT(t16k, t128);
  // log2(16384)=14 rounds vs log2(128)=7 rounds, inter-node rounds cost
  // more; the ratio must stay well below linear scaling.
  EXPECT_LT(t16k / t128, 16.0);
}

TEST(MachineModel, AllreduceSingleRankIsFree) {
  MachineModel m = MachineModel::archer2();
  EXPECT_EQ(m.allreduce_time(1, 1, 1024), 0.0);
}

TEST(Cluster, PlacementBlocksByNode) {
  Cluster c(MachineModel::archer2(), 300);
  EXPECT_EQ(c.num_nodes(), 3);
  EXPECT_EQ(c.node_of(0), 0);
  EXPECT_EQ(c.node_of(127), 0);
  EXPECT_EQ(c.node_of(128), 1);
  EXPECT_EQ(c.ranks_on_node(0), 128);
  EXPECT_EQ(c.ranks_on_node(2), 44);
}

TEST(Cluster, ComputeAdvancesClockAndProfile) {
  Cluster c(MachineModel::archer2(), 4);
  const RegionId flux = c.region("flux");
  c.compute_seconds(0, 1.5, flux);
  EXPECT_DOUBLE_EQ(c.clock(0), 1.5);
  EXPECT_DOUBLE_EQ(c.clock(1), 0.0);
  EXPECT_DOUBLE_EQ(c.profile().rank_region(0, flux).compute, 1.5);
  EXPECT_DOUBLE_EQ(c.profile().rank_region(0, flux).comm, 0.0);
}

TEST(Cluster, MessageRaisesReceiverClock) {
  Cluster c(MachineModel::archer2(), 2);
  const RegionId halo = c.region("halo");
  c.compute_seconds(0, 1.0, halo);
  exchange_one(c, {0, 1, 8 * 1024}, halo);
  // Receiver cannot be earlier than the sender's clock plus wire time.
  EXPECT_GT(c.clock(1), 1.0);
  // The receiver's jump is accounted as communication.
  EXPECT_GT(c.profile().rank_region(1, halo).comm, 0.9);
}

TEST(Cluster, LateReceiverDoesNotWait) {
  Cluster c(MachineModel::archer2(), 2);
  const RegionId halo = c.region("halo");
  c.compute_seconds(1, 10.0, halo);  // receiver is far ahead
  exchange_one(c, {0, 1, 1024}, halo);
  // Arrival is in the receiver's past; only the message overhead is paid.
  EXPECT_NEAR(c.clock(1), 10.0 + c.machine().msg_overhead, 1e-12);
}

TEST(Cluster, ExchangeIsBulkSynchronousPerMessage) {
  Cluster c(MachineModel::archer2(), 4);
  const RegionId halo = c.region("halo");
  std::vector<Message> msgs = {{0, 1, 4096}, {1, 0, 4096}, {2, 3, 4096}};
  c.exchange(c.make_schedule(msgs), halo);
  for (Rank r = 0; r < 4; ++r) {
    EXPECT_GT(c.clock(r), 0.0);
  }
}

TEST(Cluster, ChainedExchangesSerialiseIntoPipeline) {
  // Clock propagation through dependent messages: a chain of one-message
  // exchanges, each sent by the previous receiver, costs O(p * latency).
  MachineModel m = MachineModel::archer2();
  const int p = 256;
  const auto chain = [](Cluster& c) {
    const RegionId fields = c.region("fields");
    for (Rank r = 0; r + 1 < c.num_ranks(); ++r) {
      exchange_one(c, {r, r + 1, 64}, fields);
    }
    return c.clock(c.num_ranks() - 1);
  };
  Cluster c(m, p);
  const double t = chain(c);
  // At least (p-1) hops of minimum latency.
  EXPECT_GT(t, (p - 1) * m.lat_intra);
  // And it grows linearly: doubling the chain roughly doubles the time.
  Cluster c2(m, 2 * p);
  EXPECT_GT(chain(c2), 1.7 * t);
}

TEST(Cluster, AllreduceSynchronisesGroup) {
  Cluster c(MachineModel::archer2(), 8);
  const RegionId red = c.region("reduce");
  c.compute_seconds(3, 2.0, red);  // one laggard
  c.allreduce({0, 8}, 8, red);
  const double t = c.clock(0);
  for (Rank r = 0; r < 8; ++r) {
    EXPECT_DOUBLE_EQ(c.clock(r), t);
  }
  EXPECT_GT(t, 2.0);  // laggard dominates
}

TEST(Cluster, WaitUntilChargesCommTime) {
  Cluster c(MachineModel::archer2(), 2);
  const RegionId w = c.region("wait");
  c.wait_until({0, 2}, 5.0, w);
  EXPECT_DOUBLE_EQ(c.clock(0), 5.0);
  EXPECT_DOUBLE_EQ(c.profile().rank_region(1, w).comm, 5.0);
}

TEST(Cluster, ResetClearsState) {
  // Reshaping to the current size is the reset: clocks and profile zeroed.
  Cluster c(MachineModel::archer2(), 2);
  const RegionId r0 = c.region("x");
  c.compute_seconds(0, 1.0, r0);
  c.reshape(c.num_ranks());
  EXPECT_EQ(c.num_ranks(), 2);
  EXPECT_DOUBLE_EQ(c.clock(0), 0.0);
  EXPECT_DOUBLE_EQ(c.profile().rank_region(0, r0).compute, 0.0);
  // Region ids survive a reset.
  EXPECT_EQ(c.region("x"), r0);
}

/// What charge_script interned and the overlap-window counter it read.
struct Charged {
  RegionId a = -1;
  RegionId b = -1;
  std::int64_t window_ns = 0;
};

/// A script of every kind of charge on ranks [0, n): range compute, a
/// bound halo exchange across nodes, an overlapped exchange, collectives
/// and delays, with host metrics on for the overlap counters.
Charged charge_script(Cluster& c, int n) {
  namespace metrics = support::metrics;
  metrics::reset();
  metrics::set_enabled(true);
  const RegionId a = c.region("a");
  const RegionId b = c.region("b");
  std::vector<double> seconds(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    seconds[static_cast<std::size_t>(r)] = 1e-4 * (1 + r % 7);
  }
  std::vector<Message> halo;
  for (Rank r = 0; r < n; ++r) {
    halo.push_back({r, (r + 1) % n, 4096u + static_cast<std::size_t>(r)});
    halo.push_back({r, (r + 131) % n, 1024});
  }
  c.compute_seconds({0, n}, seconds, a);
  const ExchangeSchedule schedule = c.make_schedule(halo);
  c.exchange(schedule, b);
  c.exchange(schedule, b, {{0, n}, seconds, a});
  c.allreduce({0, n}, 40, b);
  c.gather({0, n}, 0, 64, b);
  c.comm_delay({0, n}, seconds, a);
  c.exchange(schedule, b);
  metrics::set_enabled(false);
  const std::int64_t window_ns =
      metrics::snapshot().counter("comm/overlap_window_ns");
  metrics::reset();
  return {a, b, window_ns};
}

TEST(Cluster, ReshapeMatchesAFreshClusterBitwise) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const MachineModel m = MachineModel::archer2();
  // Shrinking and growing: each reshaped cluster must be in exactly the
  // state of a new cluster of the target size.
  for (const auto& [from, to] : {std::pair{700, 300}, std::pair{130, 700}}) {
    Cluster reshaped(m, from);
    reshaped.enable_tracing();
    reshaped.region("only_before");
    charge_script(reshaped, from);
    const Message one[] = {{0, from - 1, 64}};
    const ExchangeSchedule stale = reshaped.make_schedule(one);
    reshaped.inject_failure(1, 5);
    reshaped.begin_step(3);
    const std::uint64_t old_id = reshaped.id();

    reshaped.reshape(to);
    EXPECT_NE(reshaped.id(), old_id);
    EXPECT_EQ(reshaped.num_ranks(), to);
    EXPECT_EQ(reshaped.profile().num_ranks(), to);
    EXPECT_FALSE(reshaped.failure_armed());
    EXPECT_EQ(reshaped.current_step(), 0);
    ASSERT_TRUE(reshaped.tracing_enabled());
    EXPECT_TRUE(reshaped.trace()->events().empty());
    EXPECT_EQ(reshaped.region("only_before"), 0);  // ids survive
    EXPECT_THROW(reshaped.exchange(stale, 0), CheckError);

    Cluster fresh(m, to);
    EXPECT_EQ(reshaped.num_nodes(), fresh.num_nodes());
    const Charged on_fresh = charge_script(fresh, to);
    const Charged on_reshaped = charge_script(reshaped, to);
    EXPECT_GT(on_fresh.window_ns, 0);
    EXPECT_EQ(on_reshaped.window_ns, on_fresh.window_ns);
    for (Rank r = 0; r < to; ++r) {
      ASSERT_EQ(bits(reshaped.clock(r)), bits(fresh.clock(r))) << r;
      ASSERT_EQ(reshaped.comm_bytes(r), fresh.comm_bytes(r)) << r;
      ASSERT_EQ(reshaped.comm_messages(r), fresh.comm_messages(r)) << r;
      ASSERT_EQ(bits(reshaped.comm_hidden_seconds(r)),
                bits(fresh.comm_hidden_seconds(r)))
          << r;
      for (const auto& [f, g] :
           {std::pair{on_fresh.a, on_reshaped.a},
            std::pair{on_fresh.b, on_reshaped.b}}) {
        const RegionTimes want = fresh.profile().rank_region(r, f);
        const RegionTimes got = reshaped.profile().rank_region(r, g);
        ASSERT_EQ(bits(got.compute), bits(want.compute)) << r;
        ASSERT_EQ(bits(got.comm), bits(want.comm)) << r;
      }
      ASSERT_EQ(reshaped.profile().rank_region(r, 0).total(), 0.0);
    }
  }
}

TEST(Cluster, InterNodeCostsMoreThanIntraNode) {
  MachineModel m = MachineModel::archer2();
  Cluster c(m, 256);
  const RegionId h = c.region("halo");
  exchange_one(c, {0, 1, 1 << 16}, h);  // same node
  const double intra = c.clock(1);
  Cluster c2(m, 256);
  const RegionId h2 = c2.region("halo");
  exchange_one(c2, {0, 200, 1 << 16}, h2);
  EXPECT_GT(c2.clock(200), intra);
}

TEST(Cluster, InjectionContentionSlowsWideExchanges) {
  // 64 simultaneous inter-node senders from one node share the NIC.
  MachineModel m = MachineModel::archer2();
  Cluster narrow(m, 256);
  const RegionId h1 = narrow.region("halo");
  std::vector<Message> one = {{0, 128, 1 << 20}};
  narrow.exchange(narrow.make_schedule(one), h1);
  const double t_single = narrow.clock(128);

  Cluster wide(m, 256);
  const RegionId h2 = wide.region("halo");
  std::vector<Message> many;
  for (int i = 0; i < 64; ++i) {
    many.push_back({i, 128 + i, 1 << 20});
  }
  wide.exchange(wide.make_schedule(many), h2);
  const double t_contended = wide.clock(128 + 63);
  EXPECT_GT(t_contended, 2.0 * t_single);
}

TEST(Cluster, SlowNetworkMakesExchangeSlower) {
  std::vector<Message> msgs = {{0, 129, 1 << 18}};
  Cluster fast(MachineModel::archer2(), 256);
  Cluster slow(MachineModel::slow_network(), 256);
  const RegionId hf = fast.region("h");
  const RegionId hs = slow.region("h");
  fast.exchange(fast.make_schedule(msgs), hf);
  slow.exchange(slow.make_schedule(msgs), hs);
  EXPECT_GT(slow.clock(129), 2.0 * fast.clock(129));
}

TEST(Profile, RegionInterningIsIdempotent) {
  Profile p(1);
  EXPECT_EQ(p.region("x"), p.region("x"));
  EXPECT_NE(p.region("x"), p.region("y"));
  EXPECT_EQ(p.find_region("nope"), -1);
}

TEST(Trace, DisabledByDefault) {
  Cluster c(MachineModel::archer2(), 2);
  EXPECT_FALSE(c.tracing_enabled());
  const RegionId r0 = c.region("x");
  c.compute_seconds(0, 1.0, r0);  // must not crash without a trace
}

TEST(Trace, RecordsComputeAndCommIntervals) {
  Cluster c(MachineModel::archer2(), 2);
  c.enable_tracing();
  const RegionId r0 = c.region("kernel");
  const RegionId r1 = c.region("halo");
  c.compute_seconds(0, 1.0, r0);
  exchange_one(c, {0, 1, 1024}, r1);
  ASSERT_TRUE(c.tracing_enabled());
  const auto& events = c.trace()->events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceKind::kCompute);
  EXPECT_DOUBLE_EQ(events[0].start, 0.0);
  EXPECT_DOUBLE_EQ(events[0].end, 1.0);
  bool saw_comm = false;
  for (const TraceEvent& e : events) {
    EXPECT_LE(e.start, e.end);
    saw_comm = saw_comm || e.kind == TraceKind::kComm;
  }
  EXPECT_TRUE(saw_comm);
}

TEST(Trace, CapsEventCountAndCountsDrops) {
  Cluster c(MachineModel::archer2(), 1);
  c.enable_tracing(/*max_events=*/3);
  const RegionId r0 = c.region("k");
  for (int i = 0; i < 10; ++i) {
    c.compute_seconds(0, 0.1, r0);
  }
  EXPECT_EQ(c.trace()->events().size(), 3u);
  EXPECT_EQ(c.trace()->dropped(), 7u);
}

TEST(Trace, ChromeExportIsWellFormedJson) {
  Cluster c(MachineModel::archer2(), 2);
  c.enable_tracing();
  const RegionId r0 = c.region("kernel");
  c.compute_seconds(0, 0.5, r0);
  exchange_one(c, {0, 1, 64}, r0);
  std::ostringstream oss;
  write_chrome_trace(oss, c);
  const std::string json = oss.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel\""), std::string::npos);
  // Balanced braces (each event is a flat object).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, ChromeExportEscapesRegionNames) {
  // Region names are user-provided; quotes, backslashes, and control
  // characters must be escaped or the whole trace file is invalid JSON.
  Cluster c(MachineModel::archer2(), 1);
  c.enable_tracing();
  const std::string weird = "ker\"nel\\one\ttwo";
  c.compute_seconds(0, 0.5, c.region(weird));
  std::ostringstream oss;
  write_chrome_trace(oss, c);
  const testing::JsonValue doc = testing::parse_json(oss.str());
  ASSERT_TRUE(doc.is_array());
  bool saw_weird = false;
  for (const testing::JsonValue& e : doc.items) {
    const testing::JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    saw_weird = saw_weird || name->str == weird;  // round-trips exactly
  }
  EXPECT_TRUE(saw_weird);
}

TEST(Trace, ChromeExportReportsDroppedEvents) {
  // The bounded Trace store silently truncates the timeline; the export
  // must carry the dropped count so downstream tooling can detect it.
  Cluster c(MachineModel::archer2(), 1);
  c.enable_tracing(/*max_events=*/2);
  const RegionId r0 = c.region("k");
  for (int i = 0; i < 7; ++i) {
    c.compute_seconds(0, 0.1, r0);
  }
  std::ostringstream oss;
  write_chrome_trace(oss, c);
  const testing::JsonValue doc = testing::parse_json(oss.str());
  ASSERT_TRUE(doc.is_array());
  bool saw_meta = false;
  for (const testing::JsonValue& e : doc.items) {
    if (e.find("name")->str == "cpx_trace_dropped") {
      saw_meta = true;
      EXPECT_EQ(e.find("ph")->str, "M");
      EXPECT_EQ(e.find("args")->find("dropped")->number, 5.0);
    }
  }
  EXPECT_TRUE(saw_meta);
}

TEST(Trace, ResetClearsEventsButKeepsTracing) {
  Cluster c(MachineModel::archer2(), 1);
  c.enable_tracing();
  c.compute_seconds(0, 1.0, c.region("k"));
  ASSERT_FALSE(c.trace()->events().empty());
  c.reshape(c.num_ranks());
  EXPECT_TRUE(c.tracing_enabled());
  EXPECT_TRUE(c.trace()->events().empty());
}

TEST(Trace, ExportRequiresTracing) {
  Cluster c(MachineModel::archer2(), 1);
  std::ostringstream oss;
  EXPECT_THROW(write_chrome_trace(oss, c), CheckError);
}

TEST(Work, OperatorsAccumulateAndScale) {
  Work a{10.0, 20.0, 1.0};
  Work b{5.0, 2.0, 1.0};
  const Work sum = a + b;
  EXPECT_DOUBLE_EQ(sum.flops, 15.0);
  EXPECT_DOUBLE_EQ(sum.bytes, 22.0);
  EXPECT_DOUBLE_EQ(sum.launches, 2.0);
  const Work scaled = 3.0 * a;
  EXPECT_DOUBLE_EQ(scaled.flops, 30.0);
  EXPECT_DOUBLE_EQ(scaled.launches, 3.0);
}

TEST(Cluster, GatherSynchronisesAndCosts) {
  Cluster c(MachineModel::archer2(), 256);
  const RegionId g = c.region("gather");
  c.compute_seconds(7, 0.5, g);
  c.gather({0, 256}, 0, 1024, g);
  const double done = c.clock(0);
  EXPECT_GT(done, 0.5);  // root waited for the laggard plus payload
  for (Rank r = 0; r < 256; ++r) {
    EXPECT_DOUBLE_EQ(c.clock(r), done);
  }
}

TEST(Cluster, MaxClockOverARangeTracksTheLaggard) {
  Cluster c(MachineModel::archer2(), 4);
  const RegionId r0 = c.region("x");
  c.compute_seconds(0, 5.0, r0);
  c.compute_seconds(1, 1.0, r0);
  EXPECT_DOUBLE_EQ(c.max_clock({0, 2}), 5.0);
  EXPECT_DOUBLE_EQ(c.max_clock({1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(c.max_clock({2, 4}), 0.0);
  EXPECT_DOUBLE_EQ(c.max_clock(), 5.0);
}

TEST(Cluster, GatherRejectsRootOutsideRange) {
  Cluster c(MachineModel::archer2(), 8);
  const RegionId g = c.region("gather");
  EXPECT_THROW(c.gather({0, 4}, 6, 128, g), CheckError);
  EXPECT_THROW(c.gather({0, 4}, -1, 128, g), CheckError);
  // A refused gather charges nothing.
  EXPECT_EQ(c.max_clock(), 0.0);
  EXPECT_EQ(c.comm_bytes({0, 8}), 0u);
}

TEST(MachineModel, BarrierCostGrowsWithRanksAndNodes) {
  // gather's latency term: log2 rounds, inter-node rounds cost more.
  MachineModel m = MachineModel::archer2();
  EXPECT_EQ(m.barrier_time(1, 1), 0.0);
  EXPECT_GT(m.barrier_time(128, 1), m.barrier_time(16, 1));
  EXPECT_GT(m.barrier_time(256, 2), m.barrier_time(256, 1));
  EXPECT_LT(m.barrier_time(1024, 8) / m.barrier_time(128, 1), 16.0);
}

TEST(Cluster, AlltoallCostGrowsLinearlyInRanks) {
  MachineModel m = MachineModel::archer2();
  EXPECT_GT(m.alltoall_time(8192, 64, 64),
            3.0 * m.alltoall_time(2048, 16, 64));
  EXPECT_EQ(m.alltoall_time(1, 1, 64), 0.0);

  Cluster c(m, 64);
  const RegionId r0 = c.region("a2a");
  c.alltoall({0, 64}, 128, r0);
  const double t = c.clock(0);
  EXPECT_GT(t, 0.0);
  for (Rank r = 0; r < 64; ++r) {
    EXPECT_DOUBLE_EQ(c.clock(r), t);  // collective synchronises
  }
}

TEST(Cluster, RejectsBadRanges) {
  Cluster c(MachineModel::archer2(), 4);
  const RegionId r0 = c.region("r");
  EXPECT_THROW(c.allreduce({0, 9}, 8, r0), CheckError);
  EXPECT_THROW(c.max_clock({2, 2}), CheckError);
}

}  // namespace
}  // namespace cpx::sim
