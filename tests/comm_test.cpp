// Tests for the unified message-passing transport layer (src/comm/,
// docs/communication.md): tag matching and delivery-order determinism at
// any CPX_THREADS, ExchangePlan round-trip identity, gather-before-scatter
// order, misuse checks and steady-state allocation freedom, the
// deterministic allreduce against a serial reference, validate_plan
// rejecting corrupted plans, the sim::Cluster overlap window, and bitwise
// cross-subsystem regressions (the distributed MG-CFD and SIMPIC solvers
// must produce identical results at every thread count now that their
// communication routes through the comm layer). Registered with the
// `tsan` and `comm` ctest labels.

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/exchange_plan.hpp"
#include "mesh/mesh.hpp"
#include "mgcfd/distributed.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "simpic/distributed.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace cpx {
namespace {

constexpr int kThreadCounts[] = {1, 4, 16};

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Runs fn at every thread count in kThreadCounts and checks the returned
/// vector<double> is bitwise identical each time.
template <typename Fn>
void expect_bitwise_across_thread_counts(Fn fn) {
  support::set_max_threads(kThreadCounts[0]);
  const std::vector<double> reference = fn();
  for (std::size_t i = 1; i < std::size(kThreadCounts); ++i) {
    support::set_max_threads(kThreadCounts[i]);
    const std::vector<double> other = fn();
    EXPECT_TRUE(bitwise_equal(reference, other))
        << "result differs at CPX_THREADS=" << kThreadCounts[i];
  }
  support::set_max_threads(1);
}

TEST(Communicator, PointToPointMatchesByTag) {
  auto comm = comm::Communicator::world(2);
  const double a = 1.5;
  const double b = -2.5;
  comm.isend_value(0, 1, /*tag=*/7, a);
  comm.isend_value(0, 1, /*tag=*/9, b);
  double got_b = 0.0;
  double got_a = 0.0;
  // Receives posted in the opposite order of the sends: matching is by
  // (src, dst, tag), not arrival order.
  comm.irecv_value(1, 0, /*tag=*/9, &got_b);
  comm.irecv_value(1, 0, /*tag=*/7, &got_a);
  comm.wait_all();
  EXPECT_EQ(got_a, a);
  EXPECT_EQ(got_b, b);
  EXPECT_EQ(comm.stats().messages, 2);
  EXPECT_EQ(comm.stats().bytes, 2 * static_cast<std::int64_t>(sizeof(double)));
}

TEST(Communicator, SameTripleMatchesFifo) {
  auto comm = comm::Communicator::world(2);
  comm.isend_value(0, 1, 0, 10.0);
  comm.isend_value(0, 1, 0, 20.0);
  double first = 0.0;
  double second = 0.0;
  comm.irecv_value(1, 0, 0, &first);
  comm.irecv_value(1, 0, 0, &second);
  comm.wait_all();
  EXPECT_EQ(first, 10.0);
  EXPECT_EQ(second, 20.0);
}

TEST(Communicator, UnmatchedOperationsThrow) {
  {
    auto comm = comm::Communicator::world(2);
    comm.isend_value(0, 1, 0, 1.0);
    EXPECT_THROW(comm.wait_all(), CheckError);  // send never received
  }
  {
    auto comm = comm::Communicator::world(2);
    double out = 0.0;
    comm.irecv_value(1, 0, 0, &out);
    EXPECT_THROW(comm.wait_all(), CheckError);  // recv never satisfied
  }
  {
    auto comm = comm::Communicator::world(2);
    float small = 0.0F;
    comm.isend_value(0, 1, 0, 1.0);  // 8 bytes
    comm.irecv_value(1, 0, 0, &small);
    EXPECT_THROW(comm.wait_all(), CheckError);  // size mismatch
  }
}

TEST(Communicator, DeliverVisitsSourcesAscendingFifoPerSource) {
  auto comm = comm::Communicator::world(4);
  // Posted out of source order, two messages from rank 2.
  comm.isend_value(2, 3, 0, 21.0);
  comm.isend_value(0, 3, 0, 1.0);
  comm.isend_value(2, 3, 0, 22.0);
  comm.isend_value(1, 3, 0, 11.0);
  std::vector<double> seen;
  std::vector<int> sources;
  comm.deliver(3, 0, [&](comm::Rank src, std::span<const std::byte> payload) {
    ASSERT_EQ(payload.size(), sizeof(double));
    double v = 0.0;
    std::memcpy(&v, payload.data(), sizeof(double));
    seen.push_back(v);
    sources.push_back(src);
  });
  EXPECT_EQ(seen, (std::vector<double>{1.0, 11.0, 21.0, 22.0}));
  EXPECT_EQ(sources, (std::vector<int>{0, 1, 2, 2}));
}

TEST(Communicator, DeliveryOrderBitwiseAcrossThreadCounts) {
  // The transport is single-threaded by contract, but it runs inside
  // solvers that change CPX_THREADS: the observable delivery sequence
  // must not depend on it.
  expect_bitwise_across_thread_counts([] {
    auto comm = comm::Communicator::world(3);
    std::vector<double> order;
    for (int s = 0; s < 3; ++s) {
      for (int d = 0; d < 3; ++d) {
        if (s != d) {
          comm.isend_value(s, d, 1, static_cast<double>(10 * s + d));
        }
      }
    }
    for (int d = 0; d < 3; ++d) {
      comm.deliver(d, 1, [&](comm::Rank, std::span<const std::byte> p) {
        double v = 0.0;
        std::memcpy(&v, p.data(), sizeof(double));
        order.push_back(v);
      });
    }
    return order;
  });
}

TEST(Communicator, AllreduceSumMatchesSerialAndIsBitwiseStable) {
  std::vector<double> contributions;
  for (int r = 0; r < 37; ++r) {
    contributions.push_back(1.0 / (1.0 + r) - 0.01 * r);
  }
  double serial = 0.0;
  for (double c : contributions) {
    serial += c;
  }
  expect_bitwise_across_thread_counts([&] {
    auto comm = comm::Communicator::world(
        static_cast<int>(contributions.size()));
    return std::vector<double>{comm.allreduce_sum(contributions)};
  });
  support::set_max_threads(1);
  auto comm =
      comm::Communicator::world(static_cast<int>(contributions.size()));
  // The reduction uses the fixed-lane tree order of docs/parallelism.md
  // (not a left-to-right fold), so it agrees with the serial chain only up
  // to reassociation rounding — the bitwise contract above is what the
  // collective guarantees.
  EXPECT_NEAR(comm.allreduce_sum(contributions), serial,
              1e-14 * std::abs(serial));
}

comm::ExchangePlan ring_plan(int ranks, std::int64_t slots_per_rank) {
  // Ring: each rank sends its first owned slot to the right neighbour's
  // last slot (the "ghost").
  comm::ExchangePlan plan;
  for (int r = 0; r + 1 < ranks; ++r) {
    plan.add_channel(r, r + 1, {0},
                     {static_cast<std::int32_t>(slots_per_rank - 1)});
  }
  return plan;
}

TEST(ExchangePlan, RoundTripDeliversExactSlotValues) {
  constexpr int kRanks = 4;
  constexpr std::int64_t kSlots = 3;
  auto comm = comm::Communicator::world(kRanks);
  auto plan = ring_plan(kRanks, kSlots);
  plan.finalize(sizeof(double));
  EXPECT_EQ(plan.bytes_per_exchange(), (kRanks - 1) * sizeof(double));

  std::vector<std::vector<double>> data(kRanks,
                                        std::vector<double>(kSlots, 0.0));
  for (int r = 0; r < kRanks; ++r) {
    data[static_cast<std::size_t>(r)][0] = 100.0 + r;
  }
  plan.execute(comm, [&](comm::Rank r) {
    return std::as_writable_bytes(
        std::span<double>(data[static_cast<std::size_t>(r)]));
  });
  for (int r = 0; r + 1 < kRanks; ++r) {
    EXPECT_EQ(data[static_cast<std::size_t>(r + 1)][kSlots - 1], 100.0 + r);
  }
  EXPECT_EQ(comm.stats().messages, kRanks - 1);
}

TEST(ExchangePlan, SteadyStateExchangeStopsGrowingThePool) {
  constexpr int kRanks = 8;
  auto comm = comm::Communicator::world(kRanks);
  auto plan = ring_plan(kRanks, 4);
  plan.finalize(sizeof(double));
  std::vector<std::vector<double>> data(kRanks, std::vector<double>(4, 1.0));
  const auto rank_data = [&](comm::Rank r) {
    return std::as_writable_bytes(
        std::span<double>(data[static_cast<std::size_t>(r)]));
  };
  plan.execute(comm, rank_data);  // warm-up populates the buffer pool
  const std::size_t warm_pool = comm.pool_size();
  for (int step = 0; step < 16; ++step) {
    plan.execute(comm, rank_data);
  }
  EXPECT_EQ(comm.pool_size(), warm_pool);
}

TEST(ExchangePlan, ExecuteGathersEverySourceBeforeAnyScatter) {
  // A swap: each rank's slot 0 is both sent and overwritten. Each rank
  // must receive its neighbour's pre-exchange value, which holds only if
  // every channel is gathered and posted before any channel is scattered.
  auto comm = comm::Communicator::world(2);
  comm::ExchangePlan plan;
  plan.add_channel(0, 1, {0}, {0});
  plan.add_channel(1, 0, {0}, {0});
  plan.finalize(sizeof(double));
  std::vector<std::vector<double>> data = {{1.0}, {2.0}};
  plan.execute(comm, [&](comm::Rank r) {
    return std::as_writable_bytes(
        std::span<double>(data[static_cast<std::size_t>(r)]));
  });
  EXPECT_EQ(data[0][0], 2.0);
  EXPECT_EQ(data[1][0], 1.0);
}

TEST(ExchangePlan, MisuseThrowsCheckError) {
  auto comm = comm::Communicator::world(2);
  std::vector<std::vector<double>> data(2, std::vector<double>(3, 0.0));
  const auto rank_data = [&](comm::Rank r) {
    return std::as_writable_bytes(
        std::span<double>(data[static_cast<std::size_t>(r)]));
  };
  comm::ExchangePlan plan;
  EXPECT_THROW(plan.add_channel(0, 0, {0}, {2}), CheckError);     // self-loop
  EXPECT_THROW(plan.add_channel(0, 1, {0, 1}, {2}), CheckError);  // lengths
  EXPECT_THROW(plan.add_channel(0, 1, {-1}, {2}), CheckError);    // negative
  plan.add_channel(0, 1, {0}, {2});
  EXPECT_THROW(plan.execute(comm, rank_data), CheckError);  // not finalized
  EXPECT_THROW(plan.finalize(0), CheckError);               // empty element
  plan.finalize(sizeof(double));
  EXPECT_THROW(plan.finalize(sizeof(double)), CheckError);    // twice
  EXPECT_THROW(plan.add_channel(1, 0, {0}, {2}), CheckError);  // locked
  data[0][0] = 7.0;
  plan.execute(comm, rank_data);
  EXPECT_EQ(data[1][2], 7.0);
}

TEST(ExchangePlan, PlansWithDistinctTagsShareOneCommunicator) {
  // Two halo plans over one communicator, executed back to back with
  // their own tags: each lands only its own values, and the
  // communicator counts the messages of both rounds.
  constexpr int kRanks = 3;
  constexpr std::int64_t kSlots = 2;
  auto comm = comm::Communicator::world(kRanks);
  auto plan_a = ring_plan(kRanks, kSlots);
  plan_a.finalize(sizeof(double));
  auto plan_b = ring_plan(kRanks, kSlots);
  plan_b.finalize(sizeof(double));

  std::vector<std::vector<double>> data_a(kRanks,
                                          std::vector<double>(kSlots, 0.0));
  std::vector<std::vector<double>> data_b(kRanks,
                                          std::vector<double>(kSlots, 0.0));
  for (int r = 0; r < kRanks; ++r) {
    data_a[static_cast<std::size_t>(r)][0] = 10.0 + r;
    data_b[static_cast<std::size_t>(r)][0] = 20.0 + r;
  }
  plan_a.execute(
      comm,
      [&](comm::Rank r) {
        return std::as_writable_bytes(
            std::span<double>(data_a[static_cast<std::size_t>(r)]));
      },
      /*tag=*/1);
  plan_b.execute(
      comm,
      [&](comm::Rank r) {
        return std::as_writable_bytes(
            std::span<double>(data_b[static_cast<std::size_t>(r)]));
      },
      /*tag=*/2);
  for (int r = 0; r + 1 < kRanks; ++r) {
    EXPECT_EQ(data_a[static_cast<std::size_t>(r + 1)][kSlots - 1], 10.0 + r);
    EXPECT_EQ(data_b[static_cast<std::size_t>(r + 1)][kSlots - 1], 20.0 + r);
  }
  EXPECT_EQ(comm.stats().messages, 2 * (kRanks - 1));
}

TEST(ValidatePlan, AcceptsTheRingAndRejectsCorruptions) {
  constexpr std::int64_t kSlots = 3;
  const std::vector<std::int64_t> extents(4, kSlots);
  const std::vector<std::int64_t> required_begin(4, kSlots - 1);
  const comm::PlanShape shape{extents, extents, required_begin};
  // required_begin marks slot kSlots-1 as ghost on every rank; the last
  // rank's ghost has no feeder, so use a shape without the requirement
  // for the accept case.
  const comm::PlanShape loose{extents, extents, {}};

  auto good = ring_plan(4, kSlots);
  good.finalize(sizeof(double));
  EXPECT_NO_THROW(comm::validate_plan(good, loose));

  {  // out-of-range destination rank
    auto plan = ring_plan(4, kSlots);
    plan.add_channel(3, 4, {0}, {2});
    plan.finalize(sizeof(double));
    EXPECT_THROW(comm::validate_plan(plan, loose), CheckError);
  }
  {  // send index beyond the source extent
    auto plan = ring_plan(4, kSlots);
    plan.add_channel(3, 0, {static_cast<std::int32_t>(kSlots)}, {2});
    plan.finalize(sizeof(double));
    EXPECT_THROW(comm::validate_plan(plan, loose), CheckError);
  }
  {  // duplicate directed channel
    auto plan = ring_plan(4, kSlots);
    plan.add_channel(0, 1, {1}, {2});
    plan.finalize(sizeof(double));
    EXPECT_THROW(comm::validate_plan(plan, loose), CheckError);
  }
  {  // ghost slot fed twice violates exactly-once coverage
    auto plan = ring_plan(4, kSlots);
    plan.add_channel(2, 1, {0}, {static_cast<std::int32_t>(kSlots - 1)});
    plan.finalize(sizeof(double));
    EXPECT_THROW(comm::validate_plan(plan, shape), CheckError);
  }
}

TEST(SplitPhase, MismatchedWindowThrowsBeforeAnythingIsCharged) {
  sim::Cluster cluster(sim::MachineModel::archer2(), 4);
  const std::vector<sim::Message> msgs = {{0, 1, 1024}};
  const std::vector<double> seconds(3, 1e-3);
  EXPECT_THROW(cluster.exchange(cluster.make_schedule(msgs),
                                cluster.region("t"),
                                {{0, 4}, seconds, cluster.region("w")}),
               CheckError);
  for (int r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.clock(r), 0.0);
    EXPECT_EQ(cluster.comm_messages(r), 0);
  }
}

TEST(SplitPhase, ClusterEmptyWindowMatchesExchange) {
  const auto machine = sim::MachineModel::archer2();
  std::vector<sim::Message> msgs;
  for (int r = 0; r < 8; ++r) {
    msgs.push_back({r, (r + 1) % 8, 4096});
  }
  sim::Cluster sync(machine, 8);
  sync.exchange(sync.make_schedule(msgs), sync.region("x"));
  sim::Cluster split(machine, 8);
  split.exchange(split.make_schedule(msgs), split.region("x"), {});
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(split.clock(r), sync.clock(r));
    EXPECT_EQ(split.comm_hidden_seconds(r), 0.0);
    EXPECT_EQ(sync.comm_hidden_seconds(r), 0.0);
  }
}

TEST(SplitPhase, EmptyScheduleChargesNothingAndOpensAnEmptyWindow) {
  sim::Cluster idle(sim::MachineModel::archer2(), 2);
  const auto region = idle.region("x");
  idle.exchange(idle.make_schedule({}), region);
  idle.exchange(idle.make_schedule({}), region, {});
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(idle.clock(r), 0.0);
    EXPECT_EQ(idle.comm_hidden_seconds(r), 0.0);
    EXPECT_EQ(idle.comm_messages(r), 0);
  }
}

TEST(SplitPhase, ComputeInWindowHidesCommHonestly) {
  // One message 0 -> 1; receiver computes inside the window. The hidden
  // channel must equal the synchronous wait minus the real wait, and the
  // receiver's clock must never beat the synchronous schedule by more
  // than the compute it genuinely issued.
  const auto machine = sim::MachineModel::archer2();
  const std::vector<sim::Message> msgs = {{0, 1, 1 << 20}};

  sim::Cluster sync(machine, 2);
  const auto region_s = sync.region("x");
  sync.exchange(sync.make_schedule(msgs), region_s);
  const double sync_clock = sync.clock(1);

  sim::Cluster split(machine, 2);
  const auto region_p = split.region("x");
  const std::vector<double> window = {1.0e-4};
  split.exchange(split.make_schedule(msgs), region_p,
                 {{1, 2}, window, region_p});
  const double hidden = split.comm_hidden_seconds(1);
  EXPECT_GT(hidden, 0.0);
  // Overlapped receiver time = sync time + compute - hidden.
  EXPECT_NEAR(split.clock(1), sync_clock + 1.0e-4 - hidden, 1e-12);
  // The model never credits more hiding than the window had compute.
  EXPECT_LE(hidden, 1.0e-4 + 1e-12);
}

TEST(CommRegression, DistributedMgcfdBitwiseAcrossThreadCounts) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  expect_bitwise_across_thread_counts([&m] {
    mgcfd::EulerOptions opt;
    mgcfd::DistributedSolver dist(m, 4, opt);
    dist.set_cell(0, {1.2, 0.1, 0.0, 0.0, 2.8});
    dist.run(5);
    std::vector<double> flat;
    for (const mgcfd::State& s : dist.gather_solution()) {
      flat.insert(flat.end(), s.begin(), s.end());
    }
    return flat;
  });
}

TEST(CommRegression, DistributedPicBitwiseAcrossThreadCounts) {
  expect_bitwise_across_thread_counts([] {
    simpic::PicOptions opt;
    opt.cells = 64;
    opt.boundary = simpic::Boundary::kAbsorbing;
    opt.dt = 0.1;
    simpic::DistributedPic dist(opt, 4);
    dist.load_uniform(10, 0.3, 0.05);
    dist.run(10);
    std::vector<double> flat = dist.gather_phi();
    const std::vector<double> rho = dist.gather_rho();
    const std::vector<double> pos = dist.gather_positions();
    flat.insert(flat.end(), rho.begin(), rho.end());
    flat.insert(flat.end(), pos.begin(), pos.end());
    return flat;
  });
}

}  // namespace
}  // namespace cpx
