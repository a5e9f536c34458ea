// Checkpoint/restart tests (docs/checkpoint.md): the cpx-ckpt-v1 format
// round-trips byte-identically, corruption and version drift are rejected
// with CheckError, counter-based RNG streams resume exactly, per-subsystem
// sections satisfy write -> read -> write byte equality, and a coupled run
// that is killed mid-step by an injected rank failure and restored from
// the last snapshot finishes bitwise-equal to the uninterrupted run — at
// CPX_THREADS 1, 4, and 16.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/snapshot.hpp"
#include "mesh/mesh.hpp"
#include "mgcfd/distributed.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "simpic/distributed.hpp"
#include "simpic/pic.hpp"
#include "spray/cloud.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "workflow/case_io.hpp"
#include "workflow/coupled.hpp"
#include "workflow/engine_case.hpp"

namespace cpx {
namespace {

std::vector<std::byte> to_vec(std::span<const std::byte> s) {
  return {s.begin(), s.end()};
}

/// Full-snapshot bytes of one serializable object.
template <typename T>
std::vector<std::byte> snapshot_of(const T& obj) {
  ckpt::Writer w;
  w.begin();
  obj.serialize(w);
  w.finish();
  return to_vec(w.bytes());
}

/// Restores `obj` from a snapshot produced by snapshot_of().
template <typename T>
void restore_from(T& obj, const std::vector<std::byte>& bytes) {
  ckpt::Reader r(bytes);
  obj.restore(r);
}

// --- Format layer ---

TEST(CkptFormat, TypedValuesRoundTrip) {
  ckpt::Writer w;
  w.begin();
  w.begin_section("typed");
  w.put_u8(0xab);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(-0.125);
  w.put_str("hello ckpt");
  const std::vector<double> f = {1.0, -2.5, 3.25};
  const std::vector<std::int64_t> i = {-7, 0, 9};
  w.put_f64_span(f);
  w.put_i64_span(i);
  w.end_section();
  w.finish();

  ckpt::Reader r(w.bytes());
  EXPECT_EQ(r.num_sections(), 1u);
  EXPECT_TRUE(r.has_section("typed"));
  r.open_section("typed");
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f64(), -0.125);
  EXPECT_EQ(r.get_str(), "hello ckpt");
  std::vector<double> f2;
  std::vector<std::int64_t> i2;
  r.get_f64_vec(f2);
  r.get_i64_vec(i2);
  EXPECT_EQ(f2, f);
  EXPECT_EQ(i2, i);
  r.end_section();
}

std::vector<std::byte> one_section_snapshot() {
  ckpt::Writer w;
  w.begin();
  w.begin_section("blob");  // 4-char name: payload starts at offset 32
  for (int k = 0; k < 16; ++k) {
    w.put_f64(static_cast<double>(k));
  }
  w.end_section();
  w.finish();
  return to_vec(w.bytes());
}

TEST(CkptFormat, RejectsBadMagic) {
  std::vector<std::byte> bytes = one_section_snapshot();
  bytes[0] ^= std::byte{0xff};
  EXPECT_THROW(ckpt::Reader r(bytes), CheckError);
}

TEST(CkptFormat, RejectsVersionMismatch) {
  std::vector<std::byte> bytes = one_section_snapshot();
  // Version u32 sits right after the 8-byte magic, little-endian.
  bytes[8] = std::byte{ckpt::kFormatVersion + 1};
  EXPECT_THROW(ckpt::Reader r(bytes), CheckError);
}

TEST(CkptFormat, RejectsFlippedPayloadByte) {
  std::vector<std::byte> bytes = one_section_snapshot();
  // header(16) + name_len(4) + "blob"(4) + payload_len(8) = payload at 32.
  bytes[40] ^= std::byte{0x01};
  ckpt::Reader r(bytes);  // indexing does not touch payloads
  EXPECT_THROW(r.open_section("blob"), CheckError);
}

TEST(CkptFormat, RejectsTruncatedStream) {
  std::vector<std::byte> bytes = one_section_snapshot();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW(ckpt::Reader r(bytes), CheckError);
}

TEST(CkptFormat, WriteFileReadFileRoundTrips) {
  const std::vector<std::byte> bytes = one_section_snapshot();
  const std::string path = ::testing::TempDir() + "cpx_ckpt_format.ckpt";
  ckpt::Writer w;
  w.begin();
  w.begin_section("blob");
  for (int k = 0; k < 16; ++k) {
    w.put_f64(static_cast<double>(k));
  }
  w.end_section();
  w.finish();
  w.write_file(path);

  std::vector<std::byte> loaded;
  ckpt::read_file(path, loaded);
  EXPECT_EQ(loaded, bytes);
  EXPECT_THROW(ckpt::read_file(path + ".missing", loaded), CheckError);
}

// --- Counter-based RNG ---

TEST(CkptRng, StateRoundTripResumesTheStream) {
  CounterRng a(0xfeedULL);
  (void)a.uniform();
  (void)a.normal();  // two draws
  (void)a.uniform_index(17);
  EXPECT_EQ(a.counter(), 4u);

  CounterRng b;
  b.restore_state(a.seed(), a.counter());
  for (int k = 0; k < 64; ++k) {
    EXPECT_EQ(a(), b());
    EXPECT_EQ(a.uniform(), b.uniform());
  }
  EXPECT_EQ(a.counter(), b.counter());
}

// --- Per-subsystem sections: write -> read -> write byte equality ---

TEST(CkptSections, SprayCloudRoundTripsByteIdentically) {
  spray::CloudOptions opts;
  opts.num_particles = 2000;
  opts.num_ranks = 8;
  opts.seed = 7;
  spray::Cloud a(opts);
  for (int s = 0; s < 5; ++s) {
    a.step();
  }
  const auto bytes = snapshot_of(a);

  spray::Cloud b(opts);
  restore_from(b, bytes);
  EXPECT_EQ(snapshot_of(b), bytes);

  // The restored cloud continues the run bitwise-identically.
  a.step();
  b.step();
  EXPECT_EQ(a.positions(), b.positions());
  EXPECT_EQ(a.rng_counter(), b.rng_counter());
}

TEST(CkptSections, SprayCloudRestoreRejectsDifferentOptions) {
  spray::CloudOptions opts;
  opts.num_particles = 1000;
  spray::Cloud a(opts);
  const auto bytes = snapshot_of(a);

  spray::CloudOptions other = opts;
  other.num_ranks = opts.num_ranks + 1;
  spray::Cloud b(other);
  EXPECT_THROW(restore_from(b, bytes), CheckError);
}

TEST(CkptSections, PicRoundTripsByteIdentically) {
  simpic::PicOptions opts;
  opts.cells = 48;
  opts.seed = 42;
  simpic::Pic a(opts);
  a.load_uniform(12, 0.05, 0.01);
  a.run(3);
  const auto bytes = snapshot_of(a);

  simpic::Pic b(opts);
  restore_from(b, bytes);
  EXPECT_EQ(snapshot_of(b), bytes);

  a.step();
  b.step();
  EXPECT_EQ(a.positions(), b.positions());
  EXPECT_EQ(a.velocities(), b.velocities());
  EXPECT_EQ(a.efield(), b.efield());
}

TEST(CkptSections, PicRestoreRejectsNonFiniteOrOutOfDomainPosition) {
  simpic::PicOptions opts;
  opts.cells = 16;
  const std::size_t nodes = 17;

  // A "simpic/pic" section in Pic::serialize's layout with one particle
  // at `x`.
  const auto snapshot_with_particle_at = [&](double x) {
    ckpt::Writer w;
    w.begin();
    w.begin_section("simpic/pic");
    w.put_i64(opts.cells);
    w.put_f64(opts.length);
    w.put_f64(opts.dt);
    w.put_u8(0);  // periodic
    w.put_u64(opts.seed);
    w.put_u64(0);    // RNG counter
    w.put_f64(1.0);  // background
    w.put_f64_span(std::vector<double>{x});
    w.put_f64_span(std::vector<double>{0.0});
    w.put_f64_span(std::vector<double>{-1.0 / 16.0});
    const std::vector<double> grid(nodes, 0.0);
    w.put_f64_span(grid);
    w.put_f64_span(grid);
    w.put_f64_span(grid);
    w.end_section();
    w.finish();
    return to_vec(w.bytes());
  };

  simpic::Pic pic(opts);
  restore_from(pic, snapshot_with_particle_at(0.5 * opts.length));
  EXPECT_EQ(pic.num_particles(), 1);
  for (const double bad : {std::nan(""), -0.25, 2.0 * opts.length,
                           std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(restore_from(pic, snapshot_with_particle_at(bad)),
                 CheckError)
        << "x = " << bad;
  }
}

TEST(CkptSections, DistributedPicRoundTripsByteIdentically) {
  simpic::PicOptions opts;
  opts.cells = 64;
  opts.seed = 42;
  opts.boundary = simpic::Boundary::kAbsorbing;
  simpic::DistributedPic a(opts, 4);
  a.load_uniform(10, 0.05, 0.01);
  for (int s = 0; s < 3; ++s) {
    a.step();
  }
  const auto bytes = snapshot_of(a);

  simpic::DistributedPic b(opts, 4);
  restore_from(b, bytes);
  EXPECT_EQ(snapshot_of(b), bytes);

  a.step();
  b.step();
  EXPECT_EQ(snapshot_of(a), snapshot_of(b));
}

TEST(CkptSections, DistributedPicRestoreRejectsParticleOutsideItsRanksCells) {
  // 96 cells on 4 parts: rank 0 owns cells [0, 24). Just below x = 0.25,
  // x / dx rounds up into cell 24, which rank 1 owns; a particle stored
  // there on rank 0 would deposit one node past rank 0's 25-node slice.
  simpic::PicOptions opts;
  opts.cells = 96;
  opts.boundary = simpic::Boundary::kAbsorbing;
  const double below_quarter = std::nextafter(0.25, 0.0);
  ASSERT_EQ(simpic::locate(below_quarter, {opts.length / 96.0, 95, 0}).cell,
            24);

  // A "simpic/distributed" section in DistributedPic::serialize's layout
  // with one particle on rank 0 at `x`.
  const auto snapshot_with_particle_at = [&](double x) {
    ckpt::Writer w;
    w.begin();
    w.begin_section("simpic/distributed");
    w.put_i64(opts.cells);
    w.put_f64(opts.length);
    w.put_f64(opts.dt);
    w.put_u64(opts.seed);
    w.put_u32(4);
    w.put_u64(0);    // RNG counter
    w.put_f64(1.0);  // background
    w.put_i64(0);    // last migrations
    const std::vector<double> nodes(25, 1.0);
    for (int r = 0; r < 4; ++r) {
      const std::vector<double> one =
          r == 0 ? std::vector<double>{x} : std::vector<double>{};
      const std::vector<double> zero(one.size(), 0.0);
      const std::vector<double> weight(one.size(), -1.0 / 96.0);
      w.put_f64_span(one);
      w.put_f64_span(zero);
      w.put_f64_span(weight);
      w.put_f64_span(nodes);
      w.put_f64_span(nodes);
      w.put_f64_span(nodes);
    }
    w.end_section();
    w.finish();
    return to_vec(w.bytes());
  };

  simpic::DistributedPic dist(opts, 4);
  restore_from(dist, snapshot_with_particle_at(0.2));  // inside cell 19
  EXPECT_EQ(dist.num_particles(), 1);
  EXPECT_THROW(restore_from(dist, snapshot_with_particle_at(below_quarter)),
               CheckError);
}

TEST(CkptSections, DistributedSolverRoundTripsByteIdentically) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  mgcfd::EulerOptions opt;
  mgcfd::DistributedSolver a(m, 4, opt);
  a.set_uniform(mgcfd::freestream(0.4));
  a.set_cell(0, {1.2, 0.1, 0.0, 0.0, 2.8});
  a.run(3);
  const auto bytes = snapshot_of(a);

  mgcfd::DistributedSolver b(m, 4, opt);
  restore_from(b, bytes);
  EXPECT_EQ(snapshot_of(b), bytes);

  a.step();
  b.step();
  EXPECT_EQ(snapshot_of(a), snapshot_of(b));
}

// The distributed solvers' sections once stored a one-byte step-mode
// flag after their header fields. The layout changed with no shim and no
// version bump: the bounds and end-of-section checks reject a section
// written with that byte instead of misreading it. Each helper re-encodes
// a current snapshot, with or without the byte; without it, the copy must
// restore and re-serialize to the same bytes, so the rejection is the
// byte's doing alone.

std::vector<std::byte> distributed_solver_section(
    const std::vector<std::byte>& current, bool flag_byte) {
  ckpt::Reader r(current);
  r.open_section("mgcfd/distributed");
  ckpt::Writer w;
  w.begin();
  w.begin_section("mgcfd/distributed");
  w.put_i64(r.get_i64());  // cells
  const std::uint32_t parts = r.get_u32();
  w.put_u32(parts);
  if (flag_byte) {
    w.put_u8(0);
  }
  for (std::uint32_t p = 0; p < parts; ++p) {
    const std::uint64_t slots = r.get_u64();
    w.put_u64(slots);
    for (std::uint64_t k = 0; k < 5 * slots; ++k) {
      w.put_f64(r.get_f64());
    }
  }
  r.end_section();
  w.end_section();
  w.finish();
  return to_vec(w.bytes());
}

TEST(CkptSections, DistributedSolverRestoreRejectsParentLayout) {
  const mesh::UnstructuredMesh m = mesh::make_box_mesh(6, 6, 6);
  mgcfd::EulerOptions opt;
  mgcfd::DistributedSolver a(m, 4, opt);
  a.set_uniform(mgcfd::freestream(0.4));
  a.set_cell(0, {1.2, 0.1, 0.0, 0.0, 2.8});
  a.run(3);
  const auto bytes = snapshot_of(a);

  mgcfd::DistributedSolver b(m, 4, opt);
  restore_from(b, distributed_solver_section(bytes, false));
  EXPECT_EQ(snapshot_of(b), bytes);
  EXPECT_THROW(restore_from(b, distributed_solver_section(bytes, true)),
               CheckError);
}

std::vector<std::byte> distributed_pic_section(
    const std::vector<std::byte>& current, bool flag_byte) {
  ckpt::Reader r(current);
  r.open_section("simpic/distributed");
  ckpt::Writer w;
  w.begin();
  w.begin_section("simpic/distributed");
  w.put_i64(r.get_i64());  // cells
  w.put_f64(r.get_f64());  // length
  w.put_f64(r.get_f64());  // dt
  w.put_u64(r.get_u64());  // seed
  const std::uint32_t parts = r.get_u32();
  w.put_u32(parts);
  w.put_u64(r.get_u64());  // RNG counter
  w.put_f64(r.get_f64());  // background
  w.put_i64(r.get_i64());  // last migrations
  if (flag_byte) {
    w.put_u8(0);
  }
  std::vector<double> field;
  for (std::uint32_t p = 0; p < parts; ++p) {
    for (int k = 0; k < 6; ++k) {  // x, v, w, rho, phi, e
      r.get_f64_vec(field);
      w.put_f64_span(field);
    }
  }
  r.end_section();
  w.end_section();
  w.finish();
  return to_vec(w.bytes());
}

TEST(CkptSections, DistributedPicRestoreRejectsParentLayout) {
  simpic::PicOptions opts;
  opts.cells = 64;
  opts.seed = 42;
  opts.boundary = simpic::Boundary::kAbsorbing;
  simpic::DistributedPic a(opts, 4);
  a.load_uniform(10, 0.05, 0.01);
  a.run(3);
  const auto bytes = snapshot_of(a);

  simpic::DistributedPic b(opts, 4);
  restore_from(b, distributed_pic_section(bytes, false));
  EXPECT_EQ(snapshot_of(b), bytes);
  EXPECT_THROW(restore_from(b, distributed_pic_section(bytes, true)),
               CheckError);
}

TEST(CkptSections, ClusterAndProfileRoundTripByteIdentically) {
  const auto machine = sim::MachineModel::archer2();
  sim::Cluster a(machine, 8);
  const auto rgn = a.region("work");
  const auto rgn2 = a.region("exchange");
  for (sim::Rank r = 0; r < 8; ++r) {
    a.compute_seconds(r, 0.5 + static_cast<double>(r), rgn);
  }
  const sim::Message msg[] = {{0, 5, 4096}};
  a.exchange(a.make_schedule(msg), rgn2);
  a.allreduce({0, 8}, 64, rgn2);
  a.begin_step(3);
  const auto bytes = snapshot_of(a);

  sim::Cluster b(machine, 8);
  restore_from(b, bytes);
  EXPECT_EQ(snapshot_of(b), bytes);
  EXPECT_EQ(b.clock(5), a.clock(5));
  EXPECT_EQ(b.current_step(), 3);
  EXPECT_EQ(b.comm_bytes({0, 8}), a.comm_bytes({0, 8}));
}

// --- Fault injection ---

TEST(CkptFault, InjectedFailureKillsTheArmedRankAtItsStep) {
  const auto machine = sim::MachineModel::archer2();
  sim::Cluster c(machine, 4);
  const auto rgn = c.region("step");
  c.inject_failure(2, 3);
  EXPECT_TRUE(c.failure_armed());

  c.begin_step(2);  // before the armed step: everything runs
  EXPECT_NO_THROW(c.compute_seconds(2, 0.1, rgn));

  c.begin_step(3);  // the armed step: rank 2 dies, others are fine
  EXPECT_NO_THROW(c.compute_seconds(1, 0.1, rgn));
  try {
    c.compute_seconds(2, 0.1, rgn);
    FAIL() << "expected RankFailure";
  } catch (const sim::RankFailure& e) {
    EXPECT_EQ(e.rank(), 2);
    EXPECT_EQ(e.step(), 3);
  }
  const sim::Message msg[] = {{2, 0, 64}};
  const sim::ExchangeSchedule from_dead = c.make_schedule(msg);
  EXPECT_THROW(c.exchange(from_dead, rgn), sim::RankFailure);

  c.clear_failure();
  EXPECT_FALSE(c.failure_armed());
  EXPECT_NO_THROW(c.compute_seconds(2, 0.1, rgn));
}

TEST(CkptFault, ResetClocksZeroesTimingButKeepsRegions) {
  const auto machine = sim::MachineModel::archer2();
  sim::Cluster c(machine, 4);
  const auto rgn = c.region("warm");
  c.compute_seconds(0, 1.0, rgn);
  const sim::Message msg[] = {{0, 1, 1 << 20}};
  c.exchange(c.make_schedule(msg), rgn);
  ASSERT_GT(c.max_clock(), 0.0);
  ASSERT_GT(c.comm_bytes({0, 4}), 0u);

  c.reset_clocks();
  EXPECT_EQ(c.max_clock(), 0.0);
  EXPECT_EQ(c.comm_bytes({0, 4}), 0u);
  EXPECT_EQ(c.comm_messages({0, 4}), 0);
  EXPECT_EQ(c.comm_hidden_seconds({0, 4}), 0.0);
  // The profile is deliberately kept (see measure_step_seconds callers);
  // the region table survives either way.
  EXPECT_EQ(c.region("warm"), rgn);
}

// --- Strict case-file parsing (workflow::case_io) ---

TEST(CkptCaseIo, RejectsTrailingJunkInNumericFields) {
  std::istringstream in("instance mgcfd a cells=2400000x\n");
  EXPECT_THROW(workflow::load_engine_case(in), CheckError);
}

TEST(CkptCaseIo, RejectsEmptyNumericFields) {
  // A case file truncated mid-token leaves "cells=" with no digits.
  std::istringstream in("instance mgcfd a cells=\n");
  EXPECT_THROW(workflow::load_engine_case(in), CheckError);
}

TEST(CkptCaseIo, RejectsOverflowingNumericFields) {
  std::istringstream in(
      "instance mgcfd a cells=99999999999999999999999999\n");
  EXPECT_THROW(workflow::load_engine_case(in), CheckError);
}

TEST(CkptCaseIo, RejectsJunkStepCounts) {
  std::istringstream in(
      "pressure_steps_per_density_step 2x\ninstance mgcfd a cells=1000\n");
  EXPECT_THROW(workflow::load_engine_case(in), CheckError);
}

TEST(CkptCaseIo, StillParsesWellFormedNumbers) {
  std::istringstream in("instance mgcfd a cells=2400000 iters=10\n");
  const workflow::EngineCase ec = workflow::load_engine_case(in);
  ASSERT_EQ(ec.instances.size(), 1u);
  EXPECT_EQ(ec.instances[0].mesh_cells, 2'400'000);
  EXPECT_EQ(ec.instances[0].iterations_per_density_step, 10);
}

// --- Coupled simulation: kill, restore, resume byte-identically ---

workflow::RankAssignment small_case_assignment() {
  workflow::RankAssignment ra;
  ra.app_ranks = {300, 4000, 300};
  ra.cu_ranks = {16, 8, 8};
  return ra;
}

TEST(CkptCoupled, RestoreRejectsSnapshotFromDifferentSetup) {
  const workflow::EngineCase c = workflow::small_validation_case();
  const auto machine = sim::MachineModel::archer2();
  workflow::CoupledSimulation a(c, machine, small_case_assignment());
  a.run(2);
  const std::vector<std::byte> bytes = to_vec(a.checkpoint_bytes());

  workflow::RankAssignment other = small_case_assignment();
  other.cu_ranks.back() += 4;
  workflow::CoupledSimulation b(c, machine, other);
  EXPECT_THROW(b.restore(std::span<const std::byte>(bytes)), CheckError);
}

TEST(CkptCoupled, CadenceSnapshotsAreRestorable) {
  const workflow::EngineCase c = workflow::small_validation_case();
  const auto machine = sim::MachineModel::archer2();
  const std::string path = ::testing::TempDir() + "cpx_cadence.ckpt";

  workflow::CoupledSimulation sim(c, machine, small_case_assignment());
  sim.set_checkpoint_cadence(2, path);
  ASSERT_EQ(sim.checkpoint_cadence(), 2);
  sim.run(4);  // snapshots after steps 2 and 4; the file holds step 4

  workflow::CoupledSimulation fresh(c, machine, small_case_assignment());
  fresh.restore(path);
  EXPECT_EQ(fresh.density_steps_run(), 4);

  sim.run(2);
  fresh.run(2);
  EXPECT_EQ(to_vec(sim.checkpoint_bytes()), to_vec(fresh.checkpoint_bytes()));
}

TEST(CkptCoupled, EnvironmentCadenceIsParsedStrictly) {
  // CPX_CKPT_EVERY is read when a CoupledSimulation is built: a whole
  // non-negative count sets the cadence, an empty value or 0 leaves it
  // off, and anything else throws (a numeric prefix is not a count).
  const workflow::EngineCase c = workflow::small_validation_case();
  const auto machine = sim::MachineModel::archer2();
  const auto cadence_for = [&](const char* every) {
    ::setenv("CPX_CKPT_EVERY", every, 1);
    const workflow::CoupledSimulation sim(c, machine, small_case_assignment());
    return sim.checkpoint_cadence();
  };
  EXPECT_EQ(cadence_for("3"), 3);
  EXPECT_EQ(cadence_for(""), 0);
  EXPECT_EQ(cadence_for("0"), 0);
  for (const char* bad : {"10x", "x", "-1", " 5", "+5", "99999999999"}) {
    EXPECT_THROW(cadence_for(bad), CheckError) << "CPX_CKPT_EVERY=" << bad;
  }
  ::unsetenv("CPX_CKPT_EVERY");
}

TEST(CkptCoupled, KilledRunRestoredFromSnapshotFinishesByteIdentically) {
  const workflow::EngineCase c = workflow::small_validation_case();
  const auto machine = sim::MachineModel::archer2();
  // Two victims: rank 1 dies sending its halo; the first rank of the
  // sliding-plane coupler, which receives but sends nothing in its
  // gather, dies inside the gather's overlap window when overlap is on.
  const sim::Rank first_cu = 300 + 4000 + 300;
  const sim::Rank victims[] = {1, first_cu};

  // The paper's restart contract, exercised at each supported thread
  // count, with overlap off and on: the snapshot format (and the state it
  // captures) must be CPX_THREADS-independent, so the reference bytes
  // must also agree across thread counts.
  constexpr int kThreadCounts[] = {1, 4, 16};
  for (const bool overlap : {false, true}) {
    std::vector<std::byte> baseline;
    for (const int threads : kThreadCounts) {
      support::set_max_threads(threads);
      const auto simulation = [&] {
        auto sim = std::make_unique<workflow::CoupledSimulation>(
            c, machine, small_case_assignment());
        sim->set_overlap_enabled(overlap);
        return sim;
      };
      const std::string where = "at CPX_THREADS=" + std::to_string(threads) +
                                (overlap ? " with overlap" : "");

      // Uninterrupted reference: 6 density steps.
      const auto ref = simulation();
      ref->run(6);
      const std::vector<std::byte> ref_bytes = to_vec(ref->checkpoint_bytes());

      for (const sim::Rank rank : victims) {
        // Victim: snapshot after step 3, then a rank dies at step 4.
        const auto victim = simulation();
        victim->run(3);
        const std::vector<std::byte> mid = to_vec(victim->checkpoint_bytes());
        victim->cluster().inject_failure(rank, 4);
        EXPECT_THROW(victim->run(3), sim::RankFailure);

        // Recovery into a fresh simulation: it restores the snapshot and
        // runs to the end; its final snapshot must be bitwise-equal to the
        // reference.
        const auto resumed = simulation();
        resumed->restore(std::span<const std::byte>(mid));
        EXPECT_EQ(resumed->density_steps_run(), 3);
        resumed->run(3);
        EXPECT_EQ(to_vec(resumed->checkpoint_bytes()), ref_bytes)
            << "restored run of victim " << rank << " diverged " << where;
        EXPECT_EQ(resumed->runtime(), ref->runtime());

        // Recovery in place: the failed simulation itself restores the
        // snapshot, with nothing of the step it died in left behind.
        victim->restore(std::span<const std::byte>(mid));
        victim->cluster().clear_failure();
        victim->run(3);
        EXPECT_EQ(to_vec(victim->checkpoint_bytes()), ref_bytes)
            << "in-place recovery of victim " << rank << " diverged "
            << where;
      }

      if (baseline.empty()) {
        baseline = ref_bytes;
      } else {
        EXPECT_EQ(ref_bytes, baseline)
            << "snapshot differs between CPX_THREADS=1 and " << where;
      }
    }
  }
  support::set_max_threads(1);
}

}  // namespace
}  // namespace cpx
