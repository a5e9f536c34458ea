// Tests of the tiered invariant-checking layer (docs/static_analysis.md):
// level parsing and gating, and — for every deep validator — both
// directions: the seed fixture passes and a deliberately corrupted
// structure is rejected with CheckError.

#include <gtest/gtest.h>

#include <vector>

#include "amg/hierarchy.hpp"
#include "cpx/interpolation.hpp"
#include "mesh/mesh.hpp"
#include "mesh/partition.hpp"
#include "perfmodel/allocator.hpp"
#include "simpic/pic.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/check.hpp"

namespace cpx {
namespace {

/// Forces a checking tier for one test and restores the previous one.
class ScopedLevel {
 public:
  explicit ScopedLevel(check::Level l) : previous_(check::level()) {
    check::set_level(l);
  }
  ~ScopedLevel() { check::set_level(previous_); }

 private:
  check::Level previous_;
};

// --- Tier machinery ---

TEST(CheckLevel, ParsesNamesAndNumbers) {
  using check::Level;
  EXPECT_EQ(check::parse_level("off", Level::kAssert), Level::kOff);
  EXPECT_EQ(check::parse_level("none", Level::kAssert), Level::kOff);
  EXPECT_EQ(check::parse_level("0", Level::kAssert), Level::kOff);
  EXPECT_EQ(check::parse_level("assert", Level::kOff), Level::kAssert);
  EXPECT_EQ(check::parse_level("1", Level::kOff), Level::kAssert);
  EXPECT_EQ(check::parse_level("debug", Level::kOff), Level::kDebug);
  EXPECT_EQ(check::parse_level("2", Level::kOff), Level::kDebug);
  EXPECT_EQ(check::parse_level("paranoid", Level::kOff), Level::kParanoid);
  EXPECT_EQ(check::parse_level("3", Level::kOff), Level::kParanoid);
  // Unknown or missing text falls back.
  EXPECT_EQ(check::parse_level("verbose", Level::kAssert), Level::kAssert);
  EXPECT_EQ(check::parse_level(nullptr, Level::kDebug), Level::kDebug);
}

TEST(CheckLevel, GatesAreCumulative) {
  ScopedLevel guard(check::Level::kAssert);
  EXPECT_FALSE(check::deep());
  EXPECT_FALSE(check::paranoid());
  check::set_level(check::Level::kDebug);
  EXPECT_TRUE(check::deep());
  EXPECT_FALSE(check::paranoid());
  check::set_level(check::Level::kParanoid);
  EXPECT_TRUE(check::deep());
  EXPECT_TRUE(check::paranoid());
}

TEST(CheckMacros, AlwaysOnTierFiresAtEveryLevel) {
  ScopedLevel guard(check::Level::kOff);
  EXPECT_THROW(CPX_CHECK(1 == 2), CheckError);
  EXPECT_THROW(CPX_CHECK_MSG(false, "context " << 42), CheckError);
  EXPECT_THROW(CPX_REQUIRE(false, "bad argument"), CheckError);
  EXPECT_NO_THROW(CPX_CHECK(1 == 1));
}

TEST(CheckMacros, CheckErrorCarriesLocationAndMessage) {
  try {
    CPX_CHECK_MSG(2 + 2 == 5, "arithmetic is safe, value=" << 4);
    FAIL() << "CPX_CHECK_MSG did not throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("check_test.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("value=4"), std::string::npos) << what;
  }
}

// --- CSR structure validator ---

TEST(CsrValidator, AcceptsWellFormedMatrix) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(8, 8);
  EXPECT_NO_THROW(a.validate());
}

TEST(CsrValidator, RejectsUnsortedColumns) {
  ScopedLevel guard(check::Level::kAssert);  // admit the corrupt structure
  const sparse::CsrMatrix bad(2, 3, {0, 2, 3}, {2, 0, 1},
                              {1.0, 2.0, 3.0}, sparse::Trusted{});
  EXPECT_THROW(bad.validate(), CheckError);
}

TEST(CsrValidator, RejectsColumnOutOfRange) {
  ScopedLevel guard(check::Level::kAssert);
  const sparse::CsrMatrix bad(2, 2, {0, 1, 2}, {0, 5}, {1.0, 1.0},
                              sparse::Trusted{});
  EXPECT_THROW(bad.validate(), CheckError);
}

TEST(CsrValidator, TrustedTagAuditsWhenDeep) {
  ScopedLevel guard(check::Level::kDebug);
  // The same corrupt structure is now caught at construction: the Trusted
  // tag skips only the O(nnz) audit that the deep tier re-enables.
  EXPECT_THROW(sparse::CsrMatrix(2, 3, {0, 2, 3}, {2, 0, 1},
                                 {1.0, 2.0, 3.0}, sparse::Trusted{}),
               CheckError);
}

// --- AMG hierarchy validator ---

TEST(AmgValidator, AcceptsFreshAndResetHierarchy) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(12, 12);
  amg::AmgHierarchy h(a, amg::AmgOptions{});
  EXPECT_NO_THROW(h.validate());
  sparse::CsrMatrix scaled = a;
  for (double& v : scaled.mutable_values()) {
    v *= 2.0;
  }
  h.reset_values(scaled);
  EXPECT_NO_THROW(h.validate());
}

// --- Mesh partition validators ---

TEST(PartitionValidator, AcceptsRcbPartitioning) {
  const mesh::UnstructuredMesh box = mesh::make_box_mesh(6, 6, 6);
  const mesh::Partitioning parts = mesh::partition_rcb(box, 4);
  EXPECT_NO_THROW(mesh::validate_partitioning(box, parts));
  const std::vector<mesh::LocalMesh> locals =
      mesh::extract_local_meshes(box, parts);
  EXPECT_NO_THROW(mesh::validate_local_meshes(box, parts, locals));
}

TEST(PartitionValidator, RejectsPartIdOutOfRange) {
  const mesh::UnstructuredMesh box = mesh::make_box_mesh(4, 4, 4);
  mesh::Partitioning parts = mesh::partition_rcb(box, 2);
  parts.part_of.front() = 7;
  EXPECT_THROW(mesh::validate_partitioning(box, parts), CheckError);
}

TEST(PartitionValidator, RejectsOrphanedCell) {
  const mesh::UnstructuredMesh box = mesh::make_box_mesh(4, 4, 4);
  mesh::Partitioning parts = mesh::partition_rcb(box, 2);
  std::vector<mesh::LocalMesh> locals =
      mesh::extract_local_meshes(box, parts);
  // Reassigning a cell after extraction orphans it: no local mesh owns the
  // cell its (edited) partition says it belongs to.
  parts.part_of.front() = 1 - parts.part_of.front();
  EXPECT_THROW(mesh::validate_local_meshes(box, parts, locals), CheckError);
}

TEST(PartitionValidator, RejectsBrokenHaloSymmetry) {
  const mesh::UnstructuredMesh box = mesh::make_box_mesh(4, 4, 4);
  const mesh::Partitioning parts = mesh::partition_rcb(box, 2);
  std::vector<mesh::LocalMesh> locals =
      mesh::extract_local_meshes(box, parts);
  ASSERT_FALSE(locals[0].sends.empty());
  ASSERT_FALSE(locals[0].sends[0].cells.empty());
  // Dropping one entry from a send list breaks the ghost/send pairing.
  locals[0].sends[0].cells.pop_back();
  EXPECT_THROW(mesh::validate_local_meshes(box, parts, locals), CheckError);
}

// --- Coupler stencil validator ---

TEST(StencilValidator, AcceptsIdwStencils) {
  const mesh::UnstructuredMesh donor = mesh::make_box_mesh(5, 5, 2);
  const mesh::UnstructuredMesh target = mesh::make_box_mesh(4, 4, 2, 7);
  const std::vector<coupler::Stencil> stencils =
      coupler::build_idw_stencils(donor.centroids(), target.centroids(), 4);
  EXPECT_NO_THROW(
      coupler::validate_stencils(stencils, donor.centroids().size()));
}

TEST(StencilValidator, RejectsWeightsNotSummingToOne) {
  coupler::Stencil s;
  s.donors = {0, 1};
  s.weights = {0.45, 0.45};  // sums to 0.9: constants are not preserved
  EXPECT_THROW(
      coupler::validate_stencils(std::vector<coupler::Stencil>{s}, 2),
      CheckError);
}

TEST(StencilValidator, RejectsDonorOutOfRange) {
  coupler::Stencil s;
  s.donors = {3};
  s.weights = {1.0};
  EXPECT_THROW(
      coupler::validate_stencils(std::vector<coupler::Stencil>{s}, 2),
      CheckError);
}

// --- SIMPIC validators ---

TEST(PicValidator, AcceptsLoadedPlasmaAfterSteps) {
  simpic::PicOptions opt;
  opt.cells = 32;
  simpic::Pic pic(opt);
  pic.load_uniform(10, 0.0, 0.01);
  pic.run(3);
  EXPECT_NO_THROW(pic.validate());
}

TEST(PicValidator, RejectsEscapedParticle) {
  const std::vector<double> positions = {0.1, 0.5, 1.25};  // domain is [0,1]
  EXPECT_THROW(simpic::validate_particles(positions, 1.0), CheckError);
  const std::vector<double> ok = {0.1, 0.5, 1.0};
  EXPECT_NO_THROW(simpic::validate_particles(ok, 1.0));
}

TEST(PicValidator, ChargeConservationCatchesLostCharge) {
  simpic::PicOptions opt;
  opt.cells = 16;
  simpic::Pic pic(opt);
  pic.load_uniform(8);
  pic.deposit();
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < pic.rho().size(); ++i) {
    total += (pic.rho()[i] - 1.0) * (opt.length / 16.0);
  }
  // The true deposit balances; claiming extra particle charge must throw.
  EXPECT_NO_THROW(simpic::validate_charge_conservation(
      pic.rho(), 1.0, opt.length / 16.0, opt.boundary, total));
  EXPECT_THROW(simpic::validate_charge_conservation(
                   pic.rho(), 1.0, opt.length / 16.0, opt.boundary,
                   total - 0.5),
               CheckError);
}

// --- Perfmodel allocation validator ---

perfmodel::InstanceModel scaling_model(const std::string& name, double a) {
  std::vector<perfmodel::ScalingPoint> pts;
  for (double p = 16; p <= 50000; p *= 2) {
    pts.push_back({p, a / p + 1e-6});
  }
  perfmodel::InstanceModel m;
  m.name = name;
  m.curve = perfmodel::ScalingCurve::fit(pts);
  return m;
}

TEST(AllocationValidator, AcceptsGreedyResult) {
  const std::vector<perfmodel::InstanceModel> apps = {
      scaling_model("cfd", 1000.0), scaling_model("combustion", 500.0)};
  const std::vector<perfmodel::InstanceModel> cus = {
      scaling_model("cu", 50.0)};
  const perfmodel::Allocation alloc =
      perfmodel::distribute_ranks(apps, cus, 600);
  EXPECT_NO_THROW(perfmodel::validate_allocation(alloc, apps, cus, 600));
}

TEST(AllocationValidator, RejectsInfeasibleRanks) {
  const std::vector<perfmodel::InstanceModel> apps = {
      scaling_model("cfd", 1000.0)};
  perfmodel::Allocation alloc = perfmodel::distribute_ranks(apps, {}, 100);
  perfmodel::Allocation below_min = alloc;
  below_min.app_ranks[0] = 0;  // below min_ranks
  EXPECT_THROW(perfmodel::validate_allocation(below_min, apps, {}, 100),
               CheckError);
  perfmodel::Allocation over_budget = alloc;
  over_budget.app_ranks[0] = 200;  // exceeds the budget
  EXPECT_THROW(perfmodel::validate_allocation(over_budget, apps, {}, 100),
               CheckError);
  perfmodel::Allocation wrong_time = alloc;
  wrong_time.predicted_runtime += 1.0;
  EXPECT_THROW(perfmodel::validate_allocation(wrong_time, apps, {}, 100),
               CheckError);
}

}  // namespace
}  // namespace cpx
