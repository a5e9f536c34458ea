// Tests for the host observability layer (support/metrics): region
// hierarchy, thread-merged determinism, counters, exporters, and the
// disabled-path no-op guarantee.

#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "amg/hierarchy.hpp"
#include "cpx/field_coupler.hpp"
#include "cpx/search.hpp"
#include "json_parse.hpp"
#include "simpic/pic.hpp"
#include "sparse/csr.hpp"
#include "sparse/generators.hpp"
#include "support/check.hpp"
#include "support/options.hpp"
#include "support/parallel.hpp"
#include "workflow/engine_case.hpp"
#include "workflow/models.hpp"

namespace cpx::support::metrics {
namespace {

/// Every test starts and ends with the layer off and empty: the registry
/// is process-global, so leftover state would leak between tests.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(false);
    set_trace_events(false);
    reset();
  }
  void TearDown() override {
    set_enabled(false);
    set_trace_events(false);
    reset();
  }
};

std::set<std::string> region_paths() {
  std::set<std::string> paths;
  for (const RegionSnapshot& r : snapshot().regions) {
    paths.insert(r.path);
  }
  return paths;
}

TEST_F(MetricsTest, DisabledRecordsNothing) {
  ASSERT_FALSE(enabled());
  {
    CPX_METRICS_SCOPE("test/ignored");
    counter_add("test/ignored_counter", 7);
  }
  const Snapshot snap = snapshot();
  EXPECT_TRUE(snap.regions.empty());
  EXPECT_TRUE(snap.counters.empty());
}

TEST_F(MetricsTest, NestedScopesBuildSemicolonPaths) {
  set_enabled(true);
  {
    CPX_METRICS_SCOPE("test/outer");
    {
      CPX_METRICS_SCOPE("test/inner");
    }
    {
      CPX_METRICS_SCOPE_COMM("test/inner_comm");
    }
  }
  const Snapshot snap = snapshot();
  const RegionSnapshot* outer = snap.find("test/outer");
  const RegionSnapshot* inner = snap.find("test/outer;test/inner");
  const RegionSnapshot* comm = snap.find("test/outer;test/inner_comm");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(comm, nullptr);
  EXPECT_EQ(outer->calls, 1);
  EXPECT_EQ(inner->calls, 1);
  EXPECT_EQ(outer->kind, RegionKind::kCompute);
  EXPECT_EQ(comm->kind, RegionKind::kComm);
  // Time is monotone along the nesting: the outer scope contains both
  // inner scopes.
  EXPECT_GE(outer->seconds, inner->seconds);
  // No bare "test/inner" region may exist: '/' in names never nests.
  EXPECT_EQ(snap.find("test/inner"), nullptr);
}

TEST_F(MetricsTest, RegionSetIsThreadCountIndependent) {
  const sparse::CsrMatrix a = sparse::laplacian_2d(20, 20);
  std::vector<double> x(static_cast<std::size_t>(a.rows()), 1.0);
  std::vector<double> y(x.size(), 0.0);

  const int saved = max_threads();
  set_max_threads(1);
  set_enabled(true);
  sparse::spmv(a, x, y);
  const std::set<std::string> serial_paths = region_paths();
  set_enabled(false);
  reset();

  set_max_threads(4);
  set_enabled(true);
  sparse::spmv(a, x, y);
  const std::set<std::string> pooled_paths = region_paths();
  set_enabled(false);
  set_max_threads(saved);

  EXPECT_EQ(serial_paths, pooled_paths);
  EXPECT_TRUE(pooled_paths.count("sparse/spmv"));
}

TEST_F(MetricsTest, CountersSumExactlyAcrossPoolThreads) {
  const int saved = max_threads();
  set_max_threads(4);
  set_enabled(true);
  constexpr std::int64_t kN = 10'000;
  parallel_for(0, kN, 64, [](std::int64_t lo, std::int64_t hi) {
    counter_add("test/elements", hi - lo);
  });
  set_max_threads(saved);  // workers retire; their samples must survive
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.counter("test/elements"), kN);
  // The pooled run also accounts its own queue/exec overhead.
  EXPECT_GT(snap.counter("pool/tasks"), 0);
}

TEST_F(MetricsTest, EverySpmvVariantCountsFlopsAndBytes) {
  // kernel.spmv_flops_per_byte divides the flops of every SpMV variant by
  // their bytes, so each variant adds to both counters: 20 B per nonzero
  // (value, column index, x gather) plus 8 B per row for each dense
  // vector it streams.
  const sparse::CsrMatrix a = sparse::laplacian_2d(16, 16);
  const auto n = static_cast<std::size_t>(a.rows());
  const std::int64_t rows = a.rows();
  const std::int64_t nnz = a.nnz();
  const std::vector<double> x(n, 1.0);
  const std::vector<double> b(n, 2.0);
  std::vector<double> y(n, 0.0);
  struct Case {
    const char* name;
    std::function<void()> run;
    std::int64_t flops;
    std::int64_t bytes;
  };
  const std::vector<Case> cases = {
      {"spmv", [&] { sparse::spmv(a, x, y); }, 2 * nnz, 20 * nnz + 8 * rows},
      {"spmv_add", [&] { sparse::spmv_add(a, x, y, 1.0); },
       2 * nnz + 2 * rows, 20 * nnz + 16 * rows},
      {"spmv_residual", [&] { sparse::spmv_residual(a, x, b, y); },
       2 * nnz + rows, 20 * nnz + 16 * rows},
      {"spmv_residual_norm2",
       [&] { (void)sparse::spmv_residual_norm2(a, x, b, y); },
       2 * nnz + 3 * rows, 20 * nnz + 16 * rows},
  };
  set_enabled(true);
  for (const Case& c : cases) {
    reset();
    c.run();
    const Snapshot snap = snapshot();
    EXPECT_EQ(snap.counter("sparse/spmv_flops"), c.flops) << c.name;
    EXPECT_EQ(snap.counter("sparse/spmv_bytes"), c.bytes) << c.name;
  }
}

TEST_F(MetricsTest, JsonReportParsesAndCoversAllModules) {
  set_enabled(true);

  // sparse + amg: spmv and one AMG solve.
  const sparse::CsrMatrix a = sparse::laplacian_2d(24, 24);
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<double> x(n, 0.0);
  std::vector<double> b(n, 1.0);
  std::vector<double> y(n, 0.0);
  sparse::spmv(a, x, y);
  amg::AmgHierarchy hierarchy(a, {});
  hierarchy.solve(x, b, 1e-8, 20);

  // coupler: donor search + one (comm-tagged) exchange.
  std::vector<mesh::Vec3> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({0.1 * i, 0.2 * i, 0.0});
  }
  const coupler::KdTree tree(pts);
  tree.nearest_batch(pts);
  coupler::FieldCoupler fc(pts, pts, coupler::InterfaceKind::kSteadyState,
                           2);
  std::vector<double> field(pts.size(), 1.0);
  std::vector<double> out(pts.size(), 0.0);
  fc.transfer(field, out);

  // simpic: a couple of PIC steps.
  simpic::PicOptions pic_opts;
  pic_opts.cells = 32;
  simpic::Pic pic(pic_opts);
  pic.load_uniform(8, 0.05, 0.01);
  pic.run(2);

  std::ostringstream os;
  write_json(os);
  set_enabled(false);

  const testing::JsonValue doc = testing::parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  const testing::JsonValue* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "cpx-metrics-v1");

  const testing::JsonValue* regions = doc.find("regions");
  ASSERT_NE(regions, nullptr);
  ASSERT_TRUE(regions->is_array());
  double sparse_s = -1.0, amg_s = -1.0, coupler_s = -1.0, simpic_s = -1.0;
  bool saw_comm = false;
  for (const testing::JsonValue& r : regions->items) {
    const std::string& path = r.find("path")->str;
    const double seconds = r.find("seconds")->number;
    EXPECT_GE(seconds, 0.0);
    EXPECT_GE(r.find("calls")->number, 1.0);
    const std::string& kind = r.find("kind")->str;
    EXPECT_TRUE(kind == "compute" || kind == "comm");
    if (path.find("sparse/") != std::string::npos) {
      sparse_s = std::max(sparse_s, seconds);
    }
    if (path.find("amg/") != std::string::npos) {
      amg_s = std::max(amg_s, seconds);
    }
    if (path.find("coupler/") != std::string::npos) {
      coupler_s = std::max(coupler_s, seconds);
    }
    if (path.find("simpic/") != std::string::npos) {
      simpic_s = std::max(simpic_s, seconds);
    }
    if (kind == "comm") {
      saw_comm = true;
      EXPECT_NE(path.find("coupler/exchange"), std::string::npos);
    }
  }
  EXPECT_GE(sparse_s, 0.0) << "no sparse region in JSON report";
  EXPECT_GE(amg_s, 0.0) << "no amg region in JSON report";
  EXPECT_GE(coupler_s, 0.0) << "no coupler region in JSON report";
  EXPECT_GE(simpic_s, 0.0) << "no simpic region in JSON report";
  EXPECT_TRUE(saw_comm) << "no comm-kind region in JSON report";

  const testing::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_array());
  bool saw_cycles = false;
  bool saw_particles = false;
  for (const testing::JsonValue& c : counters->items) {
    if (c.find("name")->str == "amg/solve_cycles") {
      saw_cycles = c.find("value")->number >= 1.0;
    }
    if (c.find("name")->str == "simpic/particles_pushed") {
      saw_particles = c.find("value")->number >= 1.0;
    }
  }
  EXPECT_TRUE(saw_cycles);
  EXPECT_TRUE(saw_particles);
}

TEST_F(MetricsTest, ChromeTraceParsesAndEscapesNames) {
  set_enabled(true);
  set_trace_events(true);
  const std::string weird = "test/we\"ird\\name\n";
  {
    ScopedTimer outer(weird);
    CPX_METRICS_SCOPE("test/child");
  }
  std::ostringstream os;
  write_chrome_trace(os);

  const testing::JsonValue doc = testing::parse_json(os.str());
  ASSERT_TRUE(doc.is_array());
  bool saw_dropped_meta = false;
  bool saw_weird = false;
  bool saw_child = false;
  for (const testing::JsonValue& e : doc.items) {
    const testing::JsonValue* name = e.find("name");
    ASSERT_NE(name, nullptr);
    if (name->str == "cpx_metrics_dropped") {
      saw_dropped_meta = true;
      EXPECT_EQ(e.find("args")->find("dropped")->number, 0.0);
    }
    if (name->str == weird) {
      saw_weird = true;  // parser round-trips the escaped name exactly
    }
    if (name->str == weird + ";test/child") {
      saw_child = true;
      EXPECT_GE(e.find("dur")->number, 0.0);
    }
  }
  EXPECT_TRUE(saw_dropped_meta);
  EXPECT_TRUE(saw_weird);
  EXPECT_TRUE(saw_child);
}

TEST_F(MetricsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST_F(MetricsTest, ResetClearsEverything) {
  set_enabled(true);
  {
    CPX_METRICS_SCOPE("test/r");
    counter_add("test/rc", 3);
  }
  ASSERT_FALSE(snapshot().regions.empty());
  reset();
  const Snapshot snap = snapshot();
  EXPECT_TRUE(snap.regions.empty());
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_EQ(snap.trace_events, 0);
}

TEST_F(MetricsTest, ConfigureAppliesMetricsFlag) {
  const char* argv[] = {"prog", "--metrics=/tmp/cpx_metrics_test.json"};
  const Options opts = Options::parse(2, argv);
  EXPECT_TRUE(configure(opts));
  EXPECT_TRUE(enabled());
  EXPECT_EQ(output_path(), "/tmp/cpx_metrics_test.json");
}

TEST_F(MetricsTest, ConfigureRejectsEmptyMetricsPath) {
  const char* argv[] = {"prog", "--metrics="};
  const Options opts = Options::parse(2, argv);
  EXPECT_THROW(configure(opts), CheckError);
}

TEST_F(MetricsTest, SnapshotHelpersMatchAndSum) {
  set_enabled(true);
  {
    CPX_METRICS_SCOPE("test/a");
  }
  {
    CPX_METRICS_SCOPE("test/a");
    CPX_METRICS_SCOPE("test/b");
  }
  const Snapshot snap = snapshot();
  EXPECT_EQ(snap.find("test/a")->calls, 2);
  const double total = snap.seconds_matching("test/");
  EXPECT_GE(total, snap.find("test/a")->seconds);
  EXPECT_EQ(snap.counter("test/never_set"), 0);
}

TEST_F(MetricsTest, ModelSweepsReportTheirRegionsAndSimulatedMessages) {
  // The perfmodel layer is visible to the host metrics: each fitted curve
  // is one measure_scaling region on one virtual cluster (reshaped per
  // core count, not rebuilt), Alg 1 is one distribute_ranks region, and
  // the virtual cluster counts the messages its exchanges charged.
  workflow::ModelOptions options;
  options.app_sweep = {100, 250, 640};
  options.cu_sweep = {2, 8};
  options.bench_steps = 1;
  set_enabled(true);
  const workflow::CaseModels models = workflow::build_case_models(
      workflow::small_validation_case(), sim::MachineModel::archer2(),
      options);
  perfmodel::distribute_ranks(models.apps, models.cus, 2000);
  set_enabled(false);

  const Snapshot snap = snapshot();
  const RegionSnapshot* sweeps = snap.find("perfmodel/measure_scaling");
  const RegionSnapshot* alg1 = snap.find("perfmodel/distribute_ranks");
  ASSERT_NE(sweeps, nullptr);
  ASSERT_NE(alg1, nullptr);
  // One sweep per distinct app configuration and one per coupler unit.
  EXPECT_GT(sweeps->calls, static_cast<std::int64_t>(models.cus.size()));
  EXPECT_LE(sweeps->calls, static_cast<std::int64_t>(models.apps.size() +
                                                      models.cus.size()));
  EXPECT_EQ(snap.counter("sim/clusters_built"), sweeps->calls);
  EXPECT_EQ(alg1->calls, 1);
  EXPECT_GT(snap.counter("sim/messages"), 0);
}

}  // namespace
}  // namespace cpx::support::metrics
