#pragma once
// Registry of every metrics region and counter name used in src/.
//
// Call sites keep their string literals (a literal at the CPX_METRICS_SCOPE
// macro is what makes the timer overhead a pointer store), but every literal
// must also appear here: tools/cpxcheck cross-references the two sets and
// fails on a name used in src/ but missing from this header, or listed here
// but no longer used. That keeps dashboards and docs/observability.md from
// silently drifting when a kernel is renamed. Names under "test/" are
// reserved for tests and deliberately absent.
//
// Naming convention: "<subsystem>/<event>", lower_snake within each part.

namespace cpx::support::metric_names {

// --- Regions (CPX_METRICS_SCOPE / CPX_METRICS_SCOPE_COMM) ---
inline constexpr const char* kAmgCycle = "amg/cycle";
inline constexpr const char* kAmgPcg = "amg/pcg";
inline constexpr const char* kAmgResetup = "amg/resetup";
inline constexpr const char* kAmgSetup = "amg/setup";
inline constexpr const char* kAmgSmooth = "amg/smooth";
inline constexpr const char* kCouplerExchange = "coupler/exchange";
inline constexpr const char* kCouplerInterpolate = "coupler/interpolate";
inline constexpr const char* kCouplerMapBuild = "coupler/map_build";
inline constexpr const char* kCouplerRemap = "coupler/remap";
inline constexpr const char* kCouplerSearch = "coupler/search";
inline constexpr const char* kPerfmodelDistributeRanks =
    "perfmodel/distribute_ranks";
inline constexpr const char* kPerfmodelMeasureScaling =
    "perfmodel/measure_scaling";
inline constexpr const char* kSimpicDeposit = "simpic/deposit";
inline constexpr const char* kSimpicField = "simpic/field";
inline constexpr const char* kSimpicPush = "simpic/push";
inline constexpr const char* kSparseSpgemmNumeric = "sparse/spgemm_numeric";
inline constexpr const char* kSparseSpgemmSpa = "sparse/spgemm_spa";
inline constexpr const char* kSparseSpgemmTwopass = "sparse/spgemm_twopass";
inline constexpr const char* kSparseSpmv = "sparse/spmv";
inline constexpr const char* kSparseTranspose = "sparse/transpose";
inline constexpr const char* kWorkflowDensityPhase = "workflow/density_phase";
inline constexpr const char* kWorkflowExchangePhase =
    "workflow/exchange_phase";
inline constexpr const char* kWorkflowPressurePhase =
    "workflow/pressure_phase";

// --- Counters (support::metrics::counter_add) ---
inline constexpr const char* kAmgPcgIterations = "amg/pcg_iterations";
// Roofline accounting (docs/observability.md): per-kernel flop and
// streamed-byte totals; arithmetic intensity = flops / bytes feeds
// perfmodel/roofline.hpp and bench/roofline.
inline constexpr const char* kAmgSmoothBytes = "amg/smooth_bytes";
inline constexpr const char* kAmgSmoothFlops = "amg/smooth_flops";
inline constexpr const char* kBlas1Bytes = "blas1/bytes";
inline constexpr const char* kBlas1Flops = "blas1/flops";
inline constexpr const char* kCommBytes = "comm/bytes";
inline constexpr const char* kCommMessages = "comm/messages";
inline constexpr const char* kCommOverlapHiddenNs = "comm/overlap_hidden_ns";
inline constexpr const char* kCommOverlapWindowNs = "comm/overlap_window_ns";
inline constexpr const char* kCommQueueWaitNs = "comm/queue_wait_ns";
inline constexpr const char* kAmgResetupCount = "amg/resetup";
inline constexpr const char* kAmgSolveCycles = "amg/solve_cycles";
inline constexpr const char* kCouplerExchangeBytes = "coupler/exchange_bytes";
inline constexpr const char* kCouplerInterpolateBytes =
    "coupler/interpolate_bytes";
inline constexpr const char* kCouplerInterpolateFlops =
    "coupler/interpolate_flops";
inline constexpr const char* kCouplerSearchQueries = "coupler/search_queries";
inline constexpr const char* kCouplerSearchVisited = "coupler/search_visited";
inline constexpr const char* kPoolQueueWaitNs = "pool/queue_wait_ns";
inline constexpr const char* kPoolTasks = "pool/tasks";
// Virtual clusters constructed; Cluster::reshape reuses one without
// counting (a perfmodel sweep builds one cluster, not one per point).
inline constexpr const char* kSimClustersBuilt = "sim/clusters_built";
// Messages charged by bulk exchanges: bumped once per exchange call by the
// schedule size, never inside the per-message loop.
inline constexpr const char* kSimMessages = "sim/messages";
inline constexpr const char* kSimpicDepositBytes = "simpic/deposit_bytes";
inline constexpr const char* kSimpicDepositFlops = "simpic/deposit_flops";
inline constexpr const char* kSimpicParticlesPushed =
    "simpic/particles_pushed";
inline constexpr const char* kSimpicPushBytes = "simpic/push_bytes";
inline constexpr const char* kSimpicPushFlops = "simpic/push_flops";
inline constexpr const char* kSparseSpgemmFlops = "sparse/spgemm_flops";
inline constexpr const char* kSparseSpmvBytes = "sparse/spmv_bytes";
inline constexpr const char* kSparseSpmvFlops = "sparse/spmv_flops";
inline constexpr const char* kSparseSpmvNnz = "sparse/spmv_nnz";
inline constexpr const char* kSparseTransposeNnz = "sparse/transpose_nnz";
inline constexpr const char* kWorkflowExchanges = "workflow/exchanges";

}  // namespace cpx::support::metric_names
