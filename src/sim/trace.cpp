#include "sim/trace.hpp"

#include <ostream>

#include "sim/cluster.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"

namespace cpx::sim {

void Trace::record(Rank rank, RegionId region, TraceKind kind, double start,
                   double end) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  // cpx-lint: allow(solve-alloc) — opt-in event log; tracing is off by default (SolverAllocations.WarmDistributedEulerStepAllocatesNothing)
  events_.push_back({rank, region, kind, start, end});
}

void Trace::clear() {
  events_.clear();
  dropped_ = 0;
}

void write_chrome_trace(std::ostream& os, const Cluster& cluster) {
  CPX_REQUIRE(cluster.tracing_enabled(),
              "write_chrome_trace: tracing is not enabled on this cluster");
  const Trace& trace = *cluster.trace();
  const Profile& profile = cluster.profile();
  os << "[\n";
  // Metadata event first: the dropped-event count, so a truncated timeline
  // (the Trace store is bounded) is detectable instead of silently partial.
  os << R"({"name":"cpx_trace_dropped","ph":"M","pid":0,"tid":0,"args":{"dropped":)"
     << trace.dropped() << "}}";
  for (const TraceEvent& e : trace.events()) {
    // Chrome trace-event "complete" events; virtual seconds -> micros.
    // Region names are user-provided and must be escaped: an unescaped
    // '"' or '\' would make the whole file invalid JSON.
    os << ",\n"
       << R"({"name":")"
       << support::metrics::json_escape(profile.region_name(e.region))
       << R"(","cat":")"
       << (e.kind == TraceKind::kCompute ? "compute" : "comm")
       << R"(","ph":"X","ts":)" << e.start * 1e6 << R"(,"dur":)"
       << (e.end - e.start) * 1e6 << R"(,"pid":)" << cluster.node_of(e.rank)
       << R"(,"tid":)" << e.rank << "}";
  }
  os << "\n]\n";
}

}  // namespace cpx::sim
