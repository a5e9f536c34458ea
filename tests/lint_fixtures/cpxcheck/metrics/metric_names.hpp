#pragma once
// cpxcheck fixture — metrics-registry rule: a miniature metric-name
// registry. "fix/stale" is used by no file: EXPECT a finding on its line.

namespace fix::metrics::names {

inline constexpr const char* kSolve = "fix/solve";
inline constexpr const char* kFlops = "fix/flops";
inline constexpr const char* kStale = "fix/stale";

}  // namespace fix::metrics::names
