// cpxcheck fixture — metrics-registry rule, TRIGGER case: a metric name
// that the registry does not list.

namespace fix {

void solve() {
  CPX_METRICS_SCOPE("fix/solve");
  support::metrics::counter_add("fix/unlisted", 1);  // EXPECT metrics-registry
}

}  // namespace fix
