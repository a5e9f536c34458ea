// cpxcheck fixture — metrics-registry rule, CLEAN cases: listed names
// through both spellings. A name in a comment is no use:
// counter_add("fix/stale", 1) does not keep "fix/stale" registered.

namespace fix {

void exchange() {
  CPX_METRICS_SCOPE_COMM("fix/solve", 64);
  support::metrics::counter_add("fix/flops", 2);
}

}  // namespace fix
