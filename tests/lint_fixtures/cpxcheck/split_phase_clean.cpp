// cpxcheck fixture — split-phase rule, CLEAN cases. Zero findings.

#include "sim/cluster.hpp"

namespace fix {

// Returning the handle transfers window ownership to the caller (a
// wrapper that begins the exchange and hands the handle back): not a leak.
int handle_escapes(sim::Cluster& cluster, std::vector<Message>& msgs) {
  const int handle = cluster.exchange_begin(msgs, 0);
  return handle;
}

// Begin and finish balanced inside every iteration of a loop.
void balanced_loop(sim::Cluster& cluster, std::vector<Message>& msgs) {
  for (int i = 0; i < 4; ++i) {
    const int h = cluster.exchange_begin(msgs, 0);
    cluster.exchange_finish(h);
  }
}

}  // namespace fix
