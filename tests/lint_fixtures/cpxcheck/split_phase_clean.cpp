// cpxcheck fixture — split-phase rule, CLEAN cases. Zero findings.

#include "comm/exchange_plan.hpp"

namespace fix {

// Well-formed window with compute inside it.
double balanced(comm::Communicator& comm, double acc) {
  comm::ExchangePlan plan;
  plan.begin(comm, nullptr);
  acc += 1.0;  // interior work, no ghost reads
  plan.finish(comm, nullptr);
  return acc;
}

// Container begin() with arguments is NOT a window: the receiver's
// declared type resolves to a non-plan class (a per-line regex would
// have to rely on argument count here).
int container_begin(std::vector<int>& v) {
  auto it = v.begin();
  std::advance(it, 1);
  return *it;
}

// Returning the handle transfers window ownership to the caller (the
// sim::begin_exchange wrapper pattern): not a leak.
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
