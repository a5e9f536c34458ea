// cpxcheck fixture — split-phase rule, TRIGGER cases.
// Never compiled; consumed by tests/lint_fixtures/run_fixtures.py, which
// asserts the exact file:line:rule findings below.

#include "sim/cluster.hpp"

namespace fix {

// Early return inside an open window (finding at the return).
double early_return(sim::Cluster& cluster, std::vector<Message>& msgs,
                    bool err) {
  const int h = cluster.exchange_begin(msgs, 0);
  if (err) {
    return -1.0;  // EXPECT split-phase: leaves the open window
  }
  cluster.exchange_finish(h);
  return 0.0;
}

// Window handle that is never finished (finding at the begin).
void leaked_handle(sim::Cluster& cluster, std::vector<Message>& msgs) {
  const int h = cluster.exchange_begin(msgs, 0);  // EXPECT split-phase
  (void)h;
}

// Window finished on only one branch (finding at the if).
void one_branch(sim::Cluster& cluster, std::vector<Message>& msgs,
                bool flip) {
  const int h = cluster.exchange_begin(msgs, 0);
  if (flip) {  // EXPECT split-phase: branch divergence
    cluster.exchange_finish(h);
  }
}

// Window opened in every iteration but finished only after the loop
// (finding at the loop).
void unbalanced_loop(sim::Cluster& cluster, std::vector<Message>& msgs) {
  int h = -1;
  for (int i = 0; i < 4; ++i) {  // EXPECT split-phase: loop imbalance
    h = cluster.exchange_begin(msgs, 0);
  }
  cluster.exchange_finish(h);
}

}  // namespace fix
