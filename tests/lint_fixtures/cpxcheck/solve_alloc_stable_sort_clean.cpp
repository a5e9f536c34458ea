// cpxcheck fixture — solve-alloc rule, CLEAN cases for the buffered
// standard algorithms: std::sort needs no buffer, and a stable sort off
// the solve path is fine.

#include <algorithm>
#include <vector>

namespace fix::stable_clean::amg {

struct Scratch {
  std::vector<int> order;
};

double pcg(Scratch& s) {
  std::sort(s.order.begin(), s.order.end());
  return 0.0;
}

// Not reachable from any solve entry.
void setup(Scratch& s) {
  std::stable_sort(s.order.begin(), s.order.end());
}

}  // namespace fix::stable_clean::amg
