// cpxcheck fixture — solve-alloc rule, TRIGGER cases for the buffered
// standard algorithms: std::stable_sort, std::stable_partition and
// std::inplace_merge allocate a temporary buffer on every call, so each
// one reachable from a solve entry is flagged.

#include <algorithm>
#include <vector>

namespace fix::stable_trigger::amg {

struct Scratch {
  std::vector<int> order;
};

void order_matches(Scratch& s) {
  std::vector<int>& o = s.order;
  std::stable_sort(o.begin(), o.end());  // EXPECT solve-alloc
  std::stable_partition(o.begin(), o.end(),  // EXPECT solve-alloc
                        [](int v) { return v > 0; });
  std::inplace_merge(o.begin(), o.begin() + 1, o.end());  // EXPECT solve-alloc
}

double pcg(Scratch& s) {
  order_matches(s);
  return 0.0;
}

}  // namespace fix::stable_trigger::amg
