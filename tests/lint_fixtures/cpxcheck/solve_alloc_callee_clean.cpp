// cpxcheck fixture — solve-alloc rule, CLEAN cases for the call shapes of
// solve_alloc_callee_trigger.cpp. Unqualified lookup finds the innermost
// enclosing namespace, so the allocating `relax` in an unrelated namespace
// is not on this solve path, and the template callee does not allocate.

#include <vector>

namespace fix::unrelated {

void relax(std::vector<double>& v) {
  v.push_back(0.0);  // not reachable: a different namespace's `relax`
}

}  // namespace fix::unrelated

namespace fix::callee_clean {

template <int W>
void sweep(double* x) {
  x[0] *= W;
}

void relax(double* x) { sweep<2>(x); }

class AmgHierarchy {
 public:
  void solve(double* x);
};

void AmgHierarchy::solve(double* x) { relax(x); }

}  // namespace fix::callee_clean
