// cpxcheck fixture — solve-alloc rule, CLEAN half of
// solve_alloc_overload_a_trigger.cpp: the allocation-free overloads of
// `fix::twice::relax` and `fix::twice::amg::pcg`.

namespace fix::twice {

void relax(double* x) { x[0] = 0.0; }

namespace amg {

double pcg(double* x) {
  relax(x);
  return x[0];
}

}  // namespace amg
}  // namespace fix::twice
