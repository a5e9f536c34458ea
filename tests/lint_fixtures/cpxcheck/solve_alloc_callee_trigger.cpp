// cpxcheck fixture — solve-alloc rule, TRIGGER cases for two call shapes
// the call graph must follow out of a method: an unqualified call of a
// namespace-scope function (the last qualifier of `fix::callee::relax` is
// a namespace, not a class) and a call with explicit template arguments.

#include <vector>

namespace fix::callee {
namespace {

std::vector<double> pool;

template <int W>
void sweep(double* x) {
  pool.push_back(x[W - 1]);  // EXPECT solve-alloc (reached via sweep<4>)
}

}  // namespace

void relax(double* x) {
  pool.resize(8);  // EXPECT solve-alloc (reached via relax)
  sweep<4>(x);
}

class AmgHierarchy {
 public:
  void cycle(double* x);
};

void AmgHierarchy::cycle(double* x) { relax(x); }

}  // namespace fix::callee
