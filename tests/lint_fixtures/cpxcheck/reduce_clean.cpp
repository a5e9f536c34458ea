// cpxcheck fixture — reduce rule, CLEAN cases: reductions go through the
// blas1 wrappers; the name in a comment or string, or as part of another
// identifier, is not a call.

namespace fix {

// parallel_reduce(...) is for support/blas1 only.
const char* kNote = "parallel_reduce(0, n, grain, f)";

double total(std::span<const double> x) { return blas1::sum(x); }

double tally(const double* x, long n) { return my_parallel_reduce(x, n); }

}  // namespace fix
