// cpxcheck fixture — reduce rule, TRIGGER cases: parallel_reduce called
// outside support/blas1 and the parallel runtime.

namespace fix {

double total(const double* x, long n) {
  return support::parallel_reduce(  // EXPECT reduce
      0, n, 1024, [&](long i0, long i1) {
        double s = 0.0;
        for (long i = i0; i < i1; ++i) s += x[i];
        return s;
      });
}

double total_typed(const double* x, long n) {
  return parallel_reduce<double>(0, n, 1024, x);  // EXPECT reduce
}

}  // namespace fix
