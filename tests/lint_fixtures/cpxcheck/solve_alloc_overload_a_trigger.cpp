// cpxcheck fixture — solve-alloc rule, TRIGGER cases for one qualified
// name with two definitions: the overloads of `fix::twice::amg::pcg` and
// of `fix::twice::relax` are split over this file and
// solve_alloc_overload_b_clean.cpp. Only the definitions here allocate,
// and the analysed files are read in path order, so a rule that kept one
// definition per qualified name (the last read) would miss both. Calls
// are not resolved to an overload, so every definition of a reached name
// is checked.

#include <vector>

namespace fix::twice {

void relax(std::vector<double>& v) {
  v.push_back(0.0);  // EXPECT solve-alloc (a `relax` is reached from pcg)
}

namespace amg {

double pcg(std::vector<double>& v) {
  v.resize(4);  // EXPECT solve-alloc (this pcg is an entry too)
  return v[0];
}

}  // namespace amg
}  // namespace fix::twice
