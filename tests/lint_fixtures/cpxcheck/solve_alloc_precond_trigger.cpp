// cpxcheck fixture — solve-alloc rule, TRIGGER case for a call hidden
// behind std::function: pcg applies its preconditioner through one, so
// the call graph never reaches the lambda a factory returns. The
// preconditioner factory is a solve entry, and a lambda's calls count as
// calls of the function that encloses it.

#include <functional>
#include <span>
#include <vector>

namespace fix::amg {

using Preconditioner =
    std::function<void(std::span<double>, std::span<const double>)>;

Preconditioner make_amg_preconditioner(std::vector<double>& trace) {
  return [&trace](std::span<double> z, std::span<const double> r) {
    trace.push_back(r[0]);  // EXPECT solve-alloc (runs in every pcg iteration)
    z[0] = r[0];
  };
}

}  // namespace fix::amg
