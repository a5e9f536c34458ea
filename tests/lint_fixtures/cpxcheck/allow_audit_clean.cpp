// cpxcheck fixture — allow-audit rule, CLEAN case: an allow naming a
// rule from `cpxcheck --list` passes the audit.

#include <vector>

namespace fix {

void warm(std::vector<double>& v, int n) {
  v.reserve(static_cast<std::size_t>(n));  // cpx-lint: allow(solve-alloc)
}

}  // namespace fix
