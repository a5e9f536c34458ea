// cpxcheck fixture — allow-audit rule, CLEAN cases: an allow that names a
// rule from `cpxcheck --list` and silences a finding of that rule, on its
// own line or on the next, passes the audit.

#include <cstddef>

namespace fix {

void* grab(std::size_t bytes) {
  // cpx-lint: allow(naked-new) — the marker silences the line below
  return ::operator new(bytes);
}

void give_back(void* p) {
  ::operator delete(p);  // cpx-lint: allow(naked-new) — same-line marker
}

}  // namespace fix
