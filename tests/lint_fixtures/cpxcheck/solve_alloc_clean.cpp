// cpxcheck fixture — solve-alloc rule, CLEAN cases.

#include <vector>

namespace fix::amg {

struct Scratch {
  std::vector<double> buf;
};

// Workspace sizing reached from the solve carries an explicit, audited
// allow: it is a no-op once the workspace is warm.
void size_scratch(Scratch& s, int n) {
  s.buf.resize(static_cast<std::size_t>(n));  // cpx-lint: allow(solve-alloc) — setup-time sizing, amortised before the solve
}

// Debug-tier-gated work is off the production solve path.
void validate(Scratch& s) {
  std::vector<double> copy;
  copy.assign(s.buf.begin(), s.buf.end());
}

double pcg(Scratch& s) {
  size_scratch(s, 4);  // reached: the allow above silences its resize
  double acc = 0.0;
  for (double v : s.buf) {
    acc += v;
  }
  if (check::deep()) {
    validate(s);  // gated: not traversed
  }
  return acc;
}

// Not reachable from any solve entry: allocation is fine here.
void assemble(Scratch& s) {
  s.buf.push_back(1.0);
}

}  // namespace fix::amg
