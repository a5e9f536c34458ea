// cpxcheck fixture — allow-audit rule, TRIGGER cases. A suppression that
// names a rule which does not exist, or that silences no finding of the
// rule it names, enforces nothing, silently.

namespace fix {

int racy_read(const int* p) {
  // cpx-lint: allow(mt-unsafe)
  return *p;  // the allow above names an unknown rule: EXPECT allow-audit
}

int plain_read(const int* p) {
  // cpx-lint: allow(naked-new)
  return *p;  // no `new` here, so the allow above is dead: EXPECT allow-audit
}

}  // namespace fix
