// cpxcheck fixture — raw-string literal handling in the lexer. The
// literal below contains an unbalanced quote, a fake plan window, ghost
// reads, rand( and a naked new: a quote-scanning stripper flips
// string/code sense on it for the rest of the file, so the literal's
// contents leak into the rules and the REAL findings after it land on
// wrong lines (or vanish). The expected findings assert both that nothing
// inside the literal is reported and that the two genuine naked-new
// findings carry exact line numbers.

namespace fix {

const char* kTemplate = R"tmpl(
  An "unbalanced quote, then: plan.begin(x); return;
  ghost_cells[i] = rand();
  auto* leak = new double[10];
)tmpl";

const char* kPlain = u8R"(second raw string, "another quote)";

int* make() {
  return new int(7);  // EXPECT naked-new (line 21)
}

void unmake(int* p) {
  delete p;  // EXPECT naked-new (line 25)
}

}  // namespace fix
