#pragma once  // cpx-lint: allow(unreached-header) — a tool reads it as data
// cpxcheck fixture — unreached-header rule, CLEAN case: no source
// includes this header, but the marker above says why that is correct.

namespace fix {

constexpr const char* kListedNames[] = {"a", "b"};

}  // namespace fix
