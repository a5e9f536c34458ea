#pragma once
// cpxcheck fixture — unreached-header rule, CLEAN case: examples/demo.cpp
// includes this header.

namespace fix {

int answer();

}  // namespace fix
