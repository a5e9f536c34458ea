#pragma once
// cpxcheck fixture — unreached-header rule, CLEAN case: only
// reached_clean.cpp includes this header, and that file is linked in by
// the header the program includes.

namespace fix {

constexpr int kAnswer = 0;

}  // namespace fix
