// cpxcheck fixture — unreached-header rule: the .cpp behind a reached
// header is reached too, and so is everything it includes.

#include "fix/reached_clean.hpp"

#include "fix/impl_only_clean.hpp"

namespace fix {

int answer() { return kAnswer; }

}  // namespace fix
