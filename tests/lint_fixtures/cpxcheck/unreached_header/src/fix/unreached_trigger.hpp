#pragma once  // nothing includes this header: EXPECT unreached-header
// cpxcheck fixture — unreached-header rule, TRIGGER case.

namespace fix {

int orphan();

}  // namespace fix
