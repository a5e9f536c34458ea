#pragma once  // only tests/ include this header: EXPECT unreached-header
// cpxcheck fixture — unreached-header rule, TRIGGER case: a test is not a
// run, so code that only its own tests reach feeds no result.

namespace fix {

int tested_only();

}  // namespace fix
