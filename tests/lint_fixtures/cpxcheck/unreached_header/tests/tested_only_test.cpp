// cpxcheck fixture — unreached-header rule: a test source, which is not
// among the program sources the include graph starts from.

#include "fix/tested_only_trigger.hpp"

int check_tested_only() { return fix::tested_only(); }
