// cpxcheck fixture — unreached-header rule: the program source of the
// fixture tree. Everything it reaches through #include, and the .cpp of
// every header it reaches, feeds a run.

#include "fix/reached_clean.hpp"

int main() { return fix::answer(); }
