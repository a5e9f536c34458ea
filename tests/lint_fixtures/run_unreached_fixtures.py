#!/usr/bin/env python3
"""Fixture tests for the unreached-function report
(tools/unreached_symbols.py, docs/static_analysis.md).

Runs the report on the canned `nm` listings in tests/lint_fixtures/unreached,
one case per run:

  kept         a function a program keeps is not reported, even with an
               empty keep-list; the listing's constructor has two symbols
               (C1, C2), of which the program keeps one: it is reached
  unreached    an unreached function is reported under its object and
               fails the run
  keep_listed  a keep-listed unreached function is silent
  stale        a keep-list pattern that matches no unreached function
               fails the run

Each case is its own ctest (`unreached_fixtures_<case>`, label `lint`);
with no argument every case runs:

    python3 tests/lint_fixtures/run_unreached_fixtures.py [case...]
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent / "unreached"
TOOL = HERE.parent.parent.parent / "tools" / "unreached_symbols.py"

failures: list[str] = []


def report(libs: list[str], keep: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(TOOL),
         "--libs", *(str(HERE / lib) for lib in libs),
         "--programs", str(HERE / "program.nm"),
         "--keep-list", str(HERE / keep)],
        capture_output=True, text=True)
    if proc.stderr:
        failures.append(f"stderr: {proc.stderr.strip()}")
    return proc.returncode, proc.stdout.splitlines()


def expect(case: str, got: tuple[int, list[str]], code: int,
           lines: list[str]) -> None:
    body = got[1][:-1]  # the last line is the summary
    if got[0] != code or body != lines:
        failures.append(f"{case}: exit {got[0]}, output {got[1]!r}; "
                        f"expected exit {code}, lines {lines!r}")
    else:
        print(f"  ok: {case}")


CASES = {
    "kept": lambda: expect(
        "a kept function is not reported without a keep-list",
        report(["libcpx_demo.a.nm"], "keep_none.txt"), 1,
        ["libcpx_demo.a(demo.cpp.o)", "  cpx::demo::seam()"]),
    "unreached": lambda: expect(
        "an unreached function is reported under its object",
        report(["libcpx_demo.a.nm", "libcpx_extra.a.nm"], "keep.txt"), 1,
        ["libcpx_extra.a(extra.cpp.o)", "  cpx::demo::unused()"]),
    "keep_listed": lambda: expect(
        "kept and keep-listed functions are silent",
        report(["libcpx_demo.a.nm"], "keep.txt"), 0, []),
    "stale": lambda: expect(
        "a stale keep-list pattern fails",
        report(["libcpx_demo.a.nm"], "keep_stale.txt"), 1,
        ["stale keep-list entry (oracle): 'cpx::demo::gone(' matches no "
         "unreached function"]),
}


def main(cases: list[str]) -> int:
    unknown = [c for c in cases if c not in CASES]
    if unknown:
        print(f"unknown case(s) {unknown}; expected some of {list(CASES)}")
        return 2
    for case in cases or CASES:
        CASES[case]()
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        return 1
    print("run_unreached_fixtures: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
