#!/usr/bin/env python3
"""Fixture tests for the static-analysis tools (docs/static_analysis.md).

Runs cpxcheck over tests/lint_fixtures/cpxcheck and asserts the EXACT
`path:line:rule` finding set recorded in expected_cpxcheck.txt: trigger fixtures must fire on their marked lines,
clean fixtures must stay silent. Also unit-tests the lexer's literal
handling and the `--list --json` rule inventory, which must give every
rule at least one expected finding.

Registered as a ctest (label `lint`); runs standalone too:

    python3 tests/lint_fixtures/run_fixtures.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent

FINDING_RE = re.compile(r"^(.+?):(\d+): \[([a-z-]+)\]")

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"FAIL: {msg}")


def ok(msg: str) -> None:
    print(f"  ok: {msg}")


def run(cmd: list[str]) -> tuple[int, str]:
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def findings_of(output: str) -> set[str]:
    out = set()
    for line in output.splitlines():
        m = FINDING_RE.match(line)
        if m:
            path = Path(m.group(1)).as_posix()
            out.add(f"{path}:{m.group(2)}:{m.group(3)}")
    return out


def check_findings(name: str, cmd: list[str], expected_file: Path) -> None:
    code, output = run(cmd)
    got = findings_of(output)
    expected = {line.strip()
                for line in expected_file.read_text().splitlines()
                if line.strip()}
    missing = expected - got
    extra = got - expected
    for f in sorted(missing):
        fail(f"{name}: expected finding not reported: {f}")
    for f in sorted(extra):
        fail(f"{name}: unexpected finding: {f}")
    if expected and code == 0:
        fail(f"{name}: exit code 0 despite expected findings")
    if not missing and not extra:
        ok(f"{name}: {len(expected)} finding(s) match exactly")


def check_raw_strings_cpxcheck() -> None:
    sys.path.insert(0, str(REPO / "tools" / "cpxcheck"))
    import lex
    toks = lex.tokenize('auto s = R"d(a )nope" b\nc)d"; int z = 1;\n')
    strs = [t for t in toks if t.kind == lex.STR]
    ids = [t.text for t in toks if t.kind == lex.ID]
    if len(strs) != 1 or ')nope" b\nc' not in strs[0].text:
        fail("cpxcheck lexer: raw-string contents wrong")
    elif "z" not in ids or "b" in ids:
        fail("cpxcheck lexer: raw string desynchronised the token stream")
    elif toks[-2].text != "1":
        fail("cpxcheck lexer: trailing tokens wrong after raw string")
    else:
        z = next(t for t in toks if t.text == "z")
        if z.line != 2:
            fail("cpxcheck lexer: line numbers wrong after raw string")
        else:
            ok("cpxcheck lexer handles raw strings")
    # A digit separator is not a quote, and an identifier tail is not an
    # encoding prefix.
    toks = lex.tokenize('int n = 10\'000; f(FACTOR"(not raw)");\n')
    if not any(t.kind == lex.NUM and t.text == "10'000" for t in toks):
        fail("cpxcheck lexer: digit separator mangled")
    elif not any(t.kind == lex.STR and t.text == "(not raw)"
                 for t in toks) or "FACTOR" not in \
            [t.text for t in toks if t.kind == lex.ID]:
        fail('cpxcheck lexer: FACTOR"..." misread as a raw string')
    else:
        ok("cpxcheck lexer: digit separators, no false raw-string prefixes")


def check_partial_runs() -> None:
    """A run over one fixture registry's directory is not a whole-tree
    run: it keeps the findings its files prove on their own and drops the
    whole-tree halves (the registered-but-absent class, the unused metric
    name)."""
    expected = {line.strip()
                for line in (HERE / "expected_cpxcheck.txt").read_text()
                .splitlines() if line.strip()}
    whole_tree_only = {
        "tests/lint_fixtures/cpxcheck/ckpt/registry.hpp:1:ckpt",
        "tests/lint_fixtures/cpxcheck/metrics/metric_names.hpp:9:"
        "metrics-registry",
    }
    for sub in ("ckpt", "metrics"):
        prefix = f"tests/lint_fixtures/cpxcheck/{sub}/"
        want = {f for f in expected if f.startswith(prefix)} \
            - whole_tree_only
        _, output = run([sys.executable, "tools/cpxcheck",
                         prefix.rstrip("/")])
        got = findings_of(output)
        if got != want:
            fail(f"partial run over {prefix}: got {sorted(got)}, "
                 f"expected {sorted(want)}")
        else:
            ok(f"partial run over {prefix}: {len(want)} per-file "
               f"finding(s), whole-tree halves skipped")


def check_inventory() -> None:
    code, output = run([sys.executable, "tools/cpxcheck", "--list",
                        "--json"])
    try:
        rules = json.loads(output)
    except json.JSONDecodeError:
        fail("cpxcheck --list --json: not valid JSON")
        return
    if code != 0 or not rules or not all(
            r.get("name") and r.get("summary") for r in rules):
        fail("cpxcheck --list --json: empty or incomplete inventory")
        return
    ok(f"cpxcheck --list --json: {len(rules)} rules")
    # Every rule keeps at least one trigger fixture, so none can silently
    # lose its last one.
    expected = (HERE / "expected_cpxcheck.txt").read_text().splitlines()
    triggered = {line.strip().rsplit(":", 1)[-1] for line in expected
                 if line.strip()}
    untested = sorted(r["name"] for r in rules
                      if r["name"] not in triggered)
    for name in untested:
        fail(f"rule `{name}` has no finding in expected_cpxcheck.txt; "
             f"add a trigger fixture")
    if not untested:
        ok("every rule has a trigger fixture")


def main() -> int:
    check_findings(
        "cpxcheck fixtures",
        [sys.executable, "tools/cpxcheck", "tests/lint_fixtures/cpxcheck"],
        HERE / "expected_cpxcheck.txt")
    check_partial_runs()
    check_raw_strings_cpxcheck()
    check_inventory()
    if failures:
        print(f"\nrun_fixtures: {len(failures)} failure(s)")
        return 1
    print("\nrun_fixtures: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
