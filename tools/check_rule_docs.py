#!/usr/bin/env python3
"""Doc-drift gate for the static-analysis rule inventory
(docs/static_analysis.md).

Cross-checks `cpxcheck --list --json` against docs/static_analysis.md in
both directions: every rule cpxcheck enforces must be documented, and
every rule the doc claims must exist. Rule names are recognised in the
doc as backticked tokens after a `rule:` marker (`` rule: `name` ``).
Run from anywhere; exits non-zero on drift. Registered as a ctest (label
`lint`) and run in the lint CI job.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC = REPO / "docs" / "static_analysis.md"

DOC_RULE_RE = re.compile(r"rule:\s*`([a-z][a-z0-9-]*)`")


def main() -> int:
    if not DOC.is_file():
        print(f"check_rule_docs: {DOC} missing", file=sys.stderr)
        return 1
    documented = set(DOC_RULE_RE.findall(DOC.read_text(encoding="utf-8")))
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "cpxcheck"), "--list",
         "--json"], cwd=REPO, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"check_rule_docs: cpxcheck --list --json failed:\n"
              f"{proc.stderr}", file=sys.stderr)
        return 2
    enforced = {entry["name"] for entry in json.loads(proc.stdout)}

    errors = [f"rule `{name}` is enforced but not documented in "
              f"docs/static_analysis.md — add a `rule: \\`{name}\\`` entry"
              for name in sorted(enforced - documented)]
    errors += [f"rule `{name}` is documented in docs/static_analysis.md "
               f"but cpxcheck does not enforce it — stale doc entry"
               for name in sorted(documented - enforced)]
    for e in errors:
        print(f"check_rule_docs: {e}")
    if errors:
        return 1
    print(f"check_rule_docs: {len(enforced)} rules documented and "
          f"enforced, no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
