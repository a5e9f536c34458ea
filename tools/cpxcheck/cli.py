"""cpxcheck command-line interface (docs/static_analysis.md).

    python3 tools/cpxcheck                     # analyse src/
    python3 tools/cpxcheck path...             # files or directories
    python3 tools/cpxcheck --list [--json]     # rule inventory

Every file is lowered by lite.py into the model.py facts the rules read;
findings are silenced only by inline `cpx-lint: allow(<rule>)` markers.
The program sources of each analysed tree (rules.ROOT_DIRS) are lowered
too, for the include graph of `unreached-header`; no rule checks them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import lite
import rules

REPO = Path(__file__).resolve().parent.parent.parent


def _collect_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in paths:
        root = root if root.is_absolute() else (Path.cwd() / root)
        root = root.resolve()
        if root.is_dir():
            files.extend(sorted(root.rglob("*.hpp")))
            files.extend(sorted(root.rglob("*.cpp")))
        elif root.is_file():
            files.append(root)
        else:
            print(f"cpxcheck: no such path: {root}", file=sys.stderr)
            raise SystemExit(2)
    return sorted(set(files))


def _rel(path: Path) -> str:
    try:
        return path.resolve().relative_to(REPO).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cpxcheck", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/)")
    parser.add_argument("--list", action="store_true",
                        help="print the rule inventory and exit")
    parser.add_argument("--json", action="store_true",
                        help="with --list: machine-readable output")
    args = parser.parse_args(argv)

    if args.list:
        if args.json:
            print(json.dumps(
                [{"name": r.name, "summary": r.summary}
                 for r in rules.RULES], indent=2))
        else:
            for r in rules.RULES:
                print(f"{r.name:22} {r.summary}")
        return 0

    files = _collect_files(args.paths or [REPO / "src"])
    project = rules.Project()
    for path in files:
        project.files.append(
            lite.parse_file(_rel(path), path.read_text(encoding="utf-8")))

    for base in sorted({rules.tree_base(f.path) for f in project.files}
                       - {None}):
        project.roots[base] = [
            lite.parse_file(_rel(path), path.read_text(encoding="utf-8"))
            for path in _collect_files(
                [d for d in (REPO / base / r for r in rules.ROOT_DIRS)
                 if d.is_dir()])]

    findings = rules.run_rules(project)
    if findings:
        for f in findings:
            print(f.render())
        print(f"\ncpxcheck: {len(findings)} finding(s) ({len(files)} files)",
              file=sys.stderr)
        return 1
    print(f"cpxcheck: {len(files)} files clean")
    return 0
