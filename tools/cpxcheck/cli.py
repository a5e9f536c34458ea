"""cpxcheck command-line interface (docs/static_analysis.md).

    python3 tools/cpxcheck                     # analyse src/
    python3 tools/cpxcheck --list [--json]     # rule inventory
    python3 tools/cpxcheck path... --engine lite --baseline none

Engines: `clang` (libclang via clang.cindex, driven by
compile_commands.json from -p/--compile-commands), `lite` (pure-Python
outline parser, zero dependencies), `auto` (clang when importable, lite
otherwise). Both produce the same facts model; rules run unchanged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import baseline as baseline_mod
import lite
import rules
from model import FileFacts

REPO = Path(__file__).resolve().parent.parent.parent
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.txt"


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
    parser.add_argument("--engine", choices=("auto", "clang", "lite"),
                        default="auto")
    parser.add_argument("-p", "--compile-commands", type=Path, default=None,
                        metavar="BUILD_DIR",
                        help="build directory holding compile_commands.json"
                             " (clang engine)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="baseline file, or `none` to disable")
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

    engine = args.engine
    clangfe = None
    if engine in ("auto", "clang"):
        import clangfe as _clangfe
        if _clangfe.available():
            clangfe = _clangfe
            engine = "clang"
        elif args.engine == "clang":
            print("cpxcheck: --engine clang requested but clang.cindex / "
                  "libclang is not available", file=sys.stderr)
            return 2
        else:
            engine = "lite"

    files = _collect_files(args.paths or [REPO / "src"])
    compile_args = {}
    if clangfe is not None:
        compile_args = clangfe.load_compile_args(args.compile_commands)

    project = rules.Project()
    for path in files:
        text = path.read_text(encoding="utf-8")
        rel = _rel(path)
        if clangfe is not None:
            facts = clangfe.parse_file(rel, text, REPO, compile_args)
        else:
            facts = lite.parse_file(rel, text)
        project.files.append(facts)

    findings = rules.run_rules(project)

    if args.baseline != "none":
        bl_path = Path(args.baseline)
        if bl_path.is_file():
            entries, errors = baseline_mod.load(bl_path)
            findings = baseline_mod.apply(findings, entries, bl_path) \
                + errors
            findings.sort(key=lambda f: (f.path, f.line, f.rule))

    if findings:
        for f in findings:
            print(f.render())
        print(f"\ncpxcheck: {len(findings)} finding(s) "
              f"({engine} engine, {len(files)} files)", file=sys.stderr)
        return 1
    print(f"cpxcheck: {len(files)} files clean ({engine} engine)")
    return 0
