#!/usr/bin/env python3
"""Linker report of the out-of-line functions that no program reaches
(docs/static_analysis.md, "Unreached functions").

Reads the static libraries and the program binaries of a section-GC
build, in which every function has its own section and the linker drops
the sections that nothing references. A global text (`T`) symbol of a
library that no program binary keeps is a function no program reaches.
Build at -O0: at higher levels inlining folds a callee into its caller, so
the callee's symbol can vanish from a binary that still runs its code.

    cmake -B build-gc -S . -DCMAKE_BUILD_TYPE=Debug -DCPX_BUILD_TESTS=OFF \\
      -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections" \\
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
    cmake --build build-gc -j
    python3 tools/unreached_symbols.py --libs build-gc/src/libcpx_*.a \\
      --programs build-gc/bench build-gc/examples build-gc-cpxbench/cpxbench

where build-gc-cpxbench is `cmake -S cpxbench` built with the same flags
(the `unreached` CI job). A program argument that is a directory stands for the executable files in
it. A path ending in `.nm` is read as saved `nm -A -P --defined-only`
output instead of being run through nm (tests/lint_fixtures/unreached).

Prints, grouped by object, the unreached functions that no KEEP_LIST
pattern matches, then every pattern that matches no unreached function.
Exits 1 if it printed either. A pattern matches a demangled name that
contains it; `*` in a pattern stands for any text. Needs python3, nm and
c++filt.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

# The unreached functions that stay in src/, by class. Everything else no
# program reaches is deleted, or moved into tests/ as a test-local
# reference spelling.
KEEP_LIST: dict[str, tuple[str, ...]] = {
    # The checkpoint restore half: programs write snapshots
    # (CPX_CKPT_EVERY) but only tests read one back or inject a failure.
    # ROADMAP item 15 decides between a round trip in the benchmark and
    # deleting this half.
    "restore": (
        "cpx::ckpt::Reader::",
        "cpx::ckpt::read_file(",
        "::restore(",
        "::serialize(cpx::ckpt::Writer&)",
        "cpx::sim::Cluster::inject_failure(",
    ),
    # Test observers and seams: read-outs of, and entry points into, code
    # that programs do reach, which tests call to check that code.
    "observer": (
        "cpx::amg::build_interpolation(",
        "cpx::check::set_level(",
        "cpx::comm::Communicator::name",
        "cpx::comm::Communicator::pool_size()",
        "cpx::comm::Communicator::size()",
        "cpx::coupler::FieldCoupler::stencil_hash()",
        "cpx::coupler::KdTree::nearest(",
        "cpx::mesh::Partitioning::owned_count(",
        "cpx::mgcfd::Instance::mean_owned()",
        "cpx::sim::Cluster::clock(int)",
        "cpx::sim::Cluster::comm_bytes(int)",
        "cpx::sim::Cluster::comm_hidden_seconds(int)",
        "cpx::sim::Cluster::comm_messages(int)",
        "cpx::sim::Cluster::ranks_on_node(",
        "cpx::sim::Profile::find_region(",
        "cpx::simpic::DistributedPic::diagnostics()",
        "cpx::simpic::DistributedPic::gather_efield()",
        "cpx::simpic::DistributedPic::gather_positions()",
        "cpx::simpic::Pic::solve_poisson_dirichlet(",
        "cpx::support::blas1::norm2(",
        "cpx::support::metrics::Snapshot::find(",
        "cpx::support::metrics::Snapshot::seconds_matching(",
        "cpx::support::metrics::reset()",
    ),
    # Oracles that need a class's internals, so cannot move into tests/:
    # the measured-mesh MG-CFD instance, the case writer that round-trip
    # tests read back, and the CSR form of an identity-prefix operator
    # (ROADMAP item 12 decides the rest of that file).
    "oracle": (
        "cpx::mgcfd::Instance::Instance(*cpx::mesh::UnstructuredMesh const&",
        "cpx::workflow::save_engine_case(",
        "cpx::sparse::IdentityPrefixMatrix::to_csr()",
    ),
}

NM_LINE = re.compile(r"^(?P<file>[^\[]*?)(?:\[(?P<member>[^\]]*)\])?: "
                     r"(?P<name>\S+) (?P<type>\S)")


def nm_symbols(path: Path, types: str) -> list[tuple[str, str]]:
    """(object, mangled name) of each defined symbol of one of `types`."""
    if path.suffix == ".nm":
        listing = path.read_text(encoding="utf-8")
    else:
        listing = subprocess.run(
            ["nm", "-A", "-P", "--defined-only", str(path)],
            capture_output=True, text=True, check=True).stdout
    out = []
    for line in listing.splitlines():
        m = NM_LINE.match(line)
        if m and m.group("type") in types:
            obj = Path(m.group("file")).name
            if m.group("member"):
                obj += f"({m.group('member')})"
            out.append((obj, m.group("name")))
    return out


def demangle(names: list[str]) -> dict[str, str]:
    proc = subprocess.run(["c++filt"], input="\n".join(names) + "\n",
                          capture_output=True, text=True, check=True)
    return dict(zip(names, proc.stdout.splitlines()))


def programs_in(paths: list[Path]) -> list[Path]:
    out = []
    for path in paths:
        if path.is_dir():
            out += sorted(p for p in path.iterdir()
                          if p.is_file() and os.access(p, os.X_OK))
        else:
            out.append(path)
    return out


def read_keep_list(path: Path) -> dict[str, tuple[str, ...]]:
    """`class: pattern` lines; `#` starts a comment."""
    keep: dict[str, list[str]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            cls, pattern = line.split(":", 1)
            keep[cls.strip()].append(pattern.strip())
    return {cls: tuple(patterns) for cls, patterns in keep.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--libs", nargs="+", type=Path, required=True,
                        help="static libraries, or their .nm listings")
    parser.add_argument("--programs", nargs="+", type=Path, required=True,
                        help="program binaries or directories of them")
    parser.add_argument("--keep-list", type=Path,
                        help="file of `class: pattern` lines to use "
                             "instead of KEEP_LIST")
    args = parser.parse_args()
    keep = read_keep_list(args.keep_list) if args.keep_list else KEEP_LIST
    patterns = [(cls, p, re.compile(".*".join(map(re.escape, p.split("*")))))
                for cls, ps in keep.items() for p in ps]

    defined = [s for lib in args.libs for s in nm_symbols(lib, "T")]
    kept = {name for prog in programs_in(args.programs)
            for _, name in nm_symbols(prog, "TtWw")}
    pretty = demangle(sorted({name for _, name in defined}))
    # A function may have several symbols (a constructor's C1 and C2): it
    # is reached if a program keeps any of them.
    reached = {pretty[name] for _, name in defined if name in kept}
    unreached: dict[str, str] = {}
    for obj, name in defined:
        if pretty[name] not in reached:
            unreached.setdefault(pretty[name], obj)

    used: set[str] = set()
    report: dict[str, list[str]] = defaultdict(list)
    for fn, obj in sorted(unreached.items()):
        hits = {p for _, p, rx in patterns if rx.search(fn)}
        used |= hits
        if not hits:
            report[obj].append(fn)
    for obj in sorted(report):
        print(obj)
        for fn in report[obj]:
            print(f"  {fn}")
    stale = [(cls, p) for cls, p, _ in patterns if p not in used]
    for cls, p in stale:
        print(f"stale keep-list entry ({cls}): {p!r} matches no unreached "
              f"function")
    listed = len(unreached) - sum(map(len, report.values()))
    print(f"unreached_symbols: {len(reached) + len(unreached)} functions, "
          f"{len(unreached)} unreached, {listed} keep-listed by "
          f"{len(patterns)} patterns, "
          f"{len(unreached) - listed} not keep-listed, "
          f"{len(stale)} stale patterns")
    return 1 if report or stale else 0


if __name__ == "__main__":
    sys.exit(main())
