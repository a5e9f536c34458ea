"""cpxcheck rules (docs/static_analysis.md).

Each rule consumes the model.py facts produced by lite.py: ckpt
members come from real class definitions, deterministic-kernel checks
resolve receiver types, solve-alloc follows the call graph out of the
solve entry points, and the token rules (naked-new, reduce, raw-comm,
metrics-registry) read the whole-file token stream, so comments and
string literals never match.

Suppression: `// cpx-lint: allow(<rule>)` on the line or the line above,
where <rule> is a name from RULES — the only way to silence a finding. On a
whole-tree run the allow-audit reports every marker that silenced nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import lex
from model import (CallSite, ClassInfo, FileFacts, Finding, FunctionInfo,
                   Stmt, walk_stmts)

ALLOW_RE = re.compile(
    r"//\s*cpx-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


@dataclass(frozen=True)
class RuleInfo:
    name: str
    summary: str


RULES = (
    RuleInfo(
        "ckpt",
        "Registered checkpoint classes define serialize/restore, "
        "implementers are registered, and every non-static data member "
        "(enumerated from the class definition, not a naming convention) "
        "is threaded through BOTH bodies or carries allow(ckpt)."),
    RuleInfo(
        "deterministic-kernels",
        "No ambient randomness or wall-clock reads outside their sanctioned "
        "homes, and no iteration over unordered containers — resolved "
        "through declared types, not identifier spelling."),
    RuleInfo(
        "solve-alloc",
        "No allocating expressions (container growth, new, make_unique, "
        "malloc, the buffered stable_sort/stable_partition/inplace_merge) "
        "in any function reachable from the solve-path entry points "
        "(amg::pcg, AmgHierarchy::solve/cycle/reset_values, the "
        "make_amg_preconditioner factory, blas1::sum, "
        "SpgemmPlan::fill_values, DistributedSolver::step, simpic::Pic::step, "
        "simpic::DistributedPic::step) via the call graph."),
    RuleInfo(
        "naked-new",
        "No naked new/delete expressions in src/; ownership goes through "
        "containers or smart pointers."),
    RuleInfo(
        "reduce",
        "parallel_reduce is called only from support/blas1 and the "
        "parallel runtime, so the deterministic chunk-order combine is the "
        "only summation policy."),
    RuleInfo(
        "raw-comm",
        "No neighbour-indexed rank-state access (`ranks_[r + 1]`, "
        "`parts_[partner]`) outside src/comm/; rank-to-rank bytes move "
        "through comm::Communicator / ExchangePlan."),
    RuleInfo(
        "metrics-registry",
        "Every metric name passed to CPX_METRICS_SCOPE(_COMM) or "
        "counter_add is listed in support/metric_names.hpp, and every "
        "listed name is still used."),
    RuleInfo(
        "unreached-header",
        "On a whole-tree run, every header under src/ is reached through "
        "the transitive #include graph from a source under bench/, "
        "examples/ or cpxbench/src/; a header only tests include feeds no "
        "run."),
    RuleInfo(
        "allow-audit",
        "Every `cpx-lint: allow(<rule>)` marker names a rule in this "
        "list and, on a whole-tree run, silences a finding of that rule "
        "on its line or the next; anything else is a dead suppression."),
)

KNOWN_ALLOW_NAMES = frozenset(r.name for r in RULES)

GROWTH_CALLS = frozenset({
    "push_back", "emplace_back", "emplace", "resize", "reserve",
    "assign", "insert", "append",
})
# Members every standard container has: on a receiver of unknown type
# they name a library call, not an analysed method of the same name.
CONTAINER_MEMBERS = frozenset({"begin", "end", "cbegin", "cend", "rbegin",
                               "rend", "data", "size", "empty"})
# The stable algorithms allocate a temporary buffer per call.
ALLOC_CALLS = frozenset({"make_unique", "make_shared", "malloc", "calloc",
                         "realloc", "stable_sort", "stable_partition",
                         "inplace_merge"})

RANDOM_IDENTS = frozenset({
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "default_random_engine", "knuth_b", "ranlux24",
    "ranlux48",
})
CLOCK_IDENTS = frozenset({"system_clock", "high_resolution_clock"})

# pcg applies its preconditioner through a std::function, which the call
# graph does not follow, so the factory whose lambda it calls is an entry
# (lite attributes a lambda's calls to its enclosing function).
# blas1::sum, the combine behind allreduce_sum, is watched in its own right.
SOLVE_ENTRY_SUFFIXES = ("amg::pcg", "AmgHierarchy::solve",
                        "AmgHierarchy::cycle", "AmgHierarchy::reset_values",
                        "amg::make_amg_preconditioner", "blas1::sum",
                        "SpgemmPlan::fill_values",
                        "DistributedSolver::step",
                        "simpic::Pic::step", "simpic::DistributedPic::step")
RNG_HOME = "src/support/rng.hpp"
# The only homes of raw parallel_reduce calls (rule `reduce`).
REDUCE_HOMES = frozenset({"src/support/blas1.cpp", "src/support/parallel.hpp",
                          "src/support/parallel.cpp"})
METRIC_CALLS = frozenset({"CPX_METRICS_SCOPE", "CPX_METRICS_SCOPE_COMM",
                          "counter_add"})
# The program sources of a tree (rule `unreached-header`), relative to the
# directory that holds its src/.
ROOT_DIRS = ("bench", "examples", "cpxbench/src")


def _marker_names(text: str) -> list[str]:
    """Rule names of the allow marker on a source line, if any."""
    m = ALLOW_RE.search(text)
    return [s.strip() for s in m.group(1).split(",")] if m else []


@dataclass
class Project:
    files: list[FileFacts] = field(default_factory=list)
    # Tree base (see tree_base) -> the program sources under its
    # ROOT_DIRS, lowered only to feed the include graph of
    # `unreached-header`; no rule checks them.
    roots: dict = field(default_factory=dict)
    # (path, marker line, rule name) of every marker that silenced a finding.
    used_markers: set = field(default_factory=set)

    def allowed(self, facts: FileFacts, line: int, rule: RuleInfo) -> bool:
        """Whether a marker for `rule` on `line` or the line above silences
        a finding there. Ask only about a finding the rule would report:
        the answer marks the marker used for the allow-audit."""
        hit = False
        for j in (line, line - 1):
            if rule.name in _marker_names(facts.line_text(j)):
                self.used_markers.add((facts.path, j, rule.name))
                hit = True
        return hit

    def bind_classes(self) -> None:
        """Sets FunctionInfo.class_name: the last qualifier of a function
        is its class only if the analysed files define a class of that
        name; otherwise it is a namespace and the function is free."""
        defined = {c.name for f in self.files for c in f.classes}
        for facts in self.files:
            for fn in facts.functions:
                parts = fn.qualname.split("::")
                fn.class_name = parts[-2] if len(parts) >= 2 \
                    and parts[-2] in defined else ""


def rule_by_name(name: str) -> RuleInfo:
    for r in RULES:
        if r.name == name:
            return r
    raise KeyError(name)


def run_rules(project: Project) -> list[Finding]:
    project.bind_classes()
    findings: list[Finding] = []
    findings += check_ckpt(project)
    findings += check_deterministic(project)
    findings += check_solve_alloc(project)
    findings += check_naked_new(project)
    findings += check_reduce(project)
    findings += check_raw_comm(project)
    findings += check_metrics_registry(project)
    findings += check_unreached_header(project)
    findings += check_allow_audit(project)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# ---------------------------------------------------------------------------
# ckpt
# ---------------------------------------------------------------------------

_CKPT_ENTRY_RE = re.compile(r'"((?:\w+::)*\w+)"')


def check_ckpt(project: Project) -> list[Finding]:
    rule = rule_by_name("ckpt")
    registry = _ckpt_registry(project)
    if registry is None:
        return []
    text = "\n".join(registry.lines)
    m = re.search(r"kCheckpointedClasses\[\]\s*=\s*\{(.*?)\}", text,
                  re.DOTALL)
    entries = _CKPT_ENTRY_RE.findall(m.group(1)) if m else []
    registered = {e.split("::")[-1]: e for e in entries}

    findings: list[Finding] = []

    # Index: short class name -> [(facts, ClassInfo)], and the
    # serialize/restore definitions per short class name.
    classes: dict = {}
    ser: dict = {}
    res: dict = {}
    impl_site: dict = {}
    for facts in project.files:
        for cls in facts.classes:
            classes.setdefault(cls.name, []).append((facts, cls))
        for fn in facts.functions:
            if fn.name == "serialize" and "ckpt::Writer" in fn.param_text:
                ser.setdefault(fn.class_name, []).append(fn)
                impl_site.setdefault(fn.class_name, (facts, fn.line))
            if fn.name == "restore" and "ckpt::Reader" in fn.param_text:
                res.setdefault(fn.class_name, []).append(fn)
                impl_site.setdefault(fn.class_name, (facts, fn.line))

    for short, (facts, line) in sorted(impl_site.items()):
        if short and short not in registered:
            findings.append(Finding(
                rule.name, facts.path, line,
                f"{short} implements a serialize(ckpt::Writer&)/"
                f"restore(ckpt::Reader&) pair but is not listed in "
                f"{registry.path}"))

    whole_tree = _whole_tree(project)
    for short in sorted(registered):
        full = registered[short]
        if not whole_tree and (short not in classes
                               or (short not in ser and short not in res)):
            # The class, or both halves of its pair, lie outside the
            # analysed files: nothing to check here.
            continue
        if short not in ser or short not in res:
            findings.append(Finding(
                rule.name, registry.path, 1,
                f"registered class {full} defines no "
                f"serialize/restore pair"))
            continue
        located = _locate_class(classes.get(short, []), full)
        if located is None:
            findings.append(Finding(
                rule.name, registry.path, 1,
                f"cannot find the class definition of registered class "
                f"{full}"))
            continue
        facts, cls = located
        handled_ser = set().union(*(fn.body_idents for fn in ser[short]))
        handled_res = set().union(*(fn.body_idents for fn in res[short]))
        for fld in cls.fields:
            if fld.is_static:
                continue
            missing = [what for what, idents in
                       (("serialize", handled_ser), ("restore", handled_res))
                       if fld.name not in idents]
            if missing and not project.allowed(facts, fld.line, rule):
                findings.append(Finding(
                    rule.name, facts.path, fld.line,
                    f"member `{fld.name}` of checkpointed class {full} is "
                    f"not handled in its {' or '.join(missing)} body; "
                    f"snapshot it or mark it `allow(ckpt)` as rebuilt "
                    f"state"))
    return findings


def _ckpt_registry(project: Project):
    return next((f for f in project.files
                 if f.path.endswith("ckpt/registry.hpp")
                 or f.path.endswith("registry.hpp")
                 and "kCheckpointedClasses" in "\n".join(f.lines)), None)


def _metric_registry(project: Project):
    return next((f for f in project.files
                 if f.path.endswith("metric_names.hpp")), None)


def _whole_tree(project: Project) -> bool:
    """True when both registries are analysed: a whole-tree (or fixture
    directory) run. A registry entry or marker that nothing in the
    analysed files uses proves something only then; a run on a subset of
    files skips those cross-file checks."""
    return _ckpt_registry(project) is not None \
        and _metric_registry(project) is not None


def _locate_class(candidates, full_qualname):
    """Prefers the candidate whose qualname matches the registry entry."""
    best = None
    for facts, cls in candidates:
        if cls.qualname.endswith(full_qualname):
            return facts, cls
        if best is None and cls.fields:
            best = (facts, cls)
    return best


def _receiver_type(project: Project, facts: FileFacts, fn: FunctionInfo,
                   name: str):
    """Declared type text for `name` in fn's scope, or None if unknown."""
    for v in fn.local_vars:
        if v.name == name:
            return v.type_text
    cls_name = fn.class_name
    if cls_name:
        for f in project.files:
            for cls in f.classes:
                if cls.name == cls_name:
                    for fld in cls.fields:
                        if fld.name == name:
                            return fld.type_text
    m = re.search(r"([\w:<>,&*\s]+?)[&*\s]+" + re.escape(name) + r"\b",
                  fn.param_text)
    if m:
        return m.group(1)
    return None


# ---------------------------------------------------------------------------
# deterministic-kernels
# ---------------------------------------------------------------------------

def check_deterministic(project: Project) -> list[Finding]:
    rule = rule_by_name("deterministic-kernels")
    findings: list[Finding] = []
    for facts in project.files:
        if facts.path == RNG_HOME or facts.path.endswith("support/rng.hpp"):
            continue
        unordered = _unordered_names(project, facts)
        for fn in facts.functions:
            local_unordered = unordered | {
                v.name for v in fn.local_vars if "unordered_" in v.type_text}
            for s in walk_stmts(fn.body):
                _det_scan(project, facts, rule, s, local_unordered,
                          findings)
    return findings


def _unordered_names(project: Project, facts: FileFacts) -> set:
    names = set()
    for cls in facts.classes:
        for fld in cls.fields:
            if "unordered_" in fld.type_text:
                names.add(fld.name)
    # Fields of classes defined in headers this file includes (same repo):
    # resolved coarsely by short include suffix match.
    for inc in facts.includes:
        for other in project.files:
            if other.path.endswith(inc):
                for cls in other.classes:
                    for fld in cls.fields:
                        if "unordered_" in fld.type_text:
                            names.add(fld.name)
    return names


def _det_scan(project, facts, rule, s: Stmt, unordered: set,
              findings: list) -> None:
    toks = list(s.tokens) + list(s.range_tokens)
    n = len(toks)
    for k, t in enumerate(toks):
        if t.kind != lex.ID:
            continue
        nxt = toks[k + 1].text if k + 1 < n else ""
        prev = toks[k - 1].text if k > 0 else ""
        if t.text in ("rand", "srand") and nxt == "(" \
                and prev not in (".", "->"):
            message = (f"{t.text}(); kernels must be reproducible — seed "
                       f"through support/rng.hpp")
        elif t.text in RANDOM_IDENTS:
            message = (f"std::{t.text}; kernels must be reproducible — seed "
                       f"through support/rng.hpp")
        elif t.text in CLOCK_IDENTS:
            message = (f"{t.text}; wall-clock reads are nondeterministic — "
                       f"use steady_clock inside support/ or pass time in")
        elif t.text == "time" and nxt == "(" and k + 2 < n \
                and toks[k + 2].text in ("NULL", "nullptr", "0"):
            message = "time(NULL); kernels must be reproducible"
        elif t.text in ("begin", "cbegin") and nxt == "(" \
                and prev in (".", "->") and k >= 2 \
                and toks[k - 2].kind == lex.ID \
                and toks[k - 2].text in unordered \
                and (k + 2 >= n or toks[k + 2].text == ")"):
            message = (f"iteration over unordered container "
                       f"`{toks[k - 2].text}`; order is not deterministic")
        else:
            continue
        if not project.allowed(facts, t.line, rule):
            findings.append(Finding(rule.name, facts.path, t.line, message))
    # Range-for over an unordered container.
    if s.range_tokens:
        for t in s.range_tokens:
            if t.kind == lex.ID and t.text in unordered \
                    and not project.allowed(facts, t.line, rule):
                findings.append(Finding(
                    rule.name, facts.path, t.line,
                    f"iteration over unordered container `{t.text}`; "
                    f"order is not deterministic"))


# ---------------------------------------------------------------------------
# solve-alloc
# ---------------------------------------------------------------------------

def check_solve_alloc(project: Project) -> list[Finding]:
    rule = rule_by_name("solve-alloc")
    # Overloads, or a helper defined in two files, share one qualified
    # name. Calls resolve to a qualified name (by_name holds one
    # representative per name), and every definition of it is checked.
    by_name: dict = {}
    by_qual: dict = {}  # qualname -> every definition of it
    fn_facts: dict = {}
    for facts in project.files:
        for fn in facts.functions:
            if fn.qualname not in by_qual:
                by_name.setdefault(fn.name, []).append(fn)
            by_qual.setdefault(fn.qualname, []).append(fn)
            fn_facts[id(fn)] = facts

    entries = [fn for defs in by_qual.values() for fn in defs
               if any(fn.qualname.endswith(sfx)
                      for sfx in SOLVE_ENTRY_SUFFIXES)]
    findings: list[Finding] = []
    # id(definition) -> (definition, entry description for messages)
    visited: dict = {}

    stack = [(fn, fn.qualname.split("::")[-1]) for fn in entries]
    for fn, entry in stack:
        visited[id(fn)] = (fn, entry)
    while stack:
        fn, entry = stack.pop()
        for call in fn.calls:
            if call.in_debug_gate:
                continue
            callee = _resolve_call(project, fn_facts[id(fn)], fn, call,
                                   by_name)
            if callee is None:
                continue
            for definition in by_qual[callee.qualname]:
                if id(definition) not in visited:
                    visited[id(definition)] = (definition, entry)
                    stack.append((definition, entry))

    for fn, entry in visited.values():
        facts = fn_facts[id(fn)]
        for call in fn.calls:
            if call.in_debug_gate:
                continue
            flagged = (call.name in GROWTH_CALLS and call.receiver) \
                or call.name in ALLOC_CALLS
            if not flagged:
                continue
            if project.allowed(facts, call.line, rule):
                continue
            findings.append(Finding(
                rule.name, facts.path, call.line,
                f"allocating call `{call.name}` in `{fn.qualname}`, which "
                f"is reachable from solve entry `{entry}`; the solve path "
                f"is allocation-free by contract "
                f"(tests/solver_alloc_test.cpp)"))
        for s in walk_stmts(fn.body):
            for k, t in enumerate(s.tokens):
                if t.kind == lex.ID and t.text == "new" \
                        and (k == 0 or s.tokens[k - 1].text
                             not in (".", "->", "::")) \
                        and not project.allowed(facts, t.line, rule):
                    findings.append(Finding(
                        rule.name, facts.path, t.line,
                        f"`new` expression in `{fn.qualname}`, which is "
                        f"reachable from solve entry `{entry}`; the solve "
                        f"path is allocation-free by contract"))
    return findings


def _resolve_call(project, facts, fn, call: CallSite, by_name):
    """The unique FunctionInfo a call resolves to, or None. Conservative:
    unresolvable or ambiguous calls are not traversed (flagging inside the
    caller still happens regardless)."""
    candidates = by_name.get(call.name, [])
    if not candidates:
        return None
    if call.receiver and call.receiver != "<expr>":
        ty = _receiver_type(project, facts, fn, call.receiver)
        if ty is not None:
            typed = [c for c in candidates
                     if c.class_name and c.class_name in ty]
            if len(typed) == 1:
                return typed[0]
            return None
        # Unknown receiver type: traverse only an unambiguous method
        # whose name is not a standard-container member.
        if call.name in CONTAINER_MEMBERS:
            return None
        methods = [c for c in candidates if c.class_name]
        return methods[0] if len(methods) == 1 else None
    if call.qualifier:
        qualed = [c for c in candidates if call.qualifier in c.qualname]
        return qualed[0] if len(qualed) == 1 else None
    # Free call: prefer free functions, found as unqualified lookup does
    # (innermost enclosing namespace first); also allow a unique
    # same-class method (implicit this).
    free = [c for c in candidates if not c.class_name]
    scope = _namespace(fn)
    for depth in range(len(scope), -1, -1):
        here = [c for c in free if _namespace(c) == scope[:depth]]
        if here:
            free = here
            break
    if len(free) == 1:
        return free[0]
    same_cls = [c for c in candidates
                if c.class_name and c.class_name == fn.class_name]
    if len(same_cls) == 1:
        return same_cls[0]
    return None


def _namespace(fn: FunctionInfo) -> list[str]:
    parts = fn.qualname.split("::")[:-1]
    return parts[:-1] if fn.class_name else parts


# ---------------------------------------------------------------------------
# Token rules: naked-new, reduce, raw-comm, metrics-registry
# ---------------------------------------------------------------------------

def _token_findings(project: Project, rule: RuleInfo, facts: FileFacts,
                    hits, message: str) -> list[Finding]:
    """One finding per token in `hits` not silenced by an allow marker."""
    return [Finding(rule.name, facts.path, t.line, message.format(t.text))
            for t in hits if not project.allowed(facts, t.line, rule)]


def _next_text(toks, k: int) -> str:
    return toks[k].text if k < len(toks) else ""


def check_naked_new(project: Project) -> list[Finding]:
    rule = rule_by_name("naked-new")
    findings: list[Finding] = []
    for facts in project.files:
        toks = facts.tokens
        hits = []
        for k, t in enumerate(toks):
            if t.kind != lex.ID or t.text not in ("new", "delete"):
                continue
            j = k + 1
            if t.text == "delete" and _next_text(toks, j) == "[" \
                    and _next_text(toks, j + 1) == "]":
                j += 2  # delete[]
            operand = toks[j] if j < len(toks) else None
            if operand is not None and (
                    operand.kind == lex.ID
                    or operand.text in ("(", "::")
                    or operand.text == ("[" if t.text == "new" else "*")):
                hits.append(t)
        findings += _token_findings(
            project, rule, facts, hits,
            "naked `{}`; ownership goes through a container or "
            "make_unique, never a raw new/delete pair")
    return findings


def check_reduce(project: Project) -> list[Finding]:
    rule = rule_by_name("reduce")
    findings: list[Finding] = []
    for facts in project.files:
        if src_rel(facts.path) in REDUCE_HOMES:
            continue
        toks = facts.tokens
        hits = [t for k, t in enumerate(toks)
                if t.kind == lex.ID and t.text == "parallel_reduce"
                and _next_text(toks, k + 1) in ("(", "<")]
        findings += _token_findings(
            project, rule, facts, hits,
            "raw {} outside support/blas1; use the blas1 wrappers so "
            "reductions share one combine order")
    return findings


def check_raw_comm(project: Project) -> list[Finding]:
    rule = rule_by_name("raw-comm")
    findings: list[Finding] = []
    for facts in project.files:
        if src_rel(facts.path).startswith("src/comm/"):
            continue
        toks = facts.tokens
        hits = []
        for k, t in enumerate(toks):
            if t.kind != lex.ID or t.text not in ("ranks_", "parts_") \
                    or _next_text(toks, k + 1) != "[":
                continue
            depth = 0
            for x in toks[k + 1:]:
                depth += {"[": 1, "]": -1}.get(x.text, 0)
                if depth == 0:
                    break
                if x.text in ("+", "-", "to", "partner") \
                        or x.text.startswith("neighbor"):
                    hits.append(t)
                    break
        findings += _token_findings(
            project, rule, facts, hits,
            "neighbour-indexed `{}` access; move rank-to-rank bytes "
            "through comm::Communicator/ExchangePlan (src/comm/, "
            "docs/communication.md)")
    return findings


def check_metrics_registry(project: Project) -> list[Finding]:
    """Cross-checks metric-name literals against the registry header in
    both directions. Runs only when the registry is among the analysed
    files; the unused-name direction only on a whole-tree run."""
    rule = rule_by_name("metrics-registry")
    registry = _metric_registry(project)
    if registry is None:
        return []
    toks = registry.tokens
    registered = {t.text: t for k, t in enumerate(toks)
                  if t.kind == lex.STR and k > 0 and toks[k - 1].text == "="
                  and _next_text(toks, k + 1) == ";"}
    used: set = set()
    findings: list[Finding] = []
    for facts in project.files:
        if facts is registry:
            continue
        toks = facts.tokens
        for k, t in enumerate(toks):
            if t.kind == lex.ID and t.text in METRIC_CALLS \
                    and _next_text(toks, k + 1) == "(" and k + 2 < len(toks) \
                    and toks[k + 2].kind == lex.STR:
                name = toks[k + 2]
                used.add(name.text)
                if name.text not in registered:
                    findings += _token_findings(
                        project, rule, facts, [name],
                        f'metric name "{{}}" is not listed in '
                        f"{registry.path}")
    if _whole_tree(project):
        findings += _token_findings(
            project, rule, registry,
            [t for name, t in registered.items() if name not in used],
            'registered metric name "{}" is no longer used')
    return findings


# ---------------------------------------------------------------------------
# unreached-header
# ---------------------------------------------------------------------------

def tree_base(path: str) -> str | None:
    """The directory holding the `src/` a path lies under ("" for the repo
    root), or None outside any src/."""
    parts = path.split("/")[:-1]
    for k in range(len(parts) - 1, -1, -1):
        if parts[k] == "src":
            return "/".join(parts[:k])
    return None


def src_rel(path: str) -> str:
    """A path from the directory holding its `src/` ("src/support/blas1.cpp"),
    so a scan of a checkout outside the repo names the same files; paths
    outside any src/ come back unchanged."""
    base = tree_base(path)
    return path[len(base) + 1:] if base else path


def _join(*parts: str) -> str:
    return "/".join(p for p in parts if p)


def check_unreached_header(project: Project) -> list[Finding]:
    """Walks the #include graph from the program sources (Project.roots)
    and reports every analysed src/ header it never reaches. An include
    resolves next to the including file first, then under its tree's
    src/. Reaching a header reaches its same-named .cpp too, since that is
    what the header links in. A header only tests/ include is reported: no
    run uses it. Whole-tree only: a subset run does not see every
    includer."""
    rule = rule_by_name("unreached-header")
    if not _whole_tree(project):
        return []
    by_path = {f.path: f for f in project.files}
    base_of = {f.path: tree_base(f.path) for f in project.files}
    for base, roots in project.roots.items():
        for f in roots:
            by_path[f.path] = f
            base_of[f.path] = base
    seen: set = set()
    stack = [f.path for roots in project.roots.values() for f in roots]
    while stack:
        path = stack.pop()
        if path in seen or path not in by_path:
            continue
        seen.add(path)
        if path.endswith(".hpp"):
            stack.append(path[:-len(".hpp")] + ".cpp")
        here = path.rsplit("/", 1)[0] if "/" in path else ""
        base = base_of[path]
        for target in by_path[path].includes:
            near = _join(here, target)
            stack.append(near if near in by_path
                         else _join(base or "", "src", target))
    findings: list[Finding] = []
    for facts in project.files:
        if facts.path.endswith(".hpp") and facts.path not in seen \
                and project.roots.get(tree_base(facts.path)) \
                and not project.allowed(facts, 1, rule):
            findings.append(Finding(
                rule.name, facts.path, 1,
                f"no source under {', '.join(d + '/' for d in ROOT_DIRS)} "
                f"reaches this header through #include; if only tests "
                f"use it, delete it and the code behind it"))
    return findings


# ---------------------------------------------------------------------------
# allow-audit
# ---------------------------------------------------------------------------

def check_allow_audit(project: Project) -> list[Finding]:
    """Flags markers naming an unknown rule and, after every other rule
    has run, markers that silenced nothing. A marker's use can depend on
    any file (the solve call graph, the two registries), so the unused
    half runs only when both registries are analysed: a whole-tree run.
    An `unreached-header` marker is judged only when its tree's program
    sources (ROOT_DIRS) were found; a copy of src/ alone has none.
    An allow(allow-audit) is exempt from it: it would silence itself."""
    rule = rule_by_name("allow-audit")
    audit_use = _whole_tree(project)
    findings: list[Finding] = []
    for facts in project.files:
        for idx, line in enumerate(facts.lines):
            line_no = idx + 1
            for name in _marker_names(line):
                if name not in KNOWN_ALLOW_NAMES:
                    message = (f"`allow({name})` names an unknown rule; "
                               f"known rules: "
                               f"{', '.join(sorted(KNOWN_ALLOW_NAMES))}")
                elif audit_use and name != rule.name \
                        and (facts.path, line_no, name) \
                        not in project.used_markers \
                        and (name != "unreached-header"
                             or project.roots.get(tree_base(facts.path))):
                    message = (f"`allow({name})` silences no `{name}` "
                               f"finding on this line or the next; delete "
                               f"the marker")
                else:
                    continue
                if not project.allowed(facts, line_no, rule):
                    findings.append(
                        Finding(rule.name, facts.path, line_no, message))
    return findings
