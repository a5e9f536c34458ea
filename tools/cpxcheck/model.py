"""Facts model for cpxcheck (docs/static_analysis.md).

The outline parser (lite.py) lowers a translation unit into the structures
below. Rules (rules.py) consume ONLY this model, never source text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from lex import Tok

# Statement kinds in the (deliberately small) statement tree. The tree is
# not a full AST: expressions stay as token slices, but control flow —
# blocks, branches, loops, try/catch, returns and throws — is explicit,
# which is what the path-sensitive rules (split-phase) need.
S_SIMPLE = "simple"   # expression/declaration statement; tokens attached
S_BLOCK = "block"     # { ... }
S_IF = "if"           # cond tokens + then/else children
S_LOOP = "loop"       # for/while/do body (range-for carries range tokens)
S_SWITCH = "switch"   # treated as one opaque body block
S_TRY = "try"         # body + handlers
S_RETURN = "return"   # return ...;
S_THROW = "throw"     # throw ...;


@dataclass
class Stmt:
    kind: str
    line: int
    tokens: list[Tok] = field(default_factory=list)   # head/expression toks
    children: list["Stmt"] = field(default_factory=list)
    else_children: list["Stmt"] = field(default_factory=list)  # if/try only
    range_tokens: list[Tok] = field(default_factory=list)      # range-for
    decl_tokens: list[Tok] = field(default_factory=list)       # range-for var


@dataclass
class CallSite:
    name: str          # terminal callee name, e.g. "resize"
    qualifier: str     # "::"-joined prefix if written qualified, else ""
    receiver: str      # receiver identifier for x.f()/x->f(), "" for free,
                       # "<expr>" when the receiver is a compound expression
    line: int
    in_debug_gate: bool = False  # lexically inside `if (check::deep()...)`
                                 # or similar debug-tier-gated block


@dataclass
class VarDecl:
    name: str
    type_text: str     # flattened declared type, e.g. "std::unordered_map"
    line: int


@dataclass
class FieldInfo:
    name: str
    type_text: str
    line: int
    is_static: bool = False   # static / constexpr members are not
                              # per-instance state for ckpt purposes


@dataclass
class ClassInfo:
    name: str                 # short name, e.g. "Cluster"
    qualname: str             # e.g. "cpx::sim::Cluster"
    line: int
    fields: list[FieldInfo] = field(default_factory=list)
    # Methods *declared* in the class body (names only; definitions appear
    # in FunctionInfo whether in-class or out-of-line).
    method_names: set[str] = field(default_factory=set)


@dataclass
class FunctionInfo:
    name: str                 # terminal name, e.g. "serialize"
    qualname: str             # e.g. "cpx::sim::Cluster::serialize"
    line: int
    param_text: str           # flattened parameter list text
    body: list[Stmt] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    local_vars: list[VarDecl] = field(default_factory=list)
    body_idents: set[str] = field(default_factory=set)  # every identifier
                                                        # in the body
    # Enclosing class, "" for a free function. Set by rules.Project: the
    # last qualifier counts only if the analysed files define a class of
    # that name (`cpx::amg::smooth` is free, not a method of `amg`).
    class_name: str = ""


@dataclass
class FileFacts:
    path: str                 # repo-relative, forward slashes
    classes: list[ClassInfo] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    includes: list[str] = field(default_factory=list)   # raw include targets
    tokens: list[Tok] = field(default_factory=list)     # whole-file tokens
    # Raw source lines (1-based access via line_text) for inline-allow
    # handling and message context.
    lines: list[str] = field(default_factory=list)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass(frozen=True)
class Finding:
    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def walk_stmts(stmts: list[Stmt]):
    """Yields every statement in the tree, depth-first."""
    for s in stmts:
        yield s
        yield from walk_stmts(s.children)
        yield from walk_stmts(s.else_children)
