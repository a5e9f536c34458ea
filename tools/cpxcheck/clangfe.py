"""libclang frontend for cpxcheck (docs/static_analysis.md).

Lowers translation units into the model.py facts through clang.cindex,
when available: real type resolution, macro-expanded declarations, exact
qualified names. Availability is gated — environments without libclang
(or without the python bindings) fall back to lite.py per file, and the
rules run unchanged on either engine's facts.

Driven by compile_commands.json when a build directory is provided
(CMAKE_EXPORT_COMPILE_COMMANDS is ON in the top-level CMakeLists.txt), so
headers resolve exactly as the real build sees them.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import lex
import lite
from model import (CallSite, ClassInfo, FieldInfo, FileFacts, FunctionInfo,
                   S_BLOCK, S_IF, S_LOOP, S_RETURN, S_SIMPLE, S_SWITCH,
                   S_THROW, S_TRY, Stmt, VarDecl)


def available() -> bool:
    try:
        import clang.cindex  # noqa: F401
    except Exception:
        return False
    try:
        _index()
        return True
    except Exception:
        return False


_INDEX = None


def _index():
    global _INDEX
    if _INDEX is None:
        from clang import cindex
        lib = os.environ.get("CPXCHECK_LIBCLANG")
        if lib and not cindex.Config.loaded:
            if Path(lib).is_dir():
                cindex.Config.set_library_path(lib)
            else:
                cindex.Config.set_library_file(lib)
        _INDEX = cindex.Index.create()
    return _INDEX


def load_compile_args(build_dir: Path | None) -> dict[str, list[str]]:
    """file (resolved) -> compiler args from compile_commands.json."""
    if build_dir is None:
        return {}
    cc = build_dir / "compile_commands.json"
    if not cc.is_file():
        return {}
    out: dict[str, list[str]] = {}
    for entry in json.loads(cc.read_text(encoding="utf-8")):
        args = entry.get("arguments")
        if not args:
            args = entry.get("command", "").split()
        # Drop the compiler itself, the input file and output options.
        cleaned: list[str] = []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if a.endswith((".cpp", ".cc", ".o")):
                continue
            cleaned.append(a)
        key = str((Path(entry.get("directory", "."))
                   / entry["file"]).resolve())
        out[key] = cleaned
    return out


def parse_file(path: str, text: str, repo: Path,
               compile_args: dict[str, list[str]]) -> FileFacts:
    """Parses with libclang; falls back to lite.py on any failure."""
    try:
        return _parse_clang(path, text, repo, compile_args)
    except Exception:
        return lite.parse_file(path, text)


def _parse_clang(path: str, text: str, repo: Path,
                 compile_args: dict[str, list[str]]) -> FileFacts:
    from clang import cindex

    abs_path = str((repo / path).resolve())
    args = compile_args.get(abs_path)
    if args is None:
        args = ["-std=c++20", "-I" + str(repo / "src")]
        # Headers parse as C++ too.
        if path.endswith((".hpp", ".h")):
            args = ["-x", "c++"] + args
    tu = _index().parse(abs_path, args=args,
                        unsaved_files=[(abs_path, text)],
                        options=0)
    facts = FileFacts(path=path, engine="clang",
                      includes=[i.include.name for i in tu.get_includes()
                                if i.depth == 1],
                      lines=text.splitlines(), tokens=lex.tokenize(text))
    _walk_cursor(tu.cursor, facts, abs_path, [])
    return facts


def _qualname(cursor) -> str:
    parts = []
    c = cursor
    while c is not None and c.spelling:
        from clang import cindex
        if c.kind == cindex.CursorKind.TRANSLATION_UNIT:
            break
        parts.insert(0, c.spelling)
        c = c.semantic_parent
    return "::".join(parts)


def _walk_cursor(cursor, facts: FileFacts, abs_path: str,
                 class_stack: list) -> None:
    from clang import cindex
    K = cindex.CursorKind
    for child in cursor.get_children():
        loc_file = child.location.file
        if loc_file is None or str(loc_file) != abs_path:
            continue
        if child.kind in (K.NAMESPACE, K.LINKAGE_SPEC,
                          K.UNEXPOSED_DECL):
            _walk_cursor(child, facts, abs_path, class_stack)
        elif child.kind in (K.CLASS_DECL, K.STRUCT_DECL, K.UNION_DECL,
                            K.CLASS_TEMPLATE):
            if not child.is_definition():
                continue
            info = ClassInfo(name=child.spelling,
                             qualname=_qualname(child),
                             line=child.location.line)
            facts.classes.append(info)
            for member in child.get_children():
                if member.kind == K.FIELD_DECL:
                    info.fields.append(FieldInfo(
                        name=member.spelling,
                        type_text=member.type.spelling,
                        line=member.location.line,
                        is_static=False))
                elif member.kind == K.VAR_DECL:
                    info.fields.append(FieldInfo(
                        name=member.spelling,
                        type_text=member.type.spelling,
                        line=member.location.line,
                        is_static=True))
                elif member.kind in (K.CXX_METHOD, K.CONSTRUCTOR,
                                     K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
                    info.method_names.add(member.spelling)
            _walk_cursor(child, facts, abs_path, class_stack + [info])
        elif child.kind in (K.CXX_METHOD, K.FUNCTION_DECL, K.CONSTRUCTOR,
                            K.DESTRUCTOR, K.FUNCTION_TEMPLATE):
            if not child.is_definition():
                continue
            fn = FunctionInfo(
                name=child.spelling,
                qualname=_qualname(child),
                line=child.location.line,
                param_text=", ".join(
                    f"{a.type.spelling} {a.spelling}"
                    for a in child.get_arguments()))
            _lower_body(child, fn)
            facts.functions.append(fn)
        else:
            _walk_cursor(child, facts, abs_path, class_stack)


def _lower_body(cursor, fn: FunctionInfo) -> None:
    from clang import cindex
    K = cindex.CursorKind
    body = next((c for c in cursor.get_children()
                 if c.kind == K.COMPOUND_STMT), None)
    if body is None:
        return
    fn.body = _lower_stmts(body, fn, in_debug_gate=False)
    for tok in body.get_tokens():
        if tok.kind == cindex.TokenKind.IDENTIFIER:
            fn.body_idents.add(tok.spelling)


_DEBUG_GATE_RE = re.compile(
    r"\bcheck\s*::\s*(?:deep|paranoid)|\bCPX_DCHECK_ENABLED\b")


def _lower_stmts(cursor, fn: FunctionInfo, in_debug_gate: bool) -> list[Stmt]:
    from clang import cindex
    K = cindex.CursorKind
    out: list[Stmt] = []
    for child in cursor.get_children():
        line = child.location.line
        kindmap = {
            K.IF_STMT: S_IF,
            K.FOR_STMT: S_LOOP,
            K.CXX_FOR_RANGE_STMT: S_LOOP,
            K.WHILE_STMT: S_LOOP,
            K.DO_STMT: S_LOOP,
            K.SWITCH_STMT: S_SWITCH,
            K.CXX_TRY_STMT: S_TRY,
            K.RETURN_STMT: S_RETURN,
            K.COMPOUND_STMT: S_BLOCK,
        }
        if child.kind == K.DECL_STMT:
            s = Stmt(S_SIMPLE, line, tokens=_cursor_tokens(child))
            for d in child.get_children():
                if d.kind == K.VAR_DECL:
                    fn.local_vars.append(VarDecl(
                        name=d.spelling, type_text=d.type.spelling,
                        line=d.location.line))
            _collect_calls(child, fn, in_debug_gate)
            out.append(s)
            continue
        kind = kindmap.get(child.kind)
        if kind is None:
            if child.kind == K.CXX_THROW_EXPR or (
                    child.kind == K.UNEXPOSED_EXPR and
                    "throw" in [t.spelling
                                for t in list(child.get_tokens())[:1]]):
                s = Stmt(S_THROW, line, tokens=_cursor_tokens(child))
                _collect_calls(child, fn, in_debug_gate)
                out.append(s)
            else:
                s = Stmt(S_SIMPLE, line, tokens=_cursor_tokens(child))
                _collect_calls(child, fn, in_debug_gate)
                out.append(s)
            continue
        children = list(child.get_children())
        if kind == S_IF:
            cond = children[0] if children else None
            cond_toks = _cursor_tokens(cond) if cond is not None else []
            gated = in_debug_gate or bool(_DEBUG_GATE_RE.search(
                " ".join(t.text for t in cond_toks)))
            node = Stmt(S_IF, line, tokens=cond_toks)
            if cond is not None:
                _collect_calls(cond, fn, in_debug_gate)
            if len(children) >= 2:
                node.children = _wrap(children[1], fn, gated)
            if len(children) >= 3:
                node.else_children = _wrap(children[2], fn, in_debug_gate)
            out.append(node)
            continue
        if kind == S_LOOP:
            node = Stmt(S_LOOP, line)
            if child.kind == K.CXX_FOR_RANGE_STMT and len(children) >= 2:
                node.decl_tokens = _cursor_tokens(children[0])
                node.range_tokens = _cursor_tokens(children[-2]) \
                    if len(children) >= 2 else []
            body_cursor = children[-1] if children else None
            for c in children[:-1]:
                _collect_calls(c, fn, in_debug_gate)
                node.tokens.extend(_cursor_tokens(c))
            if body_cursor is not None:
                node.children = _wrap(body_cursor, fn, in_debug_gate)
            out.append(node)
            continue
        if kind == S_SWITCH:
            node = Stmt(S_SWITCH, line)
            for c in children[:-1]:
                _collect_calls(c, fn, in_debug_gate)
                node.tokens.extend(_cursor_tokens(c))
            if children:
                node.children = _wrap(children[-1], fn, in_debug_gate)
            out.append(node)
            continue
        if kind == S_TRY:
            node = Stmt(S_TRY, line)
            if children:
                node.children = _wrap(children[0], fn, in_debug_gate)
            for handler in children[1:]:
                node.else_children.extend(
                    _wrap(handler, fn, in_debug_gate))
            out.append(node)
            continue
        if kind == S_RETURN:
            s = Stmt(S_RETURN, line, tokens=_cursor_tokens(child))
            _collect_calls(child, fn, in_debug_gate)
            out.append(s)
            continue
        if kind == S_BLOCK:
            out.append(Stmt(S_BLOCK, line,
                            children=_lower_stmts(child, fn,
                                                  in_debug_gate)))
    return out


def _wrap(cursor, fn: FunctionInfo, gated: bool) -> list[Stmt]:
    from clang import cindex
    if cursor.kind == cindex.CursorKind.COMPOUND_STMT:
        return [Stmt(S_BLOCK, cursor.location.line,
                     children=_lower_stmts(cursor, fn, gated))]
    return _lower_stmts(_single(cursor), fn, gated)


class _single:
    """Adapter: presents one cursor as an iterable-of-children parent."""

    def __init__(self, cursor) -> None:
        self.cursor = cursor

    def get_children(self):
        return iter((self.cursor,))


def _cursor_tokens(cursor) -> list:
    from clang import cindex
    toks = []
    kindmap = {
        cindex.TokenKind.IDENTIFIER: lex.ID,
        cindex.TokenKind.KEYWORD: lex.ID,
        cindex.TokenKind.LITERAL: lex.NUM,
        cindex.TokenKind.PUNCTUATION: lex.PUNCT,
    }
    for t in cursor.get_tokens():
        kind = kindmap.get(t.kind)
        if kind is None:
            continue
        toks.append(lex.Tok(kind, t.spelling, t.location.line))
    return toks


def _collect_calls(cursor, fn: FunctionInfo, gated: bool) -> None:
    from clang import cindex
    K = cindex.CursorKind
    def visit(c):
        if c.kind in (K.CALL_EXPR,):
            ref = c.referenced
            name = c.spelling or (ref.spelling if ref is not None else "")
            qualifier = ""
            receiver = ""
            if ref is not None:
                q = _qualname(ref)
                if "::" in q:
                    qualifier = q.rsplit("::", 1)[0]
            if name:
                fn.calls.append(CallSite(
                    name=name, qualifier=qualifier, receiver=receiver,
                    line=c.location.line, in_debug_gate=gated))
        for sub in c.get_children():
            visit(sub)
    visit(cursor)
