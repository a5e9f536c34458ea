"""Pure-Python front end for cpxcheck (docs/static_analysis.md).

Lowers a C++ translation unit into the model.py facts: a declaration-scope
outline parser (namespaces, classes, fields, function definitions with
qualified names) plus a statement-tree parser for function bodies (blocks,
if/else, loops, try/catch, return/throw) and extraction of call sites,
local variable declarations and body identifiers.

It is NOT a C++ parser — templates, overload resolution and macro expansion
are approximated — but it resolves the facts the rules need (which class a
field belongs to, which statements a call sits under, what type a receiver
was declared with) far beyond what per-line regexes can, with no
dependency beyond python3.
"""

from __future__ import annotations

import re

import lex
from lex import Tok
from model import (CallSite, ClassInfo, FieldInfo, FileFacts, FunctionInfo,
                   S_BLOCK, S_IF, S_LOOP, S_RETURN, S_SIMPLE, S_SWITCH,
                   S_THROW, S_TRY, Stmt, VarDecl)

_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.MULTILINE)
_MACRO_NAME_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")

_CONTROL_KEYWORDS = frozenset({
    "if", "while", "for", "switch", "return", "sizeof", "alignof",
    "catch", "throw", "new", "delete", "case", "default", "do", "else",
    "static_assert", "decltype", "noexcept", "alignas", "typeid",
})

_DECL_SPECIFIERS = frozenset({
    "static", "constexpr", "const", "inline", "mutable", "virtual",
    "explicit", "friend", "typedef", "using", "extern", "thread_local",
    "volatile", "register", "consteval", "constinit",
})

_DEBUG_GATE_RE = re.compile(
    r"\bcheck\s*::\s*(?:deep|paranoid)|\bCPX_DCHECK_ENABLED\b")


def parse_file(path: str, text: str) -> FileFacts:
    toks = lex.tokenize(text)
    facts = FileFacts(path=path, includes=_INCLUDE_RE.findall(text),
                      lines=text.splitlines(), tokens=toks)
    match = _match_brackets(toks)
    _Scope(toks, match, facts).walk(0, len(toks), [], None)
    return facts


def _match_brackets(toks: list[Tok]) -> dict[int, int]:
    """open-index -> close-index for (), [], {} (best effort on imbalance)."""
    match: dict[int, int] = {}
    stacks: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    closers = {")": "(", "]": "[", "}": "{"}
    for i, t in enumerate(toks):
        if t.kind != lex.PUNCT:
            continue
        if t.text in stacks:
            stacks[t.text].append(i)
        elif t.text in closers:
            stack = stacks[closers[t.text]]
            if stack:
                match[stack.pop()] = i
    for stack in stacks.values():
        for i in stack:
            match[i] = len(toks)  # unclosed: runs to EOF
    return match


def _flatten(toks: list[Tok]) -> str:
    out: list[str] = []
    for t in toks:
        if t.kind == lex.STR:
            out.append('"' + t.text + '"')
        elif out and (out[-1][-1:].isalnum() or out[-1][-1:] == "_") and (
                t.text[:1].isalnum() or t.text[:1] == "_"):
            out.append(" " + t.text)
        else:
            out.append(t.text)
    return "".join(out)


class _Scope:
    """Walks declaration scopes (global / namespace / class bodies)."""

    def __init__(self, toks: list[Tok], match: dict[int, int],
                 facts: FileFacts) -> None:
        self.toks = toks
        self.match = match
        self.facts = facts

    # -- declaration-scope walk ------------------------------------------

    def walk(self, lo: int, hi: int, ns: list[str],
             cls: ClassInfo | None) -> None:
        i = lo
        while i < hi:
            i = self._declaration(i, hi, ns, cls)

    def _declaration(self, i: int, hi: int, ns: list[str],
                     cls: ClassInfo | None) -> int:
        toks, match = self.toks, self.match
        # Skip empty declarations and access specifiers.
        while i < hi:
            t = toks[i]
            if t.text == ";":
                i += 1
            elif (t.text in ("public", "private", "protected")
                  and i + 1 < hi and toks[i + 1].text == ":"):
                i += 2
            else:
                break
        if i >= hi:
            return hi

        head: list[Tok] = []
        saw_eq = False          # top-level `=` → initializer follows
        params: list[Tok] | None = None   # parameter-list group contents
        params_open = -1
        in_init = False         # inside a constructor init list
        j = i
        while j < hi:
            t = toks[j]
            if t.text == "template" and j + 1 < hi and toks[j + 1].text == "<":
                close = self._angle_close(j + 1, hi)
                head.append(t)
                j = close + 1
                continue
            if t.text in "([":
                close = match.get(j, hi)
                if (t.text == "(" and params is None and not saw_eq
                        and head and head[-1].kind == lex.ID
                        and head[-1].text != "operator"
                        and head[-1].text not in _CONTROL_KEYWORDS
                        and not _MACRO_NAME_RE.match(head[-1].text)
                        or t.text == "(" and params is None and not saw_eq
                        and len(head) >= 2 and head[-1].text in
                        ("=", "(", ")", "[", "]", "<", ">", "+", "-", "*",
                         "/", "%", "!", "&", "|", "^", "~")
                        and head[-2].text == "operator"):
                    params = toks[j + 1:close]
                    params_open = j
                head.extend(toks[j:min(close + 1, hi)])
                j = close + 1
                continue
            if t.text == "=":
                # `operator=` is part of a declarator name, not an
                # initializer; so is `= default` / `= delete` after params.
                if not (head and head[-1].text == "operator"):
                    saw_eq = True
                head.append(t)
                j += 1
                continue
            if (t.text == ":" and params is not None and not saw_eq
                    and j + 1 < hi and toks[j + 1].text != ":"
                    and (j == 0 or toks[j - 1].text != ":")):
                in_init = True
                head.append(t)
                j += 1
                continue
            if t.text == ";":
                self._classify_no_body(head, params, ns, cls)
                return j + 1
            if t.text == "{":
                close = match.get(j, hi)
                if saw_eq or (in_init and self._init_continues(close, hi)):
                    # Initializer brace (or an init-list item's braces):
                    # part of the declaration, keep scanning.
                    head.extend(toks[j:min(close + 1, hi)])
                    j = close + 1
                    continue
                if (params is None and not in_init and head
                        and head[-1].kind == lex.ID
                        and not any(x.text in ("namespace", "class",
                                               "struct", "union", "enum",
                                               "extern")
                                    for x in head)):
                    # Brace initializer on a member/variable without `=`:
                    # `std::atomic<int> job_next_{0};` — part of the
                    # declaration, keep scanning toward the `;`.
                    head.extend(toks[j:min(close + 1, hi)])
                    j = close + 1
                    continue
                return self._classify_body(head, params, params_open, j,
                                           close, ns, cls, hi)
            if t.text == "}":
                return j + 1  # scope closer reached mid-declaration
            head.append(t)
            j += 1
        return hi

    def _init_continues(self, close: int, hi: int) -> bool:
        """After an init-list item's {…}, a `,` means more items follow."""
        return close + 1 < hi and self.toks[close + 1].text == ","

    def _angle_close(self, open_idx: int, hi: int) -> int:
        depth = 0
        for j in range(open_idx, hi):
            t = self.toks[j].text
            if t == "<":
                depth += 1
            elif t == ">":
                depth -= 1
                if depth == 0:
                    return j
            elif t == ">>":
                depth -= 2
                if depth <= 0:
                    return j
            elif t in (";", "{"):
                break
        return open_idx  # not a template header after all

    # -- classification ---------------------------------------------------

    def _classify_no_body(self, head: list[Tok], params: list[Tok] | None,
                          ns: list[str], cls: ClassInfo | None) -> None:
        if not head or cls is None:
            return
        first = head[0].text
        if first in ("using", "typedef", "friend", "template", "enum",
                     "class", "struct", "union"):
            return
        if params is not None:
            # Method declaration (incl. `= default` / `= delete`).
            name = self._name_before_params(head)
            if name:
                cls.method_names.add(name)
            return
        self._record_fields(head, cls)

    def _classify_body(self, head: list[Tok], params: list[Tok] | None,
                       params_open: int, body_open: int, body_close: int,
                       ns: list[str], cls: ClassInfo | None,
                       hi: int) -> int:
        toks = self.toks
        inner_lo, inner_hi = body_open + 1, min(body_close, hi)
        kw = next((t.text for t in head
                   if t.text in ("namespace", "class", "struct", "union",
                                 "enum", "extern")), "")
        first = head[0].text if head else ""
        if first == "namespace":
            parts = [t.text for t in head[1:] if t.kind == lex.ID]
            self.walk(inner_lo, inner_hi, ns + parts, None)
            return body_close + 1
        if first == "extern" and len(head) >= 2 and head[1].kind == lex.STR:
            self.walk(inner_lo, inner_hi, ns, cls)
            return body_close + 1
        if first == "enum" or kw == "enum":
            return self._skip_trailer(body_close + 1, hi)
        if kw in ("class", "struct", "union") and params is None or (
                kw in ("class", "struct", "union")
                and first in ("class", "struct", "union", "template")):
            name = self._class_name(head)
            qual = "::".join(ns + ([cls.name] if cls else []) + [name])
            info = ClassInfo(name=name, qualname=qual,
                             line=head[0].line if head else toks[body_open].line)
            self.facts.classes.append(info)
            self.walk(inner_lo, inner_hi, ns + ([cls.name] if cls else []),
                      info)
            return self._skip_trailer(body_close + 1, hi)
        if params is not None:
            self._record_function(head, params, inner_lo, inner_hi, ns, cls)
            return body_close + 1
        # Unrecognised braced declaration: treat as opaque.
        return self._skip_trailer(body_close + 1, hi)

    def _skip_trailer(self, i: int, hi: int) -> int:
        """Consumes a `} name_, other_;` trailer after a type body — but
        only when a `;` genuinely follows; otherwise stays put."""
        j = i
        while j < hi and (self.toks[j].kind == lex.ID
                          or self.toks[j].text in (",", "*", "&")):
            j += 1
        if j < hi and self.toks[j].text == ";":
            return j + 1
        return i

    def _class_name(self, head: list[Tok]) -> str:
        # Name = last identifier before a base-clause `:` (or end of head),
        # skipping attribute-macro calls like CPX_CAPABILITY("mutex").
        end = len(head)
        depth = 0
        for k, t in enumerate(head):
            if t.text in "([":
                depth += 1
            elif t.text in ")]":
                depth -= 1
            elif (t.text == ":" and depth == 0 and k > 0
                  and head[k - 1].text != ":"
                  and (k + 1 >= len(head) or head[k + 1].text != ":")):
                end = k
                break
        for k in range(end - 1, -1, -1):
            t = head[k]
            if t.kind == lex.ID and t.text not in ("final", "class",
                                                   "struct", "union"):
                if _MACRO_NAME_RE.match(t.text) and k + 1 < end \
                        and head[k + 1].text == "(":
                    continue
                return t.text
        return "<anon>"

    def _name_before_params(self, head: list[Tok]) -> str:
        """The declarator name: identifier chain right before the parameter
        list. Strips trailing attribute-macro calls first."""
        k = len(head) - 1
        # Drop trailing qualifier tokens and macro groups after the params.
        while k >= 0:
            t = head[k]
            if t.text == ")":
                depth = 0
                while k >= 0:
                    if head[k].text == ")":
                        depth += 1
                    elif head[k].text == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                k -= 1
                # The identifier before this group is the candidate name —
                # unless it is a SHOUTING macro (annotation), in which case
                # keep walking left.
                if k >= 0 and head[k].kind == lex.ID \
                        and _MACRO_NAME_RE.match(head[k].text):
                    k -= 1
                    continue
                break
            if t.kind == lex.ID and not _MACRO_NAME_RE.match(t.text) \
                    and t.text not in ("const", "noexcept", "override",
                                       "final", "mutable"):
                break
            k -= 1
        if k < 0:
            return ""
        t = head[k]
        if t.kind == lex.ID:
            if k >= 1 and head[k - 1].text == "operator":
                return "operator " + t.text  # operator new etc.
            return t.text
        if t.kind == lex.PUNCT and k >= 1 and head[k - 1].text == "operator":
            return "operator" + t.text
        return ""

    def _qualname_before_params(self, head: list[Tok]) -> list[str]:
        """['Cluster', 'exchange_finish'] for `void Cluster::exchange_finish(`.
        Walks back from the parameter group over `ident(::ident)*`."""
        # Locate the parameter group: first top-level '(' whose preceding
        # identifier is the declarator name (mirror of head collection).
        idx = None
        depth = 0
        for k, t in enumerate(head):
            if t.text in "([":
                if t.text == "(" and depth == 0 and k > 0:
                    prev = head[k - 1]
                    if (prev.kind == lex.ID
                            and prev.text not in _CONTROL_KEYWORDS
                            and not _MACRO_NAME_RE.match(prev.text)) or (
                            prev.kind == lex.PUNCT and k >= 2
                            and head[k - 2].text == "operator"):
                        idx = k
                        break
                depth += 1
            elif t.text in ")]":
                depth -= 1
        if idx is None:
            return []
        k = idx - 1
        if head[k].kind == lex.PUNCT and head[k - 1].text == "operator":
            name = "operator" + head[k].text
            k -= 2
        else:
            name = head[k].text
            k -= 1
            if k >= 0 and head[k].text == "operator":
                name = "operator " + name
                k -= 1
            elif k >= 0 and head[k].text == "~":
                name = "~" + name
                k -= 1
        parts = [name]
        while k >= 1 and head[k].text == "::" and head[k - 1].kind == lex.ID:
            parts.insert(0, head[k - 1].text)
            k -= 2
        return parts

    # -- fields -----------------------------------------------------------

    def _record_fields(self, head: list[Tok], cls: ClassInfo) -> None:
        if not head:
            return
        is_static = any(t.text in ("static", "constexpr") for t in head)
        first = head[0].text
        if first in _DECL_SPECIFIERS and first in ("using", "typedef",
                                                   "friend", "extern"):
            return
        # Declarator part: everything before a top-level `=` or the first
        # initializer brace group.
        decl: list[Tok] = []
        depth = 0
        for t in head:
            if t.text in "([{":
                depth += 1
            elif t.text in ")]}":
                depth -= 1
            if t.text == "=" and depth == 0:
                break
            if t.text == "{" and depth == 1:
                break
            decl.append(t)
        # Strip trailing annotation-macro groups: `name CPX_GUARDED_BY(m)`.
        while (len(decl) >= 3 and decl[-1].text == ")"):
            d = 0
            k = len(decl) - 1
            while k >= 0:
                if decl[k].text == ")":
                    d += 1
                elif decl[k].text == "(":
                    d -= 1
                    if d == 0:
                        break
                k -= 1
            if k >= 1 and decl[k - 1].kind == lex.ID \
                    and _MACRO_NAME_RE.match(decl[k - 1].text):
                decl = decl[:k - 1]
                continue
            break
        # Strip trailing array extents `name[3]`.
        while len(decl) >= 2 and decl[-1].text == "]":
            d = 0
            k = len(decl) - 1
            while k >= 0:
                if decl[k].text == "]":
                    d += 1
                elif decl[k].text == "[":
                    d -= 1
                    if d == 0:
                        break
                k -= 1
            decl = decl[:k]
        # Bitfield `int x : 3` — cut at top-level ':'.
        for k, t in enumerate(decl):
            if t.text == ":" and (k == 0 or decl[k - 1].text != ":") \
                    and (k + 1 >= len(decl) or decl[k + 1].text != ":"):
                decl = decl[:k]
                break
        if not decl or decl[-1].kind != lex.ID:
            return
        name_tok = decl[-1]
        if name_tok.text in _DECL_SPECIFIERS or \
                name_tok.text in _CONTROL_KEYWORDS:
            return
        type_text = _flatten(decl[:-1])
        if not type_text:
            return
        cls.fields.append(FieldInfo(name=name_tok.text, type_text=type_text,
                                    line=name_tok.line, is_static=is_static))

    # -- functions --------------------------------------------------------

    def _record_function(self, head: list[Tok], params: list[Tok],
                         body_lo: int, body_hi: int, ns: list[str],
                         cls: ClassInfo | None) -> None:
        rel = self._qualname_before_params(head)
        if not rel:
            return
        outer = ns + ([cls.name] if cls else [])
        qual = "::".join(outer + rel)
        fn = FunctionInfo(name=rel[-1], qualname=qual,
                          line=head[0].line if head else 0,
                          param_text=_flatten(params))
        if cls is not None:
            cls.method_names.add(rel[-1])
        body = _BodyParser(self.toks, self.match).parse(body_lo, body_hi)
        fn.body = body
        _extract_body_facts(fn, self.toks, body_lo, body_hi, body)
        self.facts.functions.append(fn)


# -- statement tree -------------------------------------------------------

class _BodyParser:
    def __init__(self, toks: list[Tok], match: dict[int, int]) -> None:
        self.toks = toks
        self.match = match

    def parse(self, lo: int, hi: int) -> list[Stmt]:
        stmts: list[Stmt] = []
        i = lo
        while i < hi:
            s, i = self._statement(i, hi)
            if s is not None:
                stmts.append(s)
        return stmts

    def _statement(self, i: int, hi: int) -> tuple[Stmt | None, int]:
        toks, match = self.toks, self.match
        t = toks[i]
        if t.text == ";":
            return None, i + 1
        if t.text == "{":
            close = min(match.get(i, hi), hi)
            return (Stmt(S_BLOCK, t.line,
                         children=self.parse(i + 1, close)), close + 1)
        if t.text == "if":
            j = i + 1
            if j < hi and toks[j].text == "constexpr":
                j += 1
            cond, j = self._group(j, hi)
            then, j = self._statement(j, hi)
            node = Stmt(S_IF, t.line, tokens=cond,
                        children=[then] if then else [])
            if j < hi and toks[j].text == "else":
                els, j = self._statement(j + 1, hi)
                node.else_children = [els] if els else []
            return node, j
        if t.text in ("while", "switch"):
            cond, j = self._group(i + 1, hi)
            body, j = self._statement(j, hi)
            kind = S_LOOP if t.text == "while" else S_SWITCH
            return Stmt(kind, t.line, tokens=cond,
                        children=[body] if body else []), j
        if t.text == "for":
            open_idx = i + 1
            close = min(match.get(open_idx, hi), hi) \
                if open_idx < hi and toks[open_idx].text == "(" else open_idx
            header = toks[open_idx + 1:close]
            node = Stmt(S_LOOP, t.line, tokens=header)
            colon = self._range_colon(header)
            if colon is not None:
                node.decl_tokens = header[:colon]
                node.range_tokens = header[colon + 1:]
            body, j = self._statement(close + 1, hi)
            if body:
                node.children = [body]
            return node, j
        if t.text == "do":
            body, j = self._statement(i + 1, hi)
            node = Stmt(S_LOOP, t.line, children=[body] if body else [])
            if j < hi and toks[j].text == "while":
                cond, j = self._group(j + 1, hi)
                node.tokens = cond
                if j < hi and toks[j].text == ";":
                    j += 1
            return node, j
        if t.text == "try":
            body, j = self._statement(i + 1, hi)
            node = Stmt(S_TRY, t.line, children=[body] if body else [])
            while j < hi and toks[j].text == "catch":
                _, j = self._group(j + 1, hi)
                handler, j = self._statement(j, hi)
                if handler:
                    node.else_children.append(handler)
            return node, j
        if t.text in ("case", "default"):
            j = i
            while j < hi and toks[j].text != ":":
                j += 1
            return None, j + 1
        if t.text in ("return", "throw"):
            expr, j = self._simple_tokens(i + 1, hi)
            kind = S_RETURN if t.text == "return" else S_THROW
            return Stmt(kind, t.line, tokens=expr), j
        if t.text == "}":
            return None, i + 1  # stray closer; tolerate
        expr, j = self._simple_tokens(i, hi)
        line = t.line
        return Stmt(S_SIMPLE, line, tokens=expr), j

    def _group(self, i: int, hi: int) -> tuple[list[Tok], int]:
        """The contents of a `( ... )` group starting at i (if present)."""
        if i < hi and self.toks[i].text == "(":
            close = min(self.match.get(i, hi), hi)
            return self.toks[i + 1:close], close + 1
        return [], i

    def _simple_tokens(self, i: int, hi: int) -> tuple[list[Tok], int]:
        """Tokens up to the top-level `;` (consuming nested groups — lambda
        bodies and brace initialisers stay inside the statement)."""
        out: list[Tok] = []
        j = i
        while j < hi:
            t = self.toks[j]
            if t.text == ";":
                return out, j + 1
            if t.text in "([{":
                close = min(self.match.get(j, hi), hi)
                out.extend(self.toks[j:close + 1])
                j = close + 1
                continue
            if t.text == "}":
                return out, j  # scope end without `;` (e.g. last expr)
            out.append(t)
            j += 1
        return out, hi

    @staticmethod
    def _range_colon(header: list[Tok]) -> int | None:
        depth = 0
        for k, t in enumerate(header):
            if t.text in "([{<":
                depth += 1 if t.text != "<" else 0
            elif t.text in ")]}":
                depth -= 1
            elif t.text == ";":
                return None  # classic three-clause for
            elif t.text == ":" and depth == 0:
                if (k > 0 and header[k - 1].text == ":") or \
                        (k + 1 < len(header) and header[k + 1].text == ":"):
                    continue  # `::`
                return k
        return None


# -- body fact extraction -------------------------------------------------

def _extract_body_facts(fn: FunctionInfo, toks: list[Tok], lo: int, hi: int,
                        body: list[Stmt]) -> None:
    for t in toks[lo:hi]:
        if t.kind == lex.ID:
            fn.body_idents.add(t.text)
    _walk_for_facts(fn, body, in_debug_gate=False)


def _walk_for_facts(fn: FunctionInfo, stmts: list[Stmt],
                    in_debug_gate: bool) -> None:
    for s in stmts:
        toks = list(s.tokens) + list(s.range_tokens) + list(s.decl_tokens)
        _scan_calls(fn, toks, in_debug_gate)
        if s.kind == S_SIMPLE:
            _scan_local_decl(fn, s.tokens)
        if s.kind == S_LOOP and s.decl_tokens:
            _scan_local_decl(fn, s.decl_tokens + [Tok(lex.PUNCT, ";", s.line)])
        gated = in_debug_gate or (
            s.kind == S_IF and _DEBUG_GATE_RE.search(_flatten(s.tokens))
            is not None)
        _walk_for_facts(fn, s.children, gated)
        _walk_for_facts(fn, s.else_children, in_debug_gate)


def _scan_calls(fn: FunctionInfo, toks: list[Tok], gated: bool) -> None:
    for k, t in enumerate(toks):
        if t.kind != lex.ID or t.text in _CONTROL_KEYWORDS:
            continue
        if _call_paren(toks, k + 1) is None:
            continue
        receiver = ""
        qualifier = ""
        if k >= 1 and toks[k - 1].text in (".", "->"):
            prev = toks[k - 2] if k >= 2 else None
            if prev is not None and prev.kind == lex.ID:
                receiver = prev.text
            else:
                receiver = "<expr>"
        elif k >= 1 and toks[k - 1].text == "::":
            parts = []
            m = k - 1
            while m >= 1 and toks[m].text == "::" \
                    and toks[m - 1].kind == lex.ID:
                parts.insert(0, toks[m - 1].text)
                m -= 2
            qualifier = "::".join(parts)
        fn.calls.append(CallSite(name=t.text, qualifier=qualifier,
                                 receiver=receiver, line=t.line,
                                 in_debug_gate=gated))


def _call_paren(toks: list[Tok], k: int) -> int | None:
    """Index of the `(` that makes toks[k - 1] a callee: the next token, or
    the one after an explicit template-argument list (`f<W>(...)`)."""
    if k < len(toks) and toks[k].text == "<":
        depth = 0
        for j in range(k, len(toks)):
            text = toks[j].text
            if text in ("<", ">", ">>"):
                depth += {"<": 1, ">": -1, ">>": -2}[text]
                if depth <= 0:
                    k = j + 1
                    break
            elif text in (";", "{", "}", "&&", "||"):
                return None
        else:
            return None
    return k if k < len(toks) and toks[k].text == "(" else None


def _scan_local_decl(fn: FunctionInfo, toks: list[Tok]) -> None:
    """Best-effort local variable declaration: `<type tokens> name (init)?`.
    Used only for receiver-type resolution, so precision matters more than
    recall; obvious non-declarations are skipped."""
    if not toks or toks[0].kind != lex.ID:
        return
    if toks[0].text in _CONTROL_KEYWORDS or toks[0].text == "delete":
        return
    # Find the declared name: the last identifier before `=`, `{`, `(` or
    # end, provided at least one type token precedes it.
    depth = 0
    angle = 0
    name_idx = None
    for k, t in enumerate(toks):
        if t.text in "([":
            depth += 1
        elif t.text in ")]":
            depth -= 1
        elif t.text == "<" and k > 0 and (toks[k - 1].kind == lex.ID
                                          or toks[k - 1].text == ">"):
            angle += 1
        elif t.text == ">" and angle:
            angle -= 1
        elif t.text == ">>" and angle:
            angle = max(0, angle - 2)
        if depth or angle:
            continue
        if t.text in ("=", "{"):
            break
        if t.kind == lex.ID and k > 0:
            prev = toks[k - 1]
            if prev.kind == lex.ID or prev.text in ("&", "*", ">", "::"):
                if prev.text == "::":
                    continue  # qualified name continues
                name_idx = k
    if name_idx is None or name_idx == 0:
        return
    nxt = toks[name_idx + 1].text if name_idx + 1 < len(toks) else ";"
    if nxt not in ("=", "{", "(", ";", ",", ":"):
        return
    name = toks[name_idx].text
    type_toks = toks[:name_idx]
    type_text = _flatten(type_toks)
    if type_text in ("auto", "const auto", "auto&", "const auto&"):
        # Record the initialiser text instead — lets `auto m = make_map()`
        # style declarations still resolve container-ness textually.
        type_text = "auto:" + _flatten(toks[name_idx + 1:])
    fn.local_vars.append(VarDecl(name=name, type_text=type_text,
                                 line=toks[name_idx].line))
