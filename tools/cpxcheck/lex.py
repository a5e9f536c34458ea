"""C++ tokenizer for cpxcheck (docs/static_analysis.md).

A real lexer rather than a regex stripper: comments, string/char literals
(including raw strings with arbitrary delimiters and encoding prefixes),
digit separators, and preprocessor lines are consumed as units, so
downstream phases see a clean token stream with exact line numbers. This
is the layer that makes scope- and statement-level analysis possible at
all — per-line regex rules desynchronize on exactly the constructs
handled here.
"""

from __future__ import annotations

from dataclasses import dataclass

# Token kinds.
ID = "id"        # identifiers and keywords
NUM = "num"      # numeric literals (incl. digit separators)
STR = "str"      # string literal (text is the *uninterpreted* contents)
CHR = "chr"      # character literal
PUNCT = "punct"  # operators and punctuation (multi-char ops kept whole)

_PUNCT3 = ("<<=", ">>=", "...", "->*", "<=>")
_PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
           "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

_RAW_PREFIXES = ("R", "u8R", "uR", "UR", "LR")
_STR_PREFIXES = ("u8", "u", "U", "L")


@dataclass(frozen=True)
class Tok:
    kind: str
    text: str
    line: int

    def __repr__(self) -> str:  # compact for debugging
        return f"{self.kind}:{self.text}@{self.line}"


class LexError(ValueError):
    pass


def _is_id_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_id_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(text: str) -> list[Tok]:
    """Tokenizes C++ source. Preprocessor lines are skipped entirely
    (honouring backslash continuations); comments are dropped."""
    toks: list[Tok] = []
    i, n, line = 0, len(text), 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        nxt = text[i + 1] if i + 1 < n else ""
        # Comments.
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i = min(i + 2, n)
            continue
        # Preprocessor directive: skip the logical line.
        if c == "#" and (not toks or _line_start(text, i)):
            while i < n:
                if text[i] == "\\" and i + 1 < n and text[i + 1] == "\n":
                    line += 1
                    i += 2
                    continue
                if text[i] == "\n":
                    break
                # A comment may hide the continuation; handle block
                # comments spanning lines inside directives.
                if text[i] == "/" and i + 1 < n and text[i + 1] == "*":
                    i += 2
                    while i + 1 < n and not (text[i] == "*"
                                             and text[i + 1] == "/"):
                        if text[i] == "\n":
                            line += 1
                        i += 1
                    i = min(i + 2, n)
                    continue
                i += 1
            continue
        # Identifier / keyword — and possibly a literal prefix.
        if _is_id_start(c):
            j = i
            while j < n and _is_id_char(text[j]):
                j += 1
            word = text[i:j]
            follower = text[j] if j < n else ""
            if follower == '"' and word in _RAW_PREFIXES:
                i, line = _raw_string(text, j, line, toks)
                continue
            if follower == '"' and word in _STR_PREFIXES:
                i, line = _quoted(text, j, '"', line, toks, STR)
                continue
            if follower == "'" and word in _STR_PREFIXES:
                i, line = _quoted(text, j, "'", line, toks, CHR)
                continue
            toks.append(Tok(ID, word, line))
            i = j
            continue
        # Numeric literal (digit separators, hex, exponents, suffixes).
        if c.isdigit() or (c == "." and nxt.isdigit()):
            j = i
            while j < n and (_is_id_char(text[j]) or text[j] in ".'" or
                             (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok(NUM, text[i:j], line))
            i = j
            continue
        if c == '"':
            i, line = _quoted(text, i, '"', line, toks, STR)
            continue
        if c == "'":
            i, line = _quoted(text, i, "'", line, toks, CHR)
            continue
        # Punctuation, longest-match first.
        three = text[i:i + 3]
        two = text[i:i + 2]
        if three in _PUNCT3:
            toks.append(Tok(PUNCT, three, line))
            i += 3
        elif two in _PUNCT2:
            toks.append(Tok(PUNCT, two, line))
            i += 2
        else:
            toks.append(Tok(PUNCT, c, line))
            i += 1
    return toks


def _line_start(text: str, i: int) -> bool:
    j = i - 1
    while j >= 0 and text[j] in " \t":
        j -= 1
    return j < 0 or text[j] == "\n"


def _quoted(text: str, i: int, quote: str, line: int, toks: list[Tok],
            kind: str) -> tuple[int, int]:
    """Consumes a (possibly prefixed) quoted literal starting at the quote
    character `text[i]`."""
    start_line = line
    j = i + 1
    n = len(text)
    while j < n and text[j] != quote:
        if text[j] == "\\" and j + 1 < n:
            if text[j + 1] == "\n":
                line += 1
            j += 2
            continue
        if text[j] == "\n":
            # Unterminated literal (or a stray quote in odd code): bail at
            # end of line rather than swallowing the rest of the file.
            toks.append(Tok(kind, text[i + 1:j], start_line))
            return j, line
        j += 1
    toks.append(Tok(kind, text[i + 1:j], start_line))
    return min(j + 1, n), line


def _raw_string(text: str, i: int, line: int,
                toks: list[Tok]) -> tuple[int, int]:
    """Consumes a raw string literal whose opening quote is at text[i]:
    R"delim( ... )delim". No escapes apply inside."""
    n = len(text)
    start_line = line
    j = i + 1
    while j < n and text[j] not in "(\n":
        j += 1
    if j >= n or text[j] != "(":
        # Malformed; treat as an ordinary string to stay robust.
        return _quoted(text, i, '"', line, toks)
    delim = text[i + 1:j]
    closer = ")" + delim + '"'
    end = text.find(closer, j + 1)
    if end == -1:
        end = n
    contents = text[j + 1:end]
    line += contents.count("\n")
    toks.append(Tok(STR, contents, start_line))
    return min(end + len(closer), n), line
