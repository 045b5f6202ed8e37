"""Comment/literal stripper, tokenizer and bracket helpers."""

from __future__ import annotations

import re

TOKEN_RE = re.compile(
    r"""[A-Za-z_]\w*          # identifier
      | 0[xX][0-9a-fA-F']+ | \d[\d.'eEfuUlL]*   # numbers
      | ::|->\*?|\.\*|<<=|>>=|<=>|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<|>>|\+\+|--
      | [{}()\[\];,<>=!&|*+\-/%?:~^.\#@]
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default", "break",
    "continue", "return", "goto", "try", "catch", "throw", "new", "delete",
    "sizeof", "alignof", "static_cast", "dynamic_cast", "const_cast",
    "reinterpret_cast", "true", "false", "nullptr", "this", "const",
    "constexpr", "static", "inline", "virtual", "override", "final",
    "noexcept", "mutable", "explicit", "auto", "void", "bool", "char", "int",
    "unsigned", "signed", "long", "short", "float", "double", "class",
    "struct", "enum", "union", "namespace", "using", "typedef", "template",
    "typename", "public", "private", "protected", "friend", "operator",
    "co_await", "co_return", "co_yield", "std",
}

CONTROL = {"if", "for", "while", "switch", "catch", "else", "do", "try"}

_IDENT_RE = re.compile(r"[A-Za-z_]")


def is_ident(t: str) -> bool:
    return bool(_IDENT_RE.match(t))


def is_macro(t: str) -> bool:
    """GLOBE_* annotation and thread-safety macros: never a name."""
    return t.startswith("GLOBE_")


def strip_comments(text: str) -> str:
    """Removes comments, string/char literals and preprocessor directives,
    preserving newlines so token line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            seg = text[i:(n if j < 0 else j + 2)]
            out.append("\n" * seg.count("\n"))
            i = n if j < 0 else j + 2
        elif c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEF" \
                and i + 1 < n and text[i + 1].isalnum():
            i += 1  # digit separator (1'000'000), not a char literal
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append('""' if quote == '"' else "0")
            i = min(j + 1, n)
        elif c == "#" and (i == 0 or text[i - 1] == "\n"):
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                if text[k - 1] == "\\":
                    j = k + 1
                    continue
                j = k
                break
            seg = text[i:j]
            out.append("\n" * seg.count("\n"))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(text: str):
    """Returns [(token, line)]."""
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        toks.append((m.group(0), line))
    return toks


def match_forward(toks, i, open_t, close_t):
    """Index just past the bracket pair opening at toks[i]."""
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return len(toks)


def split_top(toks, sep=","):
    """Splits a token list at top-level `sep` (paren/brace/angle aware)."""
    parts, cur = [], []
    p = a = 0
    for tk in toks:
        t = tk[0]
        if t in "([{":
            p += 1
        elif t in ")]}":
            p -= 1
        elif t == "<":
            a += 1
        elif t == ">" and a > 0:
            a -= 1
        if t == sep and p == 0 and a == 0:
            parts.append(cur)
            cur = []
        else:
            cur.append(tk)
    parts.append(cur)
    return parts


def depth_ok(toks, idx):
    """True if toks[idx] sits outside every bracket and angle pair."""
    d = a = 0
    for tk in toks[:idx]:
        t = tk[0]
        if t in "([{":
            d += 1
        elif t in ")]}":
            d -= 1
        elif t == "<":
            a += 1
        elif t == ">" and a > 0:
            a -= 1
    return d == 0 and a == 0


def skip_angles(toks, i):
    """Index of the `>` closing the angle list opening at toks[i]."""
    d = 0
    while i < len(toks):
        if toks[i][0] == "<":
            d += 1
        elif toks[i][0] == ">":
            d -= 1
            if d == 0:
                break
        i += 1
    return i
