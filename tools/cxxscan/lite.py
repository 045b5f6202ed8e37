"""Lite frontend: a stdlib-only declaration scanner and statement parser.

`scan_declarations` walks a token stream and yields every function
declaration or definition with its qualified name, parameter tokens,
qualifier zone and body tokens.  `parse_file` turns those into the
statement IR (ir.Func with ir.Stmt bodies); an analyzer with its own body
IR consumes `scan_declarations` directly.  `harvest_fields` and
`harvest_mutexes` read member declarations out of class bodies by regex.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from .ir import REPO, Arg, CallSite, Func, Param, Stmt
from .lex import (CONTROL, KEYWORDS, depth_ok, is_ident, is_macro,
                  match_forward, skip_angles, split_top, strip_comments,
                  tokenize)

# Template functions whose `<...>` the expression parser hops to see the
# call: make_unique<T[]>(n) allocates n elements.
TEMPLATE_CALLS = {"make_unique"}

_SINGLE_TYPES = {"auto", "bool", "int", "unsigned", "long", "short", "float",
                 "double", "char", "size_t", "uint32_t", "uint64_t"}


def _name(t: str) -> bool:
    """An identifier that can name a variable, type or function."""
    return is_ident(t) and t not in KEYWORDS and not is_macro(t)


# --------------------------------------------------------------------------
# Declarations
# --------------------------------------------------------------------------

@dataclass
class Decl:
    qname: str
    cls: str | None
    line: int
    head: list          # tokens before the parameter list (name included)
    params: list        # parameter-list tokens
    quals: list         # tokens between `)` and the body / `;`
    body: list | None   # body tokens of a definition, None for a declaration


def class_head(toks, i):
    """toks[i] is `class`/`struct`.  Returns (name, index of `{`) for a class
    definition, else (None, index).  GLOBE_* macro groups are skipped, so
    `class GLOBE_CAPABILITY("mutex") Mutex {` opens a scope named Mutex."""
    n = len(toks)
    j = i + 1
    name = None
    while j < n and toks[j][0] not in ("{", ";"):
        t = toks[j][0]
        if is_macro(t):
            j += 1
            if j < n and toks[j][0] == "(":
                j = match_forward(toks, j, "(", ")")
            continue
        if t == "(":  # e.g. `struct X x(...)` — not a definition
            return None, j
        if is_ident(t) and name is None:
            name = t
        j += 1
    if j < n and toks[j][0] == "{" and name:
        return name, j
    return None, j


def _qualifier_zone(toks, k):
    """Scans from just past a declarator's `)`.  Returns (k, kind): kind is
    "def" with toks[k] == '{', "decl" with toks[k] == ';', or "skip" when the
    parenthesis was an expression, not a parameter list."""
    n = len(toks)
    while k < n:
        q = toks[k][0]
        if q == ";":
            return k, "decl"
        if q == "{":
            return k, "def"
        if q == "=":  # = 0; / = default; / = delete;
            while k < n and toks[k][0] != ";":
                k += 1
            return k, "decl"
        if q == ":":  # ctor init list: skip to the body '{'
            k += 1
            while k < n:
                qq = toks[k][0]
                if qq == "(":
                    k = match_forward(toks, k, "(", ")")
                    continue
                if qq == "{":
                    # a '{' right after ')' or '}' opens the body; any other
                    # is a brace initializer
                    if toks[k - 1][0] in (")", "}"):
                        break
                    k = match_forward(toks, k, "{", "}")
                    continue
                if qq == ";":
                    break
                k += 1
            return k, ("def" if k < n and toks[k][0] == "{" else "decl")
        if is_macro(q) and k + 1 < n and toks[k + 1][0] == "(":
            k = match_forward(toks, k + 1, "(", ")")
            continue
        if q == "(":
            return k, "skip"
        k += 1
    return k, "skip"


def scan_declarations(toks):
    """Yields a Decl for every function declaration or definition."""
    scopes = []   # (kind, name)
    pending = []  # tokens since the last boundary
    i, n = 0, len(toks)
    while i < n:
        t, line = toks[i]
        if t == "namespace":
            # C++17 nested namespaces (`namespace a::b {`) open ONE brace.
            j = i + 1
            names = []
            while j < n and toks[j][0] not in ("{", ";", "="):
                if is_ident(toks[j][0]):
                    names.append(toks[j][0])
                j += 1
            if j < n and toks[j][0] == "{":
                scopes.append(("ns", "::".join(names)))
            i = j + 1  # else: namespace alias / using directive fragment
            pending = []
            continue
        if t in ("class", "struct") and not (pending and pending[-1][0] == "enum"):
            name, j = class_head(toks, i)
            if name:
                scopes.append(("class", name))
                i = j + 1
                pending = []
                continue
            pending.append(toks[i])
            i += 1
            continue
        if t == "template" and i + 1 < n and toks[i + 1][0] == "<":
            i = skip_angles(toks, i + 1) + 1
            continue
        if t == "{":
            i = match_forward(toks, i, "{", "}")  # stray block (enum, init)
            pending = []
            continue
        if t == "}":
            if scopes:
                scopes.pop()
            if i + 1 < n and toks[i + 1][0] == ";":
                i += 1
            i += 1
            pending = []
            continue
        if t == ";":
            pending = []
            i += 1
            continue
        if t == "(" and pending:
            name_parts = []
            j = len(pending) - 1
            if is_ident(pending[j][0]) \
                    and pending[j][0] not in KEYWORDS - {"operator"}:
                name_parts.append(pending[j][0])
                j -= 1
                while j >= 1 and pending[j][0] == "::" \
                        and is_ident(pending[j - 1][0]):
                    name_parts.append(pending[j - 1][0])
                    j -= 2
            name_parts.reverse()
            is_dtor = j >= 0 and pending[j][0] == "~"
            is_op = "operator" in [p[0] for p in pending[max(0, j - 1):]]
            if not name_parts or is_op or is_macro(name_parts[-1]):
                i = match_forward(toks, i, "(", ")")
                continue
            close = match_forward(toks, i, "(", ")")
            k, kind = _qualifier_zone(toks, close)
            if kind == "skip" or is_dtor:
                i = close
                continue
            names = [s[1] for s in scopes if s[1]]
            cls = next((s[1] for s in reversed(scopes) if s[0] == "class"),
                       None)
            body = None
            if kind == "def":
                end = match_forward(toks, k, "{", "}")
                body = toks[k + 1:end - 1]
            yield Decl(qname="::".join(names + name_parts),
                       cls=cls or (name_parts[-2] if len(name_parts) >= 2
                                   else None),
                       line=line, head=pending, params=toks[i + 1:close - 1],
                       quals=toks[close:k], body=body)
            i = end if kind == "def" else k + 1
            pending = []
            continue
        pending.append(toks[i])
        i += 1


# --------------------------------------------------------------------------
# Statement IR
# --------------------------------------------------------------------------

def parse_param(toks, prog) -> Param:
    p = Param()
    # Truncate default argument.
    for idx, tk in enumerate(toks):
        if tk[0] == "=" and depth_ok(toks, idx):
            toks = toks[:idx]
            break
    kept = []
    for i, tk in enumerate(toks):
        name = tk[0]
        if is_macro(name):
            a = prog.annot_of(name)
            if a:
                p.annots.add(a)
        elif is_ident(name) and name not in ("const", "struct", "typename",
                                             "volatile"):
            kept.append((i, name))
    if not kept:
        return p
    li, lname = kept[-1]
    prev = toks[li - 1][0] if li > 0 else None
    if len(kept) >= 2 and prev not in ("::", "<", ","):
        p.name = lname
        p.type = kept[-2][1]
    else:
        p.type = lname  # unnamed parameter
    return p


def _call_args(toks):
    return [Arg(*parse_expr(part)) for part in split_top(toks) if part]


def parse_expr(toks):
    """Recursive descent over an expression token list -> (refs, calls)."""
    refs, calls = [], []
    i = 0
    n = len(toks)
    while i < n:
        t, line = toks[i]
        if not _name(t):
            i += 1
            continue
        # Parse the whole postfix chain forward: a::b, x.f, p->q ...
        chain, seps = [t], []
        j = i + 1
        while j + 1 < n and toks[j][0] in ("::", ".", "->") \
                and is_ident(toks[j + 1][0]) \
                and toks[j + 1][0] not in KEYWORDS:
            seps.append(toks[j][0])
            chain.append(toks[j + 1][0])
            j += 2
        # make_unique<T[]>(n): hop the template argument list so the call
        # and its count argument are visible.  Only the array form
        # allocates a count — make_unique<T>(args) forwards to a ctor.
        array_form = False
        if j < n and toks[j][0] == "<" and chain[-1] in TEMPLATE_CALLS:
            k = skip_angles(toks, j)
            array_form = any(tk[0] == "[" for tk in toks[j:k])
            if k + 1 < n and toks[k + 1][0] == "(":
                j = k + 1
        if j < n and toks[j][0] == "(":
            cs = CallSite(line=line, chain=chain, array_form=array_form)
            if seps and seps[-1] in (".", "->"):
                cs.recv_path = chain[:-1]
                cs.recv = cs.recv_path[0]
            else:
                cs.explicit = bool(seps)
            end = match_forward(toks, j, "(", ")")
            cs.args = _call_args(toks[j + 1:end - 1])
            calls.append(cs)
            i = end
            continue
        if not (seps and all(s == "::" for s in seps)):
            refs.append(chain[0])  # member-access base variable
        # else: qualified constant (ErrorCode::kNotFound), not a variable
        i = j
    return refs, calls


def parse_stmt(seg) -> Stmt | None:
    """seg: token list (no trailing ';')."""
    if not seg:
        return None
    st = Stmt(line=seg[0][1])
    # Strip leading control keywords / labels.
    while seg and seg[0][0] in ("else", "do", "try"):
        seg = seg[1:]
    if not seg:
        return None
    head = seg[0][0]
    if head in ("case", "default", "break", "continue", "goto", "using",
                "public", "private", "protected"):
        return None
    cond_refs, cond_calls = [], []
    if head == "return":
        st.is_return = True
        seg = seg[1:]
    elif head in ("if", "while", "switch", "for", "catch"):
        seg = seg[1:]
        if seg and seg[0][0] == "(":
            end = match_forward(seg, 0, "(", ")")
            inner = seg[1:end - 1]
            rest = seg[end:]  # brace-less body: `if (ok) do_thing(x);`
            if head == "for":
                colon = [i for i, tk in enumerate(inner)
                         if tk[0] == ":" and depth_ok(inner, i)]
                if colon:  # range-for: `for (decl : expr)` is a declaration
                    idents = [tk[0] for tk in inner[:colon[0]]
                              if is_ident(tk[0]) and tk[0] not in KEYWORDS]
                    st.lhs = idents[-1] if idents else None
                    inner = inner[colon[0] + 1:]
            if rest:
                cond_refs, cond_calls = parse_expr(inner)
                if rest[0][0] == "return":
                    st.is_return = True
                    rest = rest[1:]
                seg = rest
            else:
                seg = inner
    # Assignment split at top-level '='.
    eq = None
    compound = False
    for idx, tk in enumerate(seg):
        if depth_ok(seg, idx):
            if tk[0] == "=":
                eq = idx
                break
            if tk[0] in ("+=", "-=", "*=", "/=", "|=", "&=", "^=", "<<=", ">>="):
                eq = idx
                compound = True
                break
    if eq is not None and st.lhs is None:
        lhs_toks = seg[:eq]
        idents = [tk[0] for tk in lhs_toks if _name(tk[0])]
        member = any(tk[0] in (".", "->", "[") for tk in lhs_toks)
        if idents:
            if member:
                st.lhs = idents[0]
                st.lhs_is_member = True
                # index expressions are reads
                st.refs.extend(idents[1:])
            else:
                st.lhs = idents[-1]
                if len(idents) >= 2:
                    st.decl_type = idents[-2]
        st.compound = compound
        seg = seg[eq + 1:]
    elif eq is None and st.lhs is None and not st.is_return:
        # Constructor-style declaration: `Type name(args)` / `Type name{args}`
        idents = []
        for idx, tk in enumerate(seg):
            if is_ident(tk[0]):
                idents.append((idx, tk[0]))
            elif tk[0] in ("(", "{"):
                break
            elif tk[0] not in ("::", "<", ">", "&", "*", ",", "const"):
                idents = []
                break
        vals = [x for x in idents if x[1] not in KEYWORDS or x[1] in _SINGLE_TYPES]
        if len(vals) >= 2:
            last_idx, last = vals[-1]
            nxt = seg[last_idx + 1][0] if last_idx + 1 < len(seg) else None
            prev = seg[last_idx - 1][0] if last_idx > 0 else None
            if nxt in ("(", "{") and prev not in ("::", ".", "->"):
                st.lhs = last
                st.decl_type = vals[-2][1]
                # the ctor call: Type(args)
                end = match_forward(seg, last_idx + 1,
                                    nxt, ")" if nxt == "(" else "}")
                cs = CallSite(line=st.line, chain=[st.decl_type, st.decl_type],
                              explicit=True)
                cs.args = _call_args(seg[last_idx + 2:end - 1])
                st.calls.append(cs)
                return st
    refs, calls = parse_expr(seg)
    st.refs.extend(refs)
    st.calls.extend(calls)
    # Condition refs/calls of a brace-less control statement ride along so
    # calls in the condition (e.g. `if (x.verify()) use(x)`) still count.
    st.refs.extend(cond_refs)
    st.calls.extend(cond_calls)
    if st.lhs is None and st.decl_type is None and not st.is_return \
            and not st.calls and not st.refs:
        return None
    return st


def parse_body(toks):
    """Linearizes a function body into statements (textual order)."""
    stmts = []
    local_types = {}
    seg = []
    i, n = 0, len(toks)
    pdepth = 0

    def flush():
        st = parse_stmt(seg)
        if st:
            stmts.append(st)
        return st

    while i < n:
        t = toks[i][0]
        if t == "(":
            pdepth += 1
            seg.append(toks[i])
        elif t == ")":
            pdepth -= 1
            seg.append(toks[i])
        elif t == ";" and pdepth == 0:
            st = flush()
            if st and st.decl_type and st.lhs:
                local_types[st.lhs] = st.decl_type
            elif st and st.lhs and st.lhs not in local_types \
                    and len(st.calls) == 1 and st.calls[0].explicit \
                    and len(st.calls[0].chain) >= 2 \
                    and st.calls[0].chain[-2][:1].isupper():
                # Factory idiom: `auto x = Type::parse(...)` — remember
                # Type so later `x->method()` receiver calls resolve.
                local_types[st.lhs] = st.calls[0].chain[-2]
            seg = []
        elif t == "{" and pdepth == 0:
            if not seg or seg[0][0] in CONTROL:
                flush()
                seg = []  # descend into the block
            else:
                # init-list / lambda body: swallow balanced braces into the
                # current statement so its refs stay attached.
                end = match_forward(toks, i, "{", "}")
                seg.extend(toks[i + 1:end - 1])
                i = end
                continue
        elif t == "}" and pdepth == 0:
            flush()
            seg = []
        else:
            seg.append(toks[i])
        i += 1
    flush()
    return stmts, local_types


def parse_file(path: str, prog):
    """Adds every function of one source file to `prog` (statement IR)."""
    text = strip_comments(open(path, encoding="utf-8", errors="replace").read())
    rel = os.path.relpath(path, REPO)
    for d in scan_declarations(tokenize(text)):
        f = Func(qname=d.qname, file=rel, line=d.line, cls=d.cls)
        for tok, _ in d.head + d.quals:
            a = prog.annot_of(tok)
            if a:
                f.annots.add(a)
        f.params = [parse_param(part, prog) for part in split_top(d.params)
                    if part and [t for t, _ in part] != ["void"]]
        if d.body is not None:
            f.stmts, f.local_types = parse_body(d.body)
            f.has_body = True
            # parameters are locals too
            for p in f.params:
                if p.name and p.type:
                    f.local_types.setdefault(p.name, p.type)
        prog.add(f)
    harvest_fields(text, rel, prog)


# --------------------------------------------------------------------------
# Member harvest
# --------------------------------------------------------------------------

# class_head() as a regex: GLOBE_* groups before the class name are skipped.
CLASS_RE = re.compile(r"\b(?:class|struct)\s+(?:GLOBE_\w+(?:\([^)]*\))?\s+)*"
                      r"([A-Za-z_]\w*)[^;{()]*\{")
# Member declarations, one nesting level of template arguments, optional
# trailing GLOBE_* annotation zone (GLOBE_BOUNDED, GLOBE_GUARDED_BY(...)),
# optional default member initializer.
_TPL = r"<(?:[^<>;]|<[^<>;]*>)*>"
FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?([A-Za-z_][\w:]*(?:" + _TPL + r")?)"
    r"[&*\s]+([A-Za-z_]\w*)\s*"
    r"((?:GLOBE_\w+(?:\([^)]*\))?\s*)*)"
    r"(?:=[^;]*|\{[^;]*\})?;",
    re.MULTILINE,
)
MUTEX_TYPES = {"Mutex": "mutex", "RecursiveMutex": "recursive"}
_MUTEX_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:globe::)?(?:util::)?(Mutex|RecursiveMutex)\s+"
    r"([A-Za-z_]\w*)\s*(?:GLOBE_\w+(?:\([^)]*\))?\s*)*;",
    re.MULTILINE,
)
_MUTEX_PTR_RE = re.compile(
    r"^\s*(?:mutable\s+)?std::unique_ptr<\s*(?:globe::)?(?:util::)?"
    r"(Mutex|RecursiveMutex)\s*>\s+([A-Za-z_]\w*)\s*"
    r"(?:GLOBE_\w+(?:\([^)]*\))?\s*)*(?:=[^;]*|\{[^;]*\})?;",
    re.MULTILINE,
)


def _mask_nested_braces(body: str) -> str:
    """Blanks the contents of any brace block inside a class body (inline
    method bodies, nested classes, default initializers) so member regexes
    only see the class's own declarations.  Length and newlines survive."""
    out = []
    depth = 0
    for c in body:
        if c == "{":
            out.append(c if depth == 0 else " ")
            depth += 1
        elif c == "}":
            depth -= 1
            out.append(c if depth == 0 else " ")
        else:
            out.append(c if depth <= 1 or c == "\n" else " ")
    return "".join(out)


def class_bodies(text: str):
    """Yields (class name, masked body, offset of the body's '{')."""
    for cm in CLASS_RE.finditer(text):
        start = j = cm.end() - 1
        depth = 0
        while j < len(text):
            if text[j] == "{":
                depth += 1
            elif text[j] == "}":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        yield cm.group(1), _mask_nested_braces(text[start:j]), start


def type_base(spelling: str) -> str:
    return spelling.split("<")[0].split("::")[-1].strip("& *")


def harvest_fields(text: str, relpath: str, prog):
    """Adds every `Type name_ [GLOBE_...] [= init];` member to `prog`."""
    for cls, body, off in class_bodies(text):
        for fm in FIELD_RE.finditer(body):
            ftype = type_base(fm.group(1))
            if ftype in ("return", "using", "typedef", "namespace"):
                continue
            line = text.count("\n", 0, off + fm.start()) + 1
            prog.add_field(cls, fm.group(2), ftype, relpath, line,
                           "GLOBE_BOUNDED" in fm.group(3))


def harvest_mutexes(text: str):
    """Yields (class, member, kind, line) for every util::Mutex /
    util::RecursiveMutex member, held directly or through a unique_ptr."""
    for cls, body, off in class_bodies(text):
        for rx in (_MUTEX_FIELD_RE, _MUTEX_PTR_RE):
            for fm in rx.finditer(body):
                yield (cls, fm.group(2), MUTEX_TYPES[fm.group(1)],
                       text.count("\n", 0, off + fm.start()) + 1)
