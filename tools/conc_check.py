#!/usr/bin/env python3
"""Concurrency-hazard analysis for the GlobeDoc tree (DESIGN.md §13).

Turns the repo's comment-only locking conventions into machine-checked
invariants, ahead of the async-reactor rewrite that will multiply the
concurrency surface.  Two analyses run over one interprocedural call-graph
fixpoint:

  * lock-order — every `util::Mutex` / `util::RecursiveMutex` member holds
    a rank in tools/lock_hierarchy.txt (lower rank = outer lock, acquired
    first).  The analyzer extracts the static lock-acquisition graph from
    LockGuard/UniqueLock/RecursiveLockGuard sites — including locks held
    across calls, via per-function acquisition summaries — and reports any
    edge that runs against the declared order or touches an unranked
    mutex, with cycle detection over the whole graph and full
    acquisition-chain diagnostics.

  * blocking-under-lock — the GLOBE_BLOCKING attribute
    (src/util/thread_annotations.hpp, expands to [[clang::annotate]])
    marks primitives that park the calling thread: Transport::call, RPC
    client calls, condvar waits, SingleFlight coalescing, sleeps.
    Blocking-ness propagates transitively through the call graph; any
    path that reaches a blocking call while a lock is held is a finding.
    The one modeled exemption is a condition-variable wait releasing its
    OWN lock (`cv_.wait(lock)`); any other lock held across the wait
    still flags.

Two interchangeable frontends produce the same per-function event IR over
the shared scanning core in tools/cxxscan:

  * ``clang`` — libclang over compile_commands.json; reads the
    [[clang::annotate("globe::blocking")]] attribute.  Used in CI.
  * ``lite``  — stdlib-only tokenizer recognizing the GLOBE_* macros and
    guard declarations textually, so plain ``ctest`` enforces the
    invariant on toolchains without clang.

Intentional holds (e.g. the proxy's documented one-browser-one-proxy
serialization) are suppressed through tools/conc_baseline.txt, which
requires a written justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/conc_check.py [--frontend auto|clang|lite] [paths...]
  tools/conc_check.py --self-test           # fixture corpus in tests/conc/
  tools/conc_check.py --edges               # dump the acquisition graph
  tools/conc_check.py --list                # dump mutexes + blocking fns
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

from cxxscan import clang_frontend, cli, ir
from cxxscan.clang_frontend import annots_of, file_of, qualified
from cxxscan.flow import dedupe
from cxxscan.ir import REPO, subsys_of
from cxxscan.lex import (CONTROL, KEYWORDS, is_ident, is_macro, match_forward,
                         split_top, strip_comments, tokenize)
from cxxscan.lite import (MUTEX_TYPES, class_bodies, harvest_mutexes,
                          parse_expr, scan_declarations, type_base)

ANNOT_BLOCKING = "blocking"

GUARD_KINDS = {"LockGuard": "guard", "RecursiveLockGuard": "guard_rec",
               "UniqueLock": "unique"}

# Thread primitives that park the calling thread without an annotation of
# their own (std::this_thread & friends).
SLEEP_FNS = {"sleep_for", "sleep_until", "usleep", "nanosleep"}

# Method names of std:: containers/strings: a receiver call with one of
# these names and an unknown receiver type must never alias onto project
# code through name-only resolution (same guard as cxxscan/flow.py).
STD_CONTAINER_METHODS = {
    "insert", "erase", "assign", "append", "push_back", "pop_back",
    "emplace", "emplace_back", "find", "count", "at", "substr", "clear",
    "resize", "reserve", "begin", "end", "front", "back", "data", "c_str",
    "str", "push", "pop", "top", "get", "reset", "swap", "size", "empty",
}

MAX_CHAIN = 8  # call-chain depth cap in diagnostics


def unwrap(spelling: str) -> str:
    """Base type, looking through unique_ptr / shared_ptr / optional, so a
    `std::unique_ptr<GlobeDocProxy> proxy_` receiver resolves."""
    base = type_base(spelling)
    if base in ("unique_ptr", "shared_ptr", "optional") and "<" in spelling:
        return type_base(spelling.split("<", 1)[1].rsplit(">", 1)[0])
    return base


# --------------------------------------------------------------------------
# Event IR
# --------------------------------------------------------------------------

@dataclass
class CallSite:
    line: int = 0
    chain: list = field(default_factory=list)
    explicit: bool = False
    recv: str | None = None
    recv_path: list = field(default_factory=list)
    nargs: int = 0
    arg_refs: list = field(default_factory=list)   # flattened ident refs
    lambdas: list = field(default_factory=list)    # lifted lambda qnames in args
    lambda_target: str | None = None               # IIFE / direct lambda call

    @property
    def name(self):
        return self.chain[-1] if self.chain else ""


@dataclass
class Ev:
    """One concurrency-relevant event, in textual order.

    kind: 'acq'  guard declaration        (var, lock, guard)
          'rel'  guard leaves scope       (var)
          'mlock'/'munlock' manual calls  (lock)
          'wait' condvar wait on a guard  (var)
          'call' any other call           (cs)
    lock: either a tuple of ident chain ('mu_',) / ('host','lock') or a
          clang-resolved ('::', Class, member) triple.
    """
    kind: str
    line: int = 0
    var: str | None = None
    lock: tuple = ()
    guard: str = ""
    cs: CallSite | None = None


@dataclass
class Func:
    qname: str = ""
    file: str = ""
    line: int = 0
    cls: str | None = None
    annots: set = field(default_factory=set)
    params: list = field(default_factory=list)     # param names
    events: list = field(default_factory=list)
    has_body: bool = False
    local_types: dict = field(default_factory=dict)
    requires: set = field(default_factory=set)     # set[tuple chain]


class Program(ir.Program):
    """Event-IR program plus the mutex registry."""

    def __init__(self):
        super().__init__(annots=frozenset({ANNOT_BLOCKING}))
        self.mutexes = {}       # lockid -> info dict
        self.member_owner = {}  # member -> [lockid]

    def merge(self, prev: Func, f: Func):
        prev.annots |= f.annots
        prev.requires |= f.requires
        if f.has_body and not prev.has_body:
            prev.events, prev.has_body = f.events, True
            prev.file, prev.line = f.file, f.line
            prev.local_types.update(f.local_types)
            prev.params = f.params or prev.params

    def register_mutex(self, subsys, cls, member, kind, file, line):
        lockid = f"{subsys}.{cls}.{member}"
        if lockid not in self.mutexes:
            self.mutexes[lockid] = {"cls": cls, "member": member,
                                    "kind": kind, "file": file, "line": line}
            self.member_owner.setdefault(member, []).append(lockid)

    def lock_by_cls(self, cls, member):
        for lid, info in self.mutexes.items():
            if info["cls"] == cls and info["member"] == member:
                return lid
        return None

    def harvest_mutexes(self, text, relpath):
        for cls, member, kind, line in harvest_mutexes(text):
            self.register_mutex(subsys_of(relpath), cls, member, kind,
                                relpath, line)


# --------------------------------------------------------------------------
# Lite frontend (declarations come from cxxscan.lite.scan_declarations)
# --------------------------------------------------------------------------

_LAMBDA_PREV = {None, "(", ",", "=", "return", "{", ";", ":", "?",
                "&&", "||", "!", "(", "co_return"}


def _chain_of(toks):
    """Token list -> ident chain tuple, dropping this/namespaces/derefs."""
    out = []
    for tk in toks:
        t = tk[0]
        if is_ident(t) and t not in KEYWORDS \
                and t not in ("util", "globe", "std") and not is_macro(t):
            out.append(t)
    return tuple(out)


def _calls(seg):
    """A statement's calls from the shared expression parser, nested
    argument calls first (evaluation order)."""
    out = []

    def flatten(calls):
        for c in calls:
            for a in c.args:
                flatten(a.calls)
            out.append(CallSite(line=c.line, chain=c.chain,
                                explicit=c.explicit, recv=c.recv,
                                recv_path=c.recv_path, nargs=len(c.args),
                                arg_refs=[r for a in c.args for r in a.refs]))
    flatten(parse_expr(seg)[1])
    return out


# ---- lambda lifting -------------------------------------------------------

def _lift_lambdas(toks, owner_qname, sink, counter):
    """Replaces every lambda literal in `toks` with a placeholder ident and
    appends (qname, param_toks, body_toks, line) records to `sink`.
    Nested lambdas are lifted recursively.  Returns the rewritten tokens."""
    out = []
    i, n = 0, len(toks)
    while i < n:
        t, line = toks[i]
        if t == "[":
            prev = out[-1][0] if out else None
            # `[[` attribute or indexing (`x[i]`) are not lambdas.
            nxt = toks[i + 1][0] if i + 1 < n else None
            if prev in _LAMBDA_PREV and nxt != "[":
                close = match_forward(toks, i, "[", "]")
                k = close
                param_toks = []
                if k < n and toks[k][0] == "(":
                    pend = match_forward(toks, k, "(", ")")
                    param_toks = toks[k + 1:pend - 1]
                    k = pend
                # specifiers / trailing return up to the body brace
                ok = True
                while k < n and toks[k][0] != "{":
                    if toks[k][0] in (";", ")", ","):
                        ok = False
                        break
                    k += 1
                if ok and k < n and toks[k][0] == "{":
                    bend = match_forward(toks, k, "{", "}")
                    body = toks[k + 1:bend - 1]
                    idx = counter[0]
                    counter[0] += 1
                    qn = f"{owner_qname}::$lambda{idx}"
                    body = _lift_lambdas(body, owner_qname, sink, counter)
                    sink.append((qn, param_toks, body, line))
                    out.append((f"__GLOBE_LAMBDA__{qn}__", line))
                    i = bend
                    continue
        out.append(toks[i])
        i += 1
    return out


_LAMBDA_PH = re.compile(r"^__GLOBE_LAMBDA__(.+)__$")


# ---- statement/event extraction ------------------------------------------

def _guard_decl(seg):
    """Matches `[util::]GuardType var(lockexpr);` -> (kind, var, chain, line)
    or None."""
    idents = [(i, tk[0]) for i, tk in enumerate(seg)
              if is_ident(tk[0])]
    for i, name in idents:
        if name in GUARD_KINDS:
            # must be the type position: next ident is the variable
            j = i + 1
            if j < len(seg) and seg[j][0] == "<":   # UniqueLock<...>? no
                j = match_forward(seg, j, "<", ">")
            if j < len(seg) and is_ident(seg[j][0]) \
                    and seg[j][0] not in KEYWORDS:
                var = seg[j][0]
                k = j + 1
                if k < len(seg) and seg[k][0] in ("(", "{"):
                    close_t = ")" if seg[k][0] == "(" else "}"
                    end = match_forward(seg, k, seg[k][0], close_t)
                    inner = seg[k + 1:end - 1]
                    parts = split_top(inner)
                    chain = _chain_of(parts[0]) if parts else ()
                    return (GUARD_KINDS[name], var, chain, seg[i][1])
        break_names = ("return", "if", "while", "for")
        if name in break_names:
            break
    return None


def _stmt_events(seg, scopes, events, local_types):
    """Appends events for one statement's tokens.  `scopes` is the full
    stack of guard-variable scopes (innermost last)."""
    if not seg:
        return
    while seg and seg[0][0] in ("else", "do", "try"):
        seg = seg[1:]
    if not seg:
        return
    head = seg[0][0]
    if head in ("case", "default", "goto", "using", "public", "private",
                "protected", "break", "continue"):
        return
    gd = _guard_decl(seg)
    if gd is not None:
        kind, var, chain, line = gd
        events.append(Ev("acq", line=line, var=var, lock=chain, guard=kind))
        scopes[-1].append(var)
        return
    calls = _calls(seg)
    # local declarations worth typing: `Type name(...)` / `Type name = ...`;
    # remember `Foo x` declarations for receiver typing (cheap heuristic:
    # two leading idents, first uppercase-ish type name)
    lead = [tk[0] for tk in seg[:6] if is_ident(tk[0])
            and tk[0] not in KEYWORDS and not is_macro(tk[0])]
    # the type may be namespace-qualified (`rpc::RpcClient replica(...)`):
    # take the first uppercase-ish token as the type, the next as the name
    for li in range(min(2, max(0, len(lead) - 1))):
        if lead[li][:1].isupper():
            local_types.setdefault(lead[li + 1], lead[li])
            break
    for cs in calls:
        ph = _LAMBDA_PH.match(cs.name or "")
        if ph and len(cs.chain) == 1:
            cs.lambda_target = ph.group(1)
            events.append(Ev("call", line=cs.line, cs=cs))
            continue
        # collect lambda placeholders passed as arguments
        for r in list(cs.arg_refs):
            m = _LAMBDA_PH.match(r)
            if m:
                cs.lambdas.append(m.group(1))
        if cs.name == "wait" and cs.arg_refs:
            gv = cs.arg_refs[0]
            if any(gv in sc for sc in scopes):
                events.append(Ev("wait", line=cs.line, var=gv))
                continue
        if cs.name in ("lock", "unlock") and cs.recv_path and cs.nargs == 0:
            kind = "mlock" if cs.name == "lock" else "munlock"
            events.append(Ev(kind, line=cs.line, lock=tuple(
                x for x in cs.recv_path
                if x not in ("util", "globe", "std"))))
            continue
        if cs.name == "try_lock":
            continue
        events.append(Ev("call", line=cs.line, cs=cs))


def _build_body(toks, local_types):
    """Linearizes a body into events with scope-accurate guard release:
    a guard declared in a block emits an explicit 'rel' at that block's
    closing brace, which stays correct under early returns (the next
    acquisition in the outer scope sees the right held-set)."""
    events = []
    scopes = [[]]          # stack of [guard vars declared in this scope]
    seg = []
    i, n = 0, len(toks)
    pdepth = 0

    while i < n:
        t, line = toks[i]
        if t == "(":
            pdepth += 1
            seg.append(toks[i])
        elif t == ")":
            pdepth -= 1
            seg.append(toks[i])
        elif t == ";" and pdepth == 0:
            _stmt_events(seg, scopes, events, local_types)
            seg = []
        elif t == "{" and pdepth == 0:
            heads = [tk[0] for tk in seg]
            if not seg or heads[0] in CONTROL:
                _stmt_events(seg, scopes, events, local_types)
                seg = []
                scopes.append([])
            else:
                # init-list brace: swallow into current statement
                end = match_forward(toks, i, "{", "}")
                seg.extend(toks[i + 1:end - 1])
                i = end
                continue
        elif t == "}" and pdepth == 0:
            _stmt_events(seg, scopes, events, local_types)
            seg = []
            released = scopes.pop() if len(scopes) > 1 else []
            if not scopes:
                scopes = [[]]
            for var in reversed(released):
                events.append(Ev("rel", line=line, var=var))
        else:
            seg.append(toks[i])
        i += 1
    _stmt_events(seg, scopes, events, local_types)
    # function exit: release anything still registered (top scope)
    for var in reversed(scopes[0]):
        events.append(Ev("rel", line=0, var=var))
    return events


def _parse_params_lite(ptoks):
    """Parameter list tokens -> ([name], {name: type_basename})."""
    names, types = [], {}
    for part in split_top(ptoks):
        idents = [tk[0] for tk in part if is_ident(tk[0])
                  and tk[0] not in ("const", "struct", "typename", "volatile",
                                    "util", "globe", "std")
                  and not is_macro(tk[0])]
        if not idents:
            continue
        if len(idents) >= 2:
            names.append(idents[-1])
            types[idents[-1]] = idents[-2]
        else:
            names.append(idents[-1])
    return names, types


def _requires(quals):
    """GLOBE_REQUIRES(...) lock chains in a declarator's qualifier zone."""
    out = set()
    for k, (q, _line) in enumerate(quals):
        if q == "GLOBE_REQUIRES" and k + 1 < len(quals) \
                and quals[k + 1][0] == "(":
            mend = match_forward(quals, k + 1, "(", ")")
            for part in split_top(quals[k + 2:mend - 1]):
                ch = _chain_of(part)
                if ch:
                    out.add(ch)
    return out


def _event_func(qname, relpath, line, cls, ptoks, body, lifted=None):
    """A Func with event IR.  Unless `lifted` is None, lambdas in `body`
    are lifted out of it into `lifted` first."""
    f = Func(qname=qname, file=relpath, line=line, cls=cls)
    f.params, types = _parse_params_lite(ptoks)
    f.local_types.update(types)
    if body is not None:
        if lifted is not None:
            body = _lift_lambdas(body, qname, lifted, [0])
        f.events = _build_body(body, f.local_types)
        f.has_body = True
    return f


def parse_file_lite(path: str, prog: Program):
    text = strip_comments(open(path, encoding="utf-8",
                               errors="replace").read())
    relpath = os.path.relpath(path, REPO)
    for d in scan_declarations(tokenize(text)):
        lifted = []
        f = _event_func(d.qname, relpath, d.line, d.cls, d.params, d.body,
                        lifted)
        f.requires = _requires(d.quals)
        if any(prog.annot_of(t) for t, _line in d.head + d.quals):
            f.annots.add(ANNOT_BLOCKING)
        prog.add(f)
        for qn, ptoks, btoks, lline in lifted:
            prog.add(_event_func(qn, relpath, lline, f.cls, ptoks, btoks))
    _harvest_fields(text, prog)
    prog.harvest_mutexes(text, relpath)


# Narrower than cxxscan.lite.FIELD_RE (no nested template arguments), kept
# apart because typing `std::set<std::array<...>>` members changes conc edges.
_FIELD_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:const\s+)?([A-Za-z_][\w:]*(?:<[^;<>{}]*>)?)"
    r"[&*\s]+([A-Za-z_]\w*_?)\s*(?:GLOBE_(?:PT_)?GUARDED_BY\([^)]*\))?"
    r"\s*(?:=[^;]*|\{[^;]*\})?;",
    re.MULTILINE,
)


def _harvest_fields(text: str, prog: Program):
    for cls, body, _off in class_bodies(text):
        table = prog.fields.setdefault(cls, {})
        for fm in _FIELD_RE.finditer(body):
            ftype = unwrap(fm.group(1))
            if ftype not in ("return", "using", "typedef"):
                table.setdefault(fm.group(2), ftype)


# --------------------------------------------------------------------------
# libclang frontend
# --------------------------------------------------------------------------

_REQ_RE = re.compile(r"GLOBE_REQUIRES\(([^)]*)\)")
_file_cache: dict = {}


def _requires_at(abspath, line):
    """Raw-source scan for GLOBE_REQUIRES on the declaration at `line`.
    Uniform across frontends: the macro only expands under clang's
    thread-safety mode, so the attribute is not reliably in the AST."""
    try:
        if abspath not in _file_cache:
            _file_cache[abspath] = open(abspath, encoding="utf-8",
                                        errors="replace").read().splitlines()
        lines = _file_cache[abspath]
    except OSError:
        return set()
    snippet = "\n".join(lines[line - 1:line + 6])
    cut = len(snippet)
    for stop in ("{", ";"):
        p = snippet.find(stop)
        if 0 <= p < cut:
            cut = p
    out = set()
    for m in _REQ_RE.finditer(snippet[:cut + 1]):
        for arg in m.group(1).split(","):
            ch = tuple(x for x in re.findall(r"[A-Za-z_]\w*", arg)
                       if x not in ("this", "util", "globe", "std"))
            if ch:
                out.add(ch)
    return out


def _clang_walk_tu(tu, prog: Program, in_scope, ci):
    """Walks one TU, adding in-scope functions (with event IR) and fields."""

    def mutex_field(cursor):
        """referenced FIELD_DECL that is a util Mutex -> ('::', cls, member)
        or None."""
        ref = cursor.referenced
        if ref is None or ref.kind != ci.CursorKind.FIELD_DECL:
            return None
        if unwrap(ref.type.spelling) not in MUTEX_TYPES:
            return None
        owner = ref.semantic_parent.spelling if ref.semantic_parent else None
        if not owner:
            return None
        return ("::", owner, ref.spelling)

    def find_lock_ref(node):
        """First util-Mutex field reference in a subtree."""
        if node.kind in (ci.CursorKind.MEMBER_REF_EXPR,
                         ci.CursorKind.DECL_REF_EXPR):
            mf = mutex_field(node)
            if mf:
                return mf
        for ch in node.get_children():
            r = find_lock_ref(ch)
            if r:
                return r
        return None

    def collect_refs(node, refs):
        if node.kind in (ci.CursorKind.DECL_REF_EXPR,
                         ci.CursorKind.MEMBER_REF_EXPR):
            if node.spelling:
                refs.append(node.spelling)
        for ch in node.get_children():
            collect_refs(ch, refs)

    def find_lambdas(node, out):
        """LAMBDA_EXPR cursors not nested inside a further CALL_EXPR."""
        if node.kind == ci.CursorKind.LAMBDA_EXPR:
            out.append(node)
            return
        if node.kind == ci.CursorKind.CALL_EXPR:
            return
        for ch in node.get_children():
            find_lambdas(ch, out)

    def make_func_ctx(owner_qname, owner_cls, relfile):
        return {"qname": owner_qname, "cls": owner_cls, "file": relfile,
                "lcount": 0}

    def lift_lambda(node, fctx):
        idx = fctx["lcount"]
        fctx["lcount"] += 1
        qn = f"{fctx['qname']}::$lambda{idx}"
        if qn in prog.funcs and prog.funcs[qn].has_body:
            return qn
        lf = Func(qname=qn, file=fctx["file"], line=node.location.line,
                  cls=fctx["cls"])
        body = None
        for ch in node.get_children():
            if ch.kind == ci.CursorKind.COMPOUND_STMT:
                body = ch
            elif ch.kind == ci.CursorKind.PARM_DECL:
                lf.params.append(ch.spelling)
                bt = unwrap(ch.type.spelling)
                if ch.spelling and bt:
                    lf.local_types[ch.spelling] = bt
        sub = make_func_ctx(qn, fctx["cls"], fctx["file"])
        if body is not None:
            lf.has_body = True
            walk(body, lf.events, [[]], lf.local_types, sub)
        prog.add(lf)
        return qn

    def handle_call(node, events, scopes, local_types, fctx):
        ref = node.referenced
        name = (ref.spelling if ref is not None and ref.spelling
                else node.spelling) or ""
        args = list(node.get_arguments())
        children = list(node.get_children())
        cs = CallSite(line=node.location.line)
        # receiver path (member calls put the base expr first)
        base_refs = []
        if children and (not args or not children[0] == args[0]):
            collect_refs(children[0], base_refs)
        if ref is not None and ref.spelling:
            cs.chain = qualified(ref, ci).split("::")
            cs.explicit = True
        else:
            cs.chain = [name or "?"]
        if base_refs:
            cs.recv = base_refs[0]
            cs.recv_path = base_refs
        cs.nargs = len(args)
        # IIFE: the callee expression itself is a lambda
        if children and (not args or not children[0] == args[0]):
            callee_lams = []
            find_lambdas(children[0], callee_lams)
            if callee_lams and name in ("operator()", ""):
                cs.lambda_target = lift_lambda(callee_lams[0], fctx)
        for a in args:
            lams = []
            find_lambdas(a, lams)
            for lam in lams:
                cs.lambdas.append(lift_lambda(lam, fctx))
            arefs = []
            collect_refs(a, arefs)
            cs.arg_refs.extend(arefs)
            walk(a, events, scopes, local_types, fctx)  # nested calls first
        if cs.lambda_target:
            events.append(Ev("call", line=cs.line, cs=cs))
            return
        # std::function invocation: `listener_(...)` presents as a call to
        # function<...>::operator() — normalize to an indirect call through
        # the receiver field so callback binding can resolve it.
        if name == "operator()" and base_refs:
            cs.chain = [base_refs[-1]]
            cs.explicit = False
            cs.recv = None
            cs.recv_path = []
            events.append(Ev("call", line=cs.line, cs=cs))
            return
        if name == "wait" and args:
            wrefs = []
            collect_refs(args[0], wrefs)
            if wrefs and any(wrefs[0] in sc for sc in scopes):
                events.append(Ev("wait", line=node.location.line,
                                 var=wrefs[0]))
                return
        if name in ("lock", "unlock", "try_lock") and children:
            mf = find_lock_ref(children[0]) if children else None
            if mf:
                if name == "try_lock":
                    return
                events.append(Ev("mlock" if name == "lock" else "munlock",
                                 line=node.location.line, lock=mf))
                return
        events.append(Ev("call", line=cs.line, cs=cs))

    def walk(node, events, scopes, local_types, fctx):
        k = node.kind
        if k == ci.CursorKind.COMPOUND_STMT:
            scopes.append([])
            for ch in node.get_children():
                walk(ch, events, scopes, local_types, fctx)
            released = scopes.pop()
            for var in reversed(released):
                events.append(Ev("rel", line=node.extent.end.line, var=var))
            return
        if k == ci.CursorKind.LAMBDA_EXPR:
            lift_lambda(node, fctx)
            return
        if k == ci.CursorKind.CALL_EXPR:
            handle_call(node, events, scopes, local_types, fctx)
            return
        if k == ci.CursorKind.DECL_STMT:
            for ch in node.get_children():
                if ch.kind != ci.CursorKind.VAR_DECL:
                    continue
                base = type_base(ch.type.spelling)
                if base in GUARD_KINDS:
                    lockref = find_lock_ref(ch)
                    if lockref is None:
                        refs = []
                        collect_refs(ch, refs)
                        lockref = tuple(r for r in refs if r != ch.spelling)
                    events.append(Ev("acq", line=ch.location.line,
                                     var=ch.spelling, lock=lockref,
                                     guard=GUARD_KINDS[base]))
                    scopes[-1].append(ch.spelling)
                    continue
                if ch.spelling and base:
                    local_types[ch.spelling] = unwrap(ch.type.spelling)
                for sub in ch.get_children():
                    walk(sub, events, scopes, local_types, fctx)
            return
        for ch in node.get_children():
            walk(ch, events, scopes, local_types, fctx)

    for cur in tu.cursor.walk_preorder():
        if cur.kind == ci.CursorKind.FIELD_DECL:
            floc = file_of(cur)
            if not in_scope(floc):
                continue
            cls = cur.semantic_parent.spelling
            t = cur.type.spelling
            base = unwrap(t)
            if cls and base:
                prog.fields.setdefault(cls, {}).setdefault(cur.spelling, base)
            if base in MUTEX_TYPES and ("util::" in t or "<" not in t):
                rel = os.path.relpath(floc, REPO)
                prog.register_mutex(subsys_of(rel), cls, cur.spelling,
                                    MUTEX_TYPES[base], rel,
                                    cur.location.line)
            continue
        if cur.kind not in (ci.CursorKind.FUNCTION_DECL,
                            ci.CursorKind.CXX_METHOD,
                            ci.CursorKind.CONSTRUCTOR,
                            ci.CursorKind.FUNCTION_TEMPLATE):
            continue
        floc = file_of(cur)
        if not in_scope(floc):
            continue
        qn = qualified(cur, ci)
        rel = os.path.relpath(floc, REPO)
        f = Func(qname=qn, file=rel, line=cur.location.line)
        f.annots = annots_of(cur, prog, ci)
        f.requires = _requires_at(floc, cur.location.line)
        sp = cur.semantic_parent
        if sp is not None and sp.kind in (ci.CursorKind.CLASS_DECL,
                                          ci.CursorKind.STRUCT_DECL,
                                          ci.CursorKind.CLASS_TEMPLATE):
            f.cls = sp.spelling
        for pc in cur.get_arguments():
            if pc.spelling:
                f.params.append(pc.spelling)
                bt = unwrap(pc.type.spelling)
                if bt:
                    f.local_types[pc.spelling] = bt
        body = None
        for ch in cur.get_children():
            if ch.kind == ci.CursorKind.COMPOUND_STMT:
                body = ch
        prev = prog.funcs.get(qn)
        if body is not None and not (prev is not None and prev.has_body):
            f.has_body = True
            fctx = make_func_ctx(qn, f.cls, rel)
            walk(body, f.events, [[]], f.local_types, fctx)
        prog.add(f)


def _clang_single(path, include_dirs):
    """Fixture TU under clang.  The mutex registry and member types also
    come from the raw scan the lite frontend uses, so lock ids agree
    between frontends."""
    prog = clang_frontend.build_program_clang_single(
        path, include_dirs, Program(), _clang_walk_tu)
    text = strip_comments(open(path, encoding="utf-8",
                               errors="replace").read())
    prog.harvest_mutexes(text, os.path.relpath(path, REPO))
    _harvest_fields(text, prog)
    return prog


# --------------------------------------------------------------------------
# Analysis core
# --------------------------------------------------------------------------

@dataclass
class CSummary:
    acquires: dict = field(default_factory=dict)  # lockid -> (file,line,chain)
    blocks: dict = field(default_factory=dict)    # sinkdesc -> (file,line,chain)


@dataclass
class Finding:
    kind: str          # order | unranked | block | deadlock | cycle
    key: str
    file: str = ""
    line: int = 0
    detail: list = field(default_factory=list)


class Analyzer:
    def __init__(self, prog: Program, hier: dict):
        self.prog = prog
        self.hier = hier
        self.sum: dict[str, CSummary] = {}
        self.findings: list[Finding] = []
        self.edges: dict = {}   # (H, L) -> (func, file, line, chain)
        for q, f in prog.funcs.items():
            s = CSummary()
            if ANNOT_BLOCKING in f.annots:
                s.blocks[q] = (f.file, f.line, ())
            self.sum[q] = s
        self.bound: dict[str, list] = {}   # class -> [lambda qnames]
        self._bind_callbacks()

    # -- callback binding --------------------------------------------------

    def _bind_callbacks(self):
        """A lambda passed to a method of class T is considered invocable by
        any of T's methods through a callable field or parameter — this is
        how `listener_(key, why)` inside ElementCache reaches the lambda the
        cache tier registered on it."""
        for f in self.prog.funcs.values():
            for ev in f.events:
                if ev.kind != "call" or ev.cs is None or not ev.cs.lambdas:
                    continue
                t = self.resolve_one(ev.cs, f)
                if t is not None and t.cls:
                    lst = self.bound.setdefault(t.cls, [])
                    for qn in ev.cs.lambdas:
                        if qn not in lst:
                            lst.append(qn)

    # -- resolution --------------------------------------------------------

    def resolve_one(self, cs: CallSite, f: Func):
        if cs.lambda_target:
            return self.prog.funcs.get(cs.lambda_target)
        name = cs.name
        cands = self.prog.by_name.get(name, [])
        if cs.explicit and len(cs.chain) >= 2:
            suffix = "::".join(cs.chain)
            matches = [q for q in cands
                       if q == suffix or q.endswith("::" + suffix)
                       or suffix.endswith("::" + q)]
            if matches:
                return self.prog.funcs[matches[0]]
        if cs.recv is not None:
            rtype = self.prog.recv_type(cs, f)
            if rtype:
                matches = [q for q in cands
                           if q.endswith(f"::{rtype}::{name}")
                           or q == f"{rtype}::{name}"]
                if matches:
                    return self.prog.funcs[matches[0]]
                return None   # typed receiver, method not in index: external
            if name in STD_CONTAINER_METHODS:
                return None
        cands = [q for q in cands if self._viable(cs, q)]
        if len(cands) == 1:
            return self.prog.funcs[cands[0]]
        if len(cands) > 1:
            def sig(q):
                s = self.sum[q]
                return (ANNOT_BLOCKING in self.prog.funcs[q].annots,
                        tuple(sorted(s.acquires)), tuple(sorted(s.blocks)))
            if all(sig(q) == sig(cands[0]) for q in cands[1:]):
                return self.prog.funcs[cands[0]]
        return None

    def resolve_targets(self, cs: CallSite, f: Func) -> list:
        t = self.resolve_one(cs, f)
        if t is not None:
            return [t]
        # Indirect call through a callable field / parameter: the bound
        # lambdas of the enclosing class are the candidate targets.
        if len(cs.chain) == 1 and f.cls:
            name = cs.name
            is_field = name in self.prog.fields.get(f.cls, {})
            is_param = name in f.params
            is_fn_local = f.local_types.get(name) == "function"
            if is_field or is_param or is_fn_local:
                return [self.prog.funcs[q]
                        for q in self.bound.get(f.cls, [])
                        if q in self.prog.funcs]
        return []

    def _viable(self, cs: CallSite, q: str) -> bool:
        cand = self.prog.funcs[q]
        if cs.recv is not None and cand.cls is None:
            return False
        return True

    def resolve_lock(self, lockref, f: Func):
        """Lock expression -> lockid or None."""
        if not lockref:
            return None
        if lockref[0] == "::":
            _, cls, member = lockref
            lid = self.prog.lock_by_cls(cls, member)
            if lid:
                return lid
            owners = self.prog.member_owner.get(member, [])
            return owners[0] if len(owners) == 1 else None
        chain = tuple(lockref)
        member = chain[-1]
        if len(chain) == 1:
            if f.cls:
                lid = self.prog.lock_by_cls(f.cls, member)
                if lid:
                    return lid
        else:
            t = f.local_types.get(chain[0])
            if t is None and f.cls:
                t = self.prog.fields.get(f.cls, {}).get(chain[0])
            for mid in chain[1:-1]:
                if t is None:
                    break
                t = self.prog.fields.get(t, {}).get(mid)
            if t:
                lid = self.prog.lock_by_cls(t, member)
                if lid:
                    return lid
        owners = self.prog.member_owner.get(member, [])
        return owners[0] if len(owners) == 1 else None

    # -- fixpoint ----------------------------------------------------------

    def run(self):
        changed = True
        guard = 0
        while changed and guard < 60:
            changed = False
            guard += 1
            self.findings = []
            self.edges = {}
            for q, f in self.prog.funcs.items():
                if not f.has_body:
                    continue
                if self._analyze_function(f):
                    changed = True
        self._find_cycles()
        self.findings = dedupe(self.findings)

    def _is_recursive(self, lid, guard_kind=""):
        if guard_kind == "guard_rec":
            return True
        info = self.prog.mutexes.get(lid)
        return bool(info and info["kind"] == "recursive")

    def _check_edge(self, H, L, f, line, hinfo, via):
        self.edges.setdefault((H, L), (f.qname, f.file, line, via))
        rH, rL = self.hier.get(H), self.hier.get(L)
        via_lines = [f"    {fn} at {fl}:{ln}" for fn, fl, ln in via[:MAX_CHAIN]]
        if rH is None or rL is None:
            missing = [x for x, r in ((H, rH), (L, rL)) if r is None]
            self.findings.append(Finding(
                kind="unranked",
                key=f"{f.qname} | unranked {H} -> {L}",
                file=f.file, line=line,
                detail=[f"  acquires {L} while holding {H} "
                        f"(held since {f.file}:{hinfo[0]})",
                        f"  unranked mutex(es): {', '.join(missing)} — add "
                        "to tools/lock_hierarchy.txt"] + via_lines))
        elif rH >= rL:
            self.findings.append(Finding(
                kind="order",
                key=f"{f.qname} | order {H} -> {L}",
                file=f.file, line=line,
                detail=[f"  acquires {L} (rank {rL}) while holding {H} "
                        f"(rank {rH}, held since {f.file}:{hinfo[0]})",
                        "  declared order requires "
                        f"{L if rL < rH else H} to be acquired first"]
                + via_lines))

    def _block_finding(self, H, f, line, hinfo, descs):
        rep = min(descs)
        chain = descs[rep]
        more = len(descs) - 1
        detail = [f"  blocking call: {rep}"
                  + (f" (+{more} more reachable sink(s))" if more else ""),
                  f"  while holding {H} (held since {f.file}:{hinfo[0]})"]
        detail += [f"    via {fn} at {fl}:{ln}"
                   for fn, fl, ln in chain[:MAX_CHAIN]]
        self.findings.append(Finding(
            kind="block", key=f"{f.qname} | block {H}",
            file=f.file, line=line, detail=detail))

    def _analyze_function(self, f: Func) -> bool:
        s = self.sum[f.qname]
        grew = False
        held: dict = {}     # lid -> [ (line, seeded) ] stack
        guards: dict = {}   # guard var -> lid (or None)

        for ch in f.requires:
            lid = self.resolve_lock(ch, f)
            if lid is not None:
                held.setdefault(lid, []).append((f.line, True))

        def held_items():
            return [(H, stack[0]) for H, stack in held.items() if stack]

        def do_acquire(lid, line, guard_kind, var):
            nonlocal grew
            if lid is None:
                if var is not None:
                    guards[var] = None
                return
            if held.get(lid) and not self._is_recursive(lid, guard_kind):
                self.findings.append(Finding(
                    kind="deadlock", key=f"{f.qname} | deadlock {lid}",
                    file=f.file, line=line,
                    detail=[f"  re-acquires non-recursive {lid} already "
                            f"held (since {f.file}:{held[lid][0][0]})"]))
            else:
                for H, hinfo in held_items():
                    if H != lid:
                        self._check_edge(H, lid, f, line, hinfo, ())
            held.setdefault(lid, []).append((line, False))
            if var is not None:
                guards[var] = lid
            if lid not in s.acquires:
                s.acquires[lid] = (f.file, line, ())
                grew = True

        def do_release(lid):
            stack = held.get(lid)
            if stack:
                stack.pop()

        def export_block(desc, line, chain):
            nonlocal grew
            if desc not in s.blocks and len(chain) <= MAX_CHAIN:
                s.blocks[desc] = (f.file, line, chain)
                grew = True

        for ev in f.events:
            if ev.kind == "acq":
                do_acquire(self.resolve_lock(ev.lock, f), ev.line,
                           ev.guard, ev.var)
            elif ev.kind == "rel":
                lid = guards.pop(ev.var, None)
                if lid is not None:
                    do_release(lid)
            elif ev.kind == "mlock":
                do_acquire(self.resolve_lock(ev.lock, f), ev.line, "manual",
                           None)
            elif ev.kind == "munlock":
                lid = self.resolve_lock(ev.lock, f)
                if lid is not None:
                    do_release(lid)
            elif ev.kind == "wait":
                own = guards.get(ev.var)
                desc = "util::CondVar::wait"
                export_block(desc, ev.line, ())
                for H, hinfo in held_items():
                    if H != own:   # waiting releases only its OWN lock
                        self._block_finding(H, f, ev.line, hinfo,
                                            {desc: ()})
            elif ev.kind == "call":
                cs = ev.cs
                if cs.name in SLEEP_FNS:
                    desc = f"sleep ({cs.name})"
                    export_block(desc, ev.line, ())
                    for H, hinfo in held_items():
                        self._block_finding(H, f, ev.line, hinfo, {desc: ()})
                    continue
                for t in self.resolve_targets(cs, f):
                    ts = self.sum[t.qname]
                    hop = (t.qname, t.file, t.line)
                    bdescs = {}
                    if ANNOT_BLOCKING in t.annots:
                        bdescs[t.qname] = (hop,)
                    for d, (_df, dl, dchain) in ts.blocks.items():
                        if d != t.qname and len(dchain) < MAX_CHAIN:
                            bdescs.setdefault(d, (hop,) + dchain)
                    for d, chain in bdescs.items():
                        export_block(d, ev.line, chain)
                    if bdescs:
                        for H, hinfo in held_items():
                            self._block_finding(H, f, ev.line, hinfo, bdescs)
                    for L, (_lf, _ll, lchain) in ts.acquires.items():
                        via = ((hop,) + lchain)[:MAX_CHAIN]
                        if held.get(L) and not self._is_recursive(L):
                            self.findings.append(Finding(
                                kind="deadlock",
                                key=f"{f.qname} | deadlock {L}",
                                file=f.file, line=ev.line,
                                detail=[f"  calls {t.qname}, which acquires "
                                        f"{L} already held (since "
                                        f"{f.file}:{held[L][0][0]})"]
                                + [f"    via {fn} at {fl}:{ln}"
                                   for fn, fl, ln in via]))
                        else:
                            for H, hinfo in held_items():
                                if H != L:
                                    self._check_edge(H, L, f, ev.line,
                                                     hinfo, via)
                        if L not in s.acquires and len(lchain) < MAX_CHAIN:
                            s.acquires[L] = (f.file, ev.line, via)
                            grew = True
        return grew

    def _find_cycles(self):
        adj: dict = {}
        for (H, L) in self.edges:
            adj.setdefault(H, []).append(L)
        color: dict = {}
        stack: list = []
        cycles = set()

        def dfs(u):
            color[u] = 1
            stack.append(u)
            for v in sorted(adj.get(u, [])):
                if color.get(v, 0) == 0:
                    dfs(v)
                elif color.get(v) == 1:
                    cyc = stack[stack.index(v):]
                    k = cyc.index(min(cyc))
                    cycles.add(tuple(cyc[k:] + cyc[:k]))
            stack.pop()
            color[u] = 2

        for u in sorted(adj):
            if color.get(u, 0) == 0:
                dfs(u)
        for cyc in sorted(cycles):
            path = " -> ".join(cyc + (cyc[0],))
            detail = []
            for a, b in zip(cyc, cyc[1:] + (cyc[0],)):
                fn, fl, ln, _via = self.edges[(a, b)]
                detail.append(f"  {a} -> {b}: {fn} at {fl}:{ln}")
            self.findings.append(Finding(
                kind="cycle", key=f"lock-graph | cycle {path}",
                detail=detail))


# --------------------------------------------------------------------------
# Hierarchy, baseline, reporting
# --------------------------------------------------------------------------

def load_hierarchy(path):
    """Lines: `<rank> <lockid>  [# comment]`.  Lower rank = outer lock."""
    ranks = {}
    if not os.path.exists(path):
        return ranks
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(f"{path}:{lineno}: expected `<rank> <lockid>`, "
                             f"got: {raw.strip()}")
        try:
            rank = int(parts[0])
        except ValueError:
            raise SystemExit(f"{path}:{lineno}: rank must be an integer")
        if parts[1] in ranks:
            raise SystemExit(f"{path}:{lineno}: duplicate lock id {parts[1]}")
        ranks[parts[1]] = rank
    return ranks

_HEADLINE = {
    "order":    "CONC: lock acquisition violates the declared hierarchy",
    "unranked": "CONC: lock acquisition edge touches an unranked mutex",
    "block":    "CONC: blocking call reachable while a lock is held",
    "deadlock": "CONC: self-deadlock on a non-recursive mutex",
    "cycle":    "CONC: cycle in the lock-acquisition graph",
}


def render(fd: Finding) -> str:
    lines = [_HEADLINE.get(fd.kind, "CONC: finding")]
    if fd.file:
        lines.append(f"  at {fd.file}:{fd.line}")
    lines.extend(fd.detail)
    lines.append(f"  suppression key: {fd.key}")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------

def build_program(args):
    return cli.build_program(args, "conc", Program, parse_file_lite,
                                _clang_walk_tu)


def analyze(args):
    hier = load_hierarchy(args.hierarchy)
    prog, used = build_program(args)
    an = Analyzer(prog, hier)
    an.run()
    return an, used


def run_tree(args):
    an, used = analyze(args)
    new, rc = cli.report(an.findings, args, render)
    n_block = sum(1 for s in an.sum.values() if s.blocks)
    ranked = sum(1 for lid in an.prog.mutexes if lid in an.hier)
    print(f"[conc] frontend={used} functions={len(an.prog.funcs)} "
          f"mutexes={len(an.prog.mutexes)} ranked={ranked} "
          f"edges={len(an.edges)} blocking_fns={n_block} "
          f"findings={len(an.findings)} "
          f"suppressed={len(an.findings) - len(new)} new={len(new)}")
    if rc == 0:
        print("[conc] OK: lock order respects the declared hierarchy and "
              "no lock is held across a blocking call (modulo justified "
              "baseline)")
    return rc


def run_edges(args):
    an, used = analyze(args)
    print(f"# lock-acquisition edges ({used} frontend); "
          "H -> L means L acquired while H held")
    for (H, L), (fn, fl, ln, _via) in sorted(an.edges.items()):
        rh = an.hier.get(H, "?")
        rl = an.hier.get(L, "?")
        print(f"{H} (rank {rh}) -> {L} (rank {rl})   first: {fn} "
              f"at {fl}:{ln}")
    print()
    print("# functions that may block (transitively)")
    for q in sorted(an.sum):
        f = an.prog.funcs.get(q)
        if an.sum[q].blocks and f and (f.has_body or f.annots):
            print(f"{q}: {', '.join(sorted(an.sum[q].blocks)[:4])}")
    return 0


def run_list(args):
    hier = load_hierarchy(args.hierarchy)
    prog, used = build_program(args)
    print(f"# mutex registry ({used} frontend)")
    for lid in sorted(prog.mutexes):
        info = prog.mutexes[lid]
        rank = hier.get(lid, "UNRANKED")
        print(f"{lid}  kind={info['kind']} rank={rank}  "
              f"({info['file']}:{info['line']})")
    print()
    print("# GLOBE_BLOCKING-annotated functions")
    for q in sorted(prog.funcs):
        f = prog.funcs[q]
        if ANNOT_BLOCKING in f.annots:
            print(f"{q}  ({f.file}:{f.line})")
    return 0


EXPECT_RE = re.compile(
    r"//\s*CONC-EXPECT:\s*(clean|flag\s+kind=(\S+)(?:\s+detail=(\S+))?)")
HIER_RE = re.compile(r"//\s*CONC-HIERARCHY:\s*(-?\d+)\s+(\S+)")


def run_self_test(args):
    def build(path, use_clang):
        if use_clang:
            return _clang_single(path, [os.path.dirname(path)])
        return cli.build_program_lite([path], Program(), parse_file_lite)

    def analyze_fixture(prog, raw):
        an = Analyzer(prog, {lid: int(rank)
                             for rank, lid in HIER_RE.findall(raw)})
        an.run()
        return an.findings

    return cli.run_fixtures(
        "conc", os.path.join(REPO, "tests", "conc", "fixtures"), EXPECT_RE,
        args.frontend, build, analyze_fixture,
        lambda fd, e: fd.kind == e[1] and (not e[2] or e[2] in fd.key))


def main():
    ap = cli.arg_parser(__doc__, "conc_baseline.txt")
    ap.add_argument("--hierarchy",
                    default=os.path.join(REPO, "tools", "lock_hierarchy.txt"))
    ap.add_argument("--edges", action="store_true",
                    help="dump the lock-acquisition graph and blockers")
    ap.add_argument("--list", action="store_true",
                    help="dump mutex registry and blocking functions")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(run_self_test(args))
    if args.list:
        sys.exit(run_list(args))
    if args.edges:
        sys.exit(run_edges(args))
    sys.exit(run_tree(args))


if __name__ == "__main__":
    main()
