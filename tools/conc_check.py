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

Both frontends of the shared scanning core (tools/cxxscan) give conc the
same statement IR, with lock-guard declarations and block ends marked, and
conc derives its events from it.  Lambdas become functions of their own
first: a token pass before the lite parser, a hook in the clang walker.

  * ``clang`` — libclang over compile_commands.json; reads the
    [[clang::annotate("globe::blocking")]] attribute.  Used in CI.
  * ``lite``  — stdlib-only tokenizer recognizing the GLOBE_* macros
    textually, so plain ``ctest`` enforces the invariant on toolchains
    without clang.

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

import dataclasses
import os
import re
import sys
from dataclasses import dataclass, field

from cxxscan import cli, ir, lite
from cxxscan.clang_frontend import (field_decl, file_of, func_decl,
                                    linearize, param_of)
from cxxscan.cli import Finding
from cxxscan.flow import dedupe
from cxxscan.ir import REPO, CallSite, subsys_of
from cxxscan.lex import (is_ident, match_forward, split_top, strip_comments,
                         tokenize)
from cxxscan.lite import MUTEX_TYPES, harvest_mutexes

ANNOT_BLOCKING = "blocking"

# Thread primitives that park the calling thread without an annotation of
# their own (std::this_thread & friends).
SLEEP_FNS = {"sleep_for", "sleep_until", "usleep", "nanosleep"}

MAX_CHAIN = 8  # call-chain depth cap in diagnostics


# --------------------------------------------------------------------------
# Event IR
# --------------------------------------------------------------------------

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
    guard: the guard's type name (`RecursiveLockGuard` re-enters).
    """
    kind: str
    line: int = 0
    var: str | None = None
    lock: tuple = ()
    guard: str = ""
    cs: CallSite | None = None


class Program(ir.Program):
    """Statement-IR program plus the mutex registry and GLOBE_REQUIRES lock
    chains."""

    def __init__(self):
        super().__init__(annots=frozenset({ANNOT_BLOCKING}))
        self.mutexes = {}       # lockid -> info dict
        self.member_owner = {}  # member -> [lockid]
        self.requires = {}      # qname -> set[lock chain]

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
# Lite frontend: lambdas are lifted out of each body before the shared
# statement parser (cxxscan.lite.parse_file) sees it
# --------------------------------------------------------------------------

_LAMBDA_PREV = {None, "(", ",", "=", "return", "{", ";", ":", "?",
                "&&", "||", "!", "(", "co_return"}
_LAMBDA_REF = "__GLOBE_LAMBDA__{}__"   # stands for a lifted lambda's qname
_LAMBDA_PH = re.compile(r"^__GLOBE_LAMBDA__(.+)__$")
_NAMESPACES = ("util", "globe", "std")


def _lift_lambdas(toks, owner, sink, counter):
    """Replaces every lambda literal in `toks` with a placeholder ident and
    appends a lite.Decl for its body to `sink`.  Nested lambdas are lifted
    recursively.  Returns the rewritten tokens."""
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
                    idx = counter[0]
                    counter[0] += 1
                    qn = f"{owner.qname}::$lambda{idx}"
                    body = _lift_lambdas(toks[k + 1:bend - 1], owner, sink,
                                         counter)
                    sink.append(lite.Decl(qn, owner.cls, line, [], param_toks,
                                          [], body))
                    out.append((_LAMBDA_REF.format(qn), line))
                    i = bend
                    continue
        out.append(toks[i])
        i += 1
    return out


def _requires(quals):
    """GLOBE_REQUIRES(...) lock chains in a declarator's qualifier zone."""
    out = set()
    for k, (q, _line) in enumerate(quals):
        if q == "GLOBE_REQUIRES" and k + 1 < len(quals) \
                and quals[k + 1][0] == "(":
            mend = match_forward(quals, k + 1, "(", ")")
            for part in split_top(quals[k + 2:mend - 1]):
                ch = tuple(t for t, _ in part if is_ident(t)
                           and t not in lite.KEYWORDS
                           and t not in _NAMESPACES and not lite.is_macro(t))
                if ch:
                    out.add(ch)
    return out


def parse_file(path: str, prog: Program):
    def expand(d):
        req = _requires(d.quals)
        if req:
            prog.requires.setdefault(d.qname, set()).update(req)
        if d.body is None:
            return (d,)
        lifted = []
        body = _lift_lambdas(d.body, d, lifted, [0])
        return [dataclasses.replace(d, body=body)] + lifted

    text = lite.parse_file(path, prog, expand)
    prog.harvest_mutexes(text, os.path.relpath(path, REPO))


def _call_event(cs: CallSite, held_vars) -> Ev | None:
    ph = _LAMBDA_PH.match(cs.name)
    if ph and len(cs.chain) == 1:
        cs.lambda_target = ph.group(1)
        return Ev("call", line=cs.line, cs=cs)
    if cs.name == "operator()" and cs.recv_path:
        # std::function invocation under clang: `listener_(...)` calls
        # function<...>::operator() — an indirect call through the field,
        # as the lite parser reads it, so callback binding resolves it.
        cs.chain, cs.explicit, cs.recv, cs.recv_path = \
            [cs.recv_path[-1]], False, None, []
    refs = [r for a in cs.args for r in a.refs]
    cs.lambdas = [m.group(1) for m in map(_LAMBDA_PH.match, refs) if m]
    if cs.name == "wait" and refs and refs[0] in held_vars:
        return Ev("wait", line=cs.line, var=refs[0])
    if cs.name in ("lock", "unlock") and cs.recv_path and not cs.args:
        return Ev("mlock" if cs.name == "lock" else "munlock", line=cs.line,
                  lock=tuple(x for x in cs.recv_path if x not in _NAMESPACES))
    if cs.name == "try_lock":
        return None
    return Ev("call", line=cs.line, cs=cs)


def stmt_events(f: ir.Func) -> list:
    """Statements of either frontend -> events.  A guard declaration
    acquires; the end of its block releases it, which stays correct under
    early returns (the next acquisition in the outer scope sees the right
    held-set).  A statement's calls follow in evaluation order, arguments
    first."""
    events, guards = [], []   # guards in scope: [(var, block depth)]

    def calls(cs_list):
        for cs in cs_list:
            for a in cs.args:
                yield from calls(a.calls)
            yield cs

    for st in f.stmts:
        if st.block_end:
            while guards and guards[-1][1] >= st.depth:
                events.append(Ev("rel", line=st.line, var=guards.pop()[0]))
        elif st.guard is not None:
            events.append(Ev("acq", line=st.line, var=st.lhs, lock=st.guard,
                             guard=st.decl_type))
            guards.append((st.lhs, st.depth))
        else:
            for cs in calls(st.calls):
                ev = _call_event(cs, [v for v, _ in guards])
                if ev is not None:
                    events.append(ev)
    # function exit: release anything still held
    events += [Ev("rel", var=v) for v, _ in reversed(guards)]
    return events


# --------------------------------------------------------------------------
# libclang frontend: cxxscan.clang_frontend reads headers, members and
# bodies; conc lifts lambdas through its hook and reads GLOBE_REQUIRES
# --------------------------------------------------------------------------

_decl_requires: dict = {}   # path -> {declaration line: lock chains}


def _requires_at(path, line):
    """GLOBE_REQUIRES on the declaration at `line`, read from the source as
    the lite frontend reads it: the macro only expands under clang's
    thread-safety mode, so the attribute is not reliably in the AST."""
    if path not in _decl_requires:
        text = strip_comments(open(path, encoding="utf-8",
                                   errors="replace").read())
        _decl_requires[path] = {d.line: _requires(d.quals) for d in
                                lite.scan_declarations(tokenize(text))}
    return _decl_requires[path].get(line, set())


def _clang_walk_tu(tu, prog: Program, in_scope, ci):
    """Adds one TU's in-scope functions, members and mutexes to prog.  The
    shared statement walker reads each body; every lambda becomes a function
    of its own, named as the lite frontend names it: `<function>::$lambda<N>`,
    numbered in textual order, nested lambdas included."""
    K = ci.CursorKind
    lifted = {}   # function qname -> lambdas lifted out of it so far

    def define(f, body, owner=None):
        prev = prog.funcs.get(f.qname)
        if body is not None and not (prev is not None and prev.has_body):
            f.has_body = True
            for ch in body.get_children():
                linearize(ch, f.stmts, f.local_types, ci,
                          lambda lam: lift(lam, owner or f))
        for p in f.params:
            if p.name and p.type:
                f.local_types.setdefault(p.name, p.type)
        prog.add(f)

    def lift(node, owner):
        idx = lifted.get(owner.qname, 0)
        lifted[owner.qname] = idx + 1
        f = ir.Func(qname=f"{owner.qname}::$lambda{idx}", file=owner.file,
                    line=node.location.line, cls=owner.cls)
        body = None
        for ch in node.get_children():
            if ch.kind == K.COMPOUND_STMT:
                body = ch
            elif ch.kind == K.PARM_DECL:
                f.params.append(param_of(ch, prog, ci))
        define(f, body, owner)
        return _LAMBDA_REF.format(f.qname)

    funcs = (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
             K.FUNCTION_TEMPLATE)
    for cur in tu.cursor.walk_preorder():
        if cur.kind != K.FIELD_DECL and cur.kind not in funcs \
                or not in_scope(file_of(cur)):
            continue
        if cur.kind == K.FIELD_DECL:
            base, t = field_decl(cur, prog, ci), cur.type.spelling
            if base in MUTEX_TYPES and ("util::" in t or "<" not in t):
                rel = os.path.relpath(file_of(cur), REPO)
                prog.register_mutex(subsys_of(rel),
                                    cur.semantic_parent.spelling, cur.spelling,
                                    MUTEX_TYPES[base], rel, cur.location.line)
            continue
        f, body = func_decl(cur, prog, ci)
        req = _requires_at(file_of(cur), cur.location.line)
        if req:
            prog.requires.setdefault(f.qname, set()).update(req)
        define(f, body)


# --------------------------------------------------------------------------
# Analysis core
# --------------------------------------------------------------------------

@dataclass
class CSummary:
    acquires: dict = field(default_factory=dict)  # lockid -> (file,line,chain)
    blocks: dict = field(default_factory=dict)    # sinkdesc -> (file,line,chain)


class Analyzer:
    def __init__(self, prog: Program, hier: dict):
        self.prog = prog
        self.hier = hier
        self.sum: dict[str, CSummary] = {}
        self.findings: list[Finding] = []
        self.edges: dict = {}   # (H, L) -> (func, file, line, chain)
        self.events: dict[str, list] = {}   # qname -> [Ev]
        for q, f in prog.funcs.items():
            s = CSummary()
            if ANNOT_BLOCKING in f.annots:
                s.blocks[q] = (f.file, f.line, ())
            self.sum[q] = s
            self.events[q] = stmt_events(f)
        self.bound: dict[str, list] = {}   # class -> [lambda qnames]
        self._bind_callbacks()

    # -- callback binding --------------------------------------------------

    def _bind_callbacks(self):
        """A lambda passed to a method of class T is considered invocable by
        any of T's methods through a callable field or parameter — this is
        how `listener_(key, why)` inside ElementCache reaches the lambda the
        cache tier registered on it."""
        for f in self.prog.funcs.values():
            for ev in self.events[f.qname]:
                if ev.kind != "call" or ev.cs is None or not ev.cs.lambdas:
                    continue
                t = self.prog.resolve(ev.cs, f, self._effect)
                if t is not None and t.cls:
                    lst = self.bound.setdefault(t.cls, [])
                    for qn in ev.cs.lambdas:
                        if qn not in lst:
                            lst.append(qn)

    # -- resolution --------------------------------------------------------

    def _effect(self, q):
        """What name-only call candidates must agree on to be merged."""
        s = self.sum[q]
        return (ANNOT_BLOCKING in self.prog.funcs[q].annots,
                tuple(sorted(s.acquires)), tuple(sorted(s.blocks)))

    def resolve_targets(self, cs: CallSite, f) -> list:
        t = self.prog.resolve(cs, f, self._effect)
        if t is not None:
            return [t]
        # Indirect call through a callable field / parameter: the bound
        # lambdas of the enclosing class are the candidate targets.
        if len(cs.chain) == 1 and f.cls:
            name = cs.name
            is_field = name in self.prog.fields.get(f.cls, {})
            is_param = any(p.name == name for p in f.params)
            is_fn_local = f.local_types.get(name) == "function"
            if is_field or is_param or is_fn_local:
                return [self.prog.funcs[q]
                        for q in self.bound.get(f.cls, [])
                        if q in self.prog.funcs]
        return []

    def resolve_lock(self, lockref, f):
        """Lock expression -> lockid or None: the member of the class the
        expression names, else the one mutex member of that name."""
        if not lockref:
            return None
        if lockref[0] == "::":
            _, owner, member = lockref
        else:
            member = lockref[-1]
            owner = self.prog.path_type(lockref[:-1], f) \
                if len(lockref) > 1 else f.cls
        lid = owner and self.prog.lock_by_cls(owner, member)
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

    def _is_recursive(self, lid, guard=""):
        if guard == "RecursiveLockGuard":
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

    def _analyze_function(self, f) -> bool:
        s = self.sum[f.qname]
        grew = False
        held: dict = {}     # lid -> [ (line, seeded) ] stack
        guards: dict = {}   # guard var -> lid (or None)

        for ch in self.prog.requires.get(f.qname, ()):
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

        for ev in self.events[f.qname]:
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
    return cli.load_registry(path, "rank", "lock id")


_HEADLINE = {
    "order":    "CONC: lock acquisition violates the declared hierarchy",
    "unranked": "CONC: lock acquisition edge touches an unranked mutex",
    "block":    "CONC: blocking call reachable while a lock is held",
    "deadlock": "CONC: self-deadlock on a non-recursive mutex",
    "cycle":    "CONC: cycle in the lock-acquisition graph",
}


def render(fd: Finding) -> str:
    return cli.render(_HEADLINE[fd.kind], fd, fd.detail)


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------

def build_program(args):
    return cli.build_program(args, "conc", Program, parse_file,
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


EXPECT_RE, EXPECT_MATCH = cli.kind_expect("CONC")
HIER_RE = re.compile(r"//\s*CONC-HIERARCHY:\s*(-?\d+)\s+(\S+)")


def run_self_test(args):
    def build(path, use_clang):
        prog = cli.build_fixture(path, use_clang, Program, parse_file,
                                 _clang_walk_tu)
        if use_clang:  # lock ids from the raw scan too, as in lite
            prog.harvest_mutexes(strip_comments(open(
                path, encoding="utf-8", errors="replace").read()),
                os.path.relpath(path, REPO))
        return prog

    def analyze_fixture(prog, raw):
        an = Analyzer(prog, {lid: int(rank)
                             for rank, lid in HIER_RE.findall(raw)})
        an.run()
        return an.findings

    return cli.run_fixtures(
        "conc", os.path.join(REPO, "tests", "conc", "fixtures"), EXPECT_RE,
        args.frontend, build, analyze_fixture, EXPECT_MATCH)


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
