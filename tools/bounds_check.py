#!/usr/bin/env python3
"""Resource-bound analysis for the GlobeDoc tree (DESIGN.md §14).

The paper's replicas, Location Service and naming servers are untrusted, so
every length or count field decoded off the wire is attacker-controlled.
This analyzer proves two resource invariants over the whole call graph:

  1. Untrusted-size allocation: any allocation-sized call — ``resize``,
     ``reserve``, the count form of ``assign``, count construction of
     ``std::string``/``std::vector``/``Bytes``, ``make_unique<T[]>`` — whose
     size derives from a GLOBE_UNTRUSTED source (the taint annotations of
     tools/taint_check.py are reused verbatim) must first pass a clamp
     annotated GLOBE_LENGTH_GUARD (``util::checked_count``,
     ``util::Reader::need``).  Findings carry the full source→allocation
     call chain.  ``substr`` and iterator-pair/copy construction are NOT
     sinks: the standard clamps their size to the existing object, so they
     are bounded by input already allocated.  Likewise ``.size()`` of a
     tainted buffer is input-bounded metadata, not an untrusted size.

  2. Unbounded-growth state: a container member grown
     (push_back/emplace/insert/append/+=) from a member function of a
     long-lived class (anything in src/cache, src/replication, src/obs, or a
     class whose name marks it as a server/proxy/dispatcher/pool/...) must
     either carry GLOBE_BOUNDED (src/util/bounds_annotations.hpp) or be
     ranked in tools/capacity_bounds.txt.  A declared bound must be real:
     unless its registry entry is capacity 0 (grows only during trusted
     configuration), the class must contain an enforcement point for the
     member — an eviction/shrink call or a size check.

Two interchangeable frontends (tools/cxxscan) produce the same per-function
IR, exactly as in tools/taint_check.py and tools/conc_check.py:

  * ``clang`` — libclang over compile_commands.json, reading the
    ``[[clang::annotate("globe::...")]]`` attributes (CI).
  * ``lite``  — a stdlib-only tokenizer recognizing the GLOBE_* macro tokens
    in the text, so plain ``ctest`` enforces the invariants everywhere.

Intentional exceptions are suppressed through tools/bounds_baseline.txt,
which requires a written justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/bounds_check.py [--frontend auto|clang|lite] [paths...]
  tools/bounds_check.py --self-test [--frontend clang]   # tests/bounds/
  tools/bounds_check.py --list      # guards, bounded members, growth sites
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

from cxxscan import cli
from cxxscan.flow import (ANNOT_UNTRUSTED, FILTER, Flow, FlowFinding,
                          SinkPath, dedupe)
from cxxscan.ir import REPO, Arg, Program, all_calls, subsys_of

ANNOT_GUARD = "length_guard"
ANNOTS = frozenset({ANNOT_UNTRUSTED, ANNOT_GUARD})

# Accessor methods whose results are metadata, not attacker-chosen sizes:
# `out.resize(in.size())` allocates only as much as the input actually
# holds, which is the same input-bounded guarantee Reader::need enforces.
# find()-family results are positions within the receiver, bounded by its
# size, so `path.resize(path.find('?'))` is equally input-bounded.
SIZE_FILTER_METHODS = {"is_ok", "status", "code", "size", "empty", "length",
                       "find", "rfind", "find_first_of", "find_last_of",
                       "find_first_not_of", "find_last_not_of"}

# --- analysis 1 tables ------------------------------------------------------

# Receiver methods whose first argument is an element count that the callee
# will allocate for.
RECV_ALLOC_METHODS = {"resize", "reserve"}
# Count-construction types: `T x(n, fill)` with a literal fill allocates n
# elements.  (The iterator-pair and copy forms are input-bounded and the
# 1-arg form is ambiguous with copy construction, so only the 2-arg
# count+literal-fill shape is a sink — it is also the only shape the tree
# uses for wire-sized buffers.)
CTOR_ALLOC_TYPES = {"vector", "basic_string", "string", "deque", "Bytes",
                    "Buffer"}

# --- analysis 2 tables ------------------------------------------------------

# Subsystems whose every class holds long-lived state.
GROWTH_SUBSYS = {"cache", "replication", "obs"}
# Elsewhere, class names that mark server-side long-lived state.
LONGLIVED_RE = re.compile(
    r"(Server|Dispatcher|Proxy|Tier|Framer|Pool|Registry|Replicator|"
    r"Coordinator|Maintainer|Collector|Aggregator|Auditor|Evaluator|"
    r"Tracer|Cache|Node|Client|SingleFlight|EventLog)")

GROWTH_METHODS = {"push_back", "emplace_back", "emplace", "try_emplace",
                  "insert", "push", "append", "push_front", "emplace_front"}
CONTAINER_TYPES = {"vector", "deque", "list", "map", "multimap",
                   "unordered_map", "set", "multiset", "unordered_set",
                   "queue", "priority_queue", "string", "basic_string",
                   "Bytes"}
# Enforcement evidence: a shrink/eviction call or a size check on the member
# anywhere in the class shows the declared bound is actually enforced.
SHRINK_METHODS = {"erase", "pop_front", "pop_back", "pop", "clear",
                  "resize", "shrink_to_fit"}
EVIDENCE_METHODS = SHRINK_METHODS | {"size", "empty", "length"}

FIXTURES = os.path.join(REPO, "tests", "bounds", "fixtures")


def _program():
    return Program(annots=ANNOTS)


@dataclass
class Finding:
    kind: str          # growth | growth-unenforced
    key: str
    file: str = ""
    line: int = 0
    detail: list = field(default_factory=list)


def _literal_arg(arg: Arg) -> bool:
    return not arg.refs and not arg.calls


class Analyzer(Flow):
    clear_annot = ANNOT_GUARD
    filter_methods = SIZE_FILTER_METHODS
    finding_kind = "alloc"

    def __init__(self, prog: Program, capacity: dict | None = None):
        super().__init__(prog)
        self.capacity = capacity or {}

    def run(self):
        super().run()
        self.run_growth()
        self.findings = dedupe(self.findings)

    # ----------------------------------------------------------------------
    # Analysis 1: untrusted-size allocation
    # ----------------------------------------------------------------------

    def _implicit_allocs(self, cs):
        """Yields (arg_index, desc) for allocation-sized arguments of cs."""
        name = cs.name
        if name in RECV_ALLOC_METHODS and cs.recv is not None and cs.args:
            yield 0, f"alloc:{name}"
            return
        if name == "assign" and cs.recv is not None and len(cs.args) == 2 \
                and _literal_arg(cs.args[1]):
            # count form `assign(n, fill)`; the iterator form has a
            # non-literal second argument and is input-bounded.
            yield 0, "alloc:assign"
            return
        if name == "make_unique" and cs.array_form and len(cs.args) == 1:
            yield 0, "alloc:make_unique"
            return
        if len(cs.chain) >= 2 and cs.chain[-1] == cs.chain[-2] \
                and name in CTOR_ALLOC_TYPES and len(cs.args) == 2 \
                and _literal_arg(cs.args[1]):
            yield 0, f"alloc:{name}-ctor"

    def check_call(self, fs, cs):
        for i, desc in self._implicit_allocs(cs):
            atoms = fs.eval_arg(cs.args[i])
            if atoms:
                fs.reach(atoms, SinkPath(desc, fs.f.file, cs.line), cs.line)
        callee = self.resolve(cs, fs.f)
        if callee in (None, FILTER):
            return
        csum = self.sum[callee.qname]
        for i, paths in csum.sink_params.items():
            if i >= len(cs.args):
                continue
            if csum.clears_all or i in csum.clears:
                continue  # the callee validates this size itself
            atoms = fs.eval_arg(cs.args[i])
            if atoms:
                for path in paths:
                    fs.reach(atoms, path, cs.line)

    # ----------------------------------------------------------------------
    # Analysis 2: unbounded-growth state
    # ----------------------------------------------------------------------

    def _watched(self, f) -> bool:
        if not f.cls:
            return False
        return subsys_of(f.file) in GROWTH_SUBSYS \
            or bool(LONGLIVED_RE.search(f.cls))

    def growth_events(self):
        """{(cls, member) -> {"id", "info", "sites": [(q, file, line, how)]}}"""
        events = {}

        def note(f, member, line, how):
            info = self.prog.field_info.get(f.cls, {}).get(member)
            if info is None or info["type"] not in CONTAINER_TYPES:
                return
            if member in f.local_types:
                return  # shadowed by a parameter or local
            mid = f"{subsys_of(info['file'])}.{f.cls}.{member}"
            ev = events.setdefault((f.cls, member),
                                   {"id": mid, "info": info, "sites": []})
            ev["sites"].append((f.qname, f.file, line, how))

        for f in self.prog.funcs.values():
            if not f.has_body or not self._watched(f):
                continue
            for st in f.stmts:
                for cs in all_calls(st):
                    if cs.name in GROWTH_METHODS and cs.recv \
                            and len(cs.recv_path) == 1:
                        note(f, cs.recv, cs.line, cs.name)
                if st.compound and st.lhs and not st.lhs_is_member:
                    note(f, st.lhs, st.line, "+=")
        return events

    def _has_enforcement(self, cls: str, member: str) -> bool:
        for f in self.prog.funcs.values():
            if f.cls != cls or not f.has_body:
                continue
            for st in f.stmts:
                for cs in all_calls(st):
                    if cs.recv == member and len(cs.recv_path) == 1 \
                            and cs.name in EVIDENCE_METHODS:
                        return True
                if st.lhs == member and not st.lhs_is_member \
                        and not st.compound and st.decl_type is None:
                    return True  # wholesale reset (`ring_ = {}`)
        return False

    def run_growth(self):
        for (cls, member), ev in sorted(self.growth_events().items()):
            mid, info = ev["id"], ev["info"]
            declared = info["bounded"] or mid in self.capacity
            sites = [f"    {q} at {fl}:{ln} ({how})"
                     for q, fl, ln, how in ev["sites"][:6]]
            if not declared:
                self.findings.append(Finding(
                    kind="growth", key=f"{mid} | unbounded-growth",
                    file=info["file"], line=info["line"],
                    detail=[f"  member: {mid} "
                            f"({info['file']}:{info['line']})",
                            "  growth:"] + sites
                    + ["  fix: annotate GLOBE_BOUNDED, enforce a capacity, "
                       "and rank it in tools/capacity_bounds.txt"]))
                continue
            cap = self.capacity.get(mid)
            if cap == 0:
                continue  # configuration-time growth: ceiling is the config
            if not self._has_enforcement(cls, member):
                self.findings.append(Finding(
                    kind="growth-unenforced",
                    key=f"{mid} | bounded-unenforced",
                    file=info["file"], line=info["line"],
                    detail=[f"  member: {mid} "
                            f"({info['file']}:{info['line']}) declares a "
                            "bound but the class never shrinks or "
                            "size-checks it",
                            "  growth:"] + sites
                    + ["  fix: add the eviction/capacity check, or rank the "
                       "member capacity 0 if it only grows during trusted "
                       "configuration"]))


# --------------------------------------------------------------------------
# Registry, reporting
# --------------------------------------------------------------------------

def load_capacity(path):
    """Lines: `<capacity> <subsys>.<Class>.<member>  # note`.  Capacity 0
    means the member grows only during trusted configuration."""
    caps = {}
    if not os.path.exists(path):
        return caps
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SystemExit(f"{path}:{lineno}: expected "
                             f"`<capacity> <memberid>`, got: {raw.strip()}")
        try:
            cap = int(parts[0])
        except ValueError:
            raise SystemExit(f"{path}:{lineno}: capacity must be an integer")
        if cap < 0:
            raise SystemExit(f"{path}:{lineno}: capacity must be >= 0")
        if parts[1] in caps:
            raise SystemExit(f"{path}:{lineno}: duplicate member {parts[1]}")
        caps[parts[1]] = cap
    return caps


_HEADLINE = {
    "alloc": "BOUNDS: untrusted size reaches an allocation without a "
             "length guard",
    "growth": "BOUNDS: long-lived container member grows without a "
              "declared bound",
    "growth-unenforced": "BOUNDS: GLOBE_BOUNDED member has no enforced "
                         "capacity check",
}


def render(fd) -> str:
    lines = [_HEADLINE.get(fd.kind, "BOUNDS: finding")]
    if fd.file:
        lines.append(f"  at {fd.file}:{fd.line}")
    if isinstance(fd, FlowFinding):
        src, path = fd.source, fd.sink
        lines += [f"  source: {src[0]}",
                  f"          reaches taint at {src[1]}:{src[2]}",
                  f"  alloc:  {path.sink} at {path.file}:{path.line}",
                  "  path:"]
        lines += [f"    {fn} at {fl}:{ln}" for fn, fl, ln in path.chain]
        lines.append("  fix: validate the size with a GLOBE_LENGTH_GUARD "
                     "clamp (util::checked_count) before allocating")
    else:
        lines.extend(fd.detail)
    lines.append(f"  suppression key: {fd.key}")
    return "\n".join(lines)


def build_program(args):
    return cli.build_program(args, "bounds", _program)


def run_tree(args):
    capacity = load_capacity(args.capacity)
    prog, used = build_program(args)
    an = Analyzer(prog, capacity)
    an.run()
    new, rc = cli.report(an.findings, args, render)
    n_guard = sum(1 for f in prog.funcs.values() if ANNOT_GUARD in f.annots)
    n_bounded = sum(1 for fields in prog.field_info.values()
                    for info in fields.values() if info["bounded"])
    print(f"[bounds] frontend={used} functions={len(prog.funcs)} "
          f"guards={n_guard} bounded_members={n_bounded} "
          f"growth_members={len(an.growth_events())} "
          f"findings={len(an.findings)} "
          f"suppressed={len(an.findings) - len(new)} new={len(new)}")
    if rc == 0:
        print("[bounds] OK: every untrusted size passes a length guard and "
              "every long-lived container has a declared, enforced bound "
              "(modulo justified baseline)")
    return rc


def run_list(args):
    capacity = load_capacity(args.capacity)
    prog, used = build_program(args)
    an = Analyzer(prog, capacity)
    print(f"# GLOBE_LENGTH_GUARD functions ({used} frontend)")
    for q in sorted(prog.funcs):
        f = prog.funcs[q]
        if ANNOT_GUARD in f.annots:
            print(f"{q}  ({f.file}:{f.line})")
    print()
    print("# growth members (long-lived classes)")
    for (cls, member), ev in sorted(an.growth_events().items()):
        info = ev["info"]
        cap = capacity.get(ev["id"], "UNRANKED")
        tag = "GLOBE_BOUNDED" if info["bounded"] else "unannotated"
        print(f"{ev['id']}  type={info['type']} cap={cap} {tag}  "
              f"({info['file']}:{info['line']})")
        for q, fl, ln, how in ev["sites"]:
            print(f"    grows in {q} at {fl}:{ln} ({how})")
    return 0


EXPECT_RE = re.compile(
    r"//\s*BOUNDS-EXPECT:\s*(clean|flag\s+kind=(\S+)(?:\s+detail=(\S+))?)")
CAPACITY_RE = re.compile(r"//\s*BOUNDS-CAPACITY:\s*(\d+)\s+(\S+)")


def run_self_test(args):
    def analyze(prog, raw):
        an = Analyzer(prog, {mid: int(cap)
                             for cap, mid in CAPACITY_RE.findall(raw)})
        an.run()
        return an.findings

    return cli.run_fixtures(
        "bounds", FIXTURES, EXPECT_RE, args.frontend,
        lambda path, use_clang: cli.build_fixture(path, use_clang,
                                                     _program),
        analyze,
        lambda fd, e: fd.kind == e[1] and (not e[2] or e[2] in fd.key))


def main():
    ap = cli.arg_parser(__doc__, "bounds_baseline.txt")
    ap.add_argument("--capacity",
                    default=os.path.join(REPO, "tools", "capacity_bounds.txt"))
    ap.add_argument("--list", action="store_true",
                    help="dump guards, bounded members, growth sites")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(run_self_test(args))
    if args.list:
        sys.exit(run_list(args))
    sys.exit(run_tree(args))


if __name__ == "__main__":
    main()
