"""Interprocedural source-to-sink value flow over the statement IR.

taint_check follows GLOBE_UNTRUSTED bytes to trusted sinks, cleared by
GLOBE_SANITIZER; bounds_check follows GLOBE_UNTRUSTED sizes to allocations,
cleared by GLOBE_LENGTH_GUARD.  Both are this one analysis: a
flow-sensitive walk of each function (statements in textual order, so
clear-then-retaint is caught) inside a fixpoint over function summaries:

  * returns         — which parameters (or internal sources) reach the
                      return value;
  * clears param i  — annotated clearing functions, plus functions that pass
                      a parameter straight into one;
  * sink paths      — which parameters reach a sink inside the function or
                      transitively through its callees (multi-hop chains).

A subclass names its clearing annotation and call filter, and decides in
check_call() which argument positions of a call are sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ir import all_calls

ANNOT_UNTRUSTED = "untrusted"

MAX_CHAIN = 12  # call-chain depth cap when materializing findings

FILTER = "FILTER"  # resolve() result for a filtered accessor call


class SourceAtom(tuple):
    """(desc, file, line) — a concrete taint origin."""
    __slots__ = ()

    def __new__(cls, desc, file, line):
        return super().__new__(cls, (desc, file, line))


class ParamAtom(tuple):
    """(param_index,) — symbolic taint of the enclosing function's param."""
    __slots__ = ()

    def __new__(cls, i):
        return super().__new__(cls, (i,))


@dataclass
class SinkPath:
    sink: str                       # e.g. a sink qname or "alloc:reserve"
    file: str = ""
    line: int = 0
    chain: tuple = ()               # ((func_qname, file, line), ...)


@dataclass
class Summary:
    returns_param: set = field(default_factory=set)      # param indices
    returns_sources: set = field(default_factory=set)    # SourceAtoms
    clears: set = field(default_factory=set)             # param indices
    clears_all: bool = False
    sink_params: dict = field(default_factory=dict)      # idx -> [SinkPath]
    return_sink: bool = False


@dataclass
class FlowFinding:
    kind: str
    enclosing: str
    file: str
    line: int
    source: SourceAtom
    sink: SinkPath

    @property
    def key(self):
        return f"{self.enclosing} | {self.source[0]} -> {self.sink.sink}"


def dedupe(findings):
    seen = set()
    out = []
    for fd in findings:
        if fd.key not in seen:
            seen.add(fd.key)
            out.append(fd)
    return out


class Flow:
    clear_annot = ""                # annotation that clears a value
    filter_methods = frozenset()    # accessors whose result is metadata
    finding_kind = ""               # FlowFinding.kind

    def __init__(self, prog):
        self.prog = prog
        self.sum: dict[str, Summary] = {}
        self.findings: list = []
        for q, f in prog.funcs.items():
            s = Summary(clears_all=self.clear_annot in f.annots)
            s.clears = {i for i, p in enumerate(f.params)
                        if self.clear_annot in p.annots}
            self.sum[q] = s

    def check_call(self, fs: FnFlow, cs):
        """Reports the sinks call `cs` reaches, through fs.reach()."""

    def on_return(self, fs: FnFlow, st, atoms):
        """Sees the values a return statement returns."""

    # -- resolution --------------------------------------------------------

    def resolve(self, cs, enclosing):
        """CallSite -> Func, FILTER or None (external / ambiguous)."""
        if cs.name in self.filter_methods:
            return FILTER
        return self.prog.resolve(cs, enclosing, self._effect)

    def _effect(self, q):
        s = self.sum[q]
        return (self.prog.funcs[q].annots, tuple(sorted(s.sink_params)),
                tuple(sorted(s.clears)))

    def opaque(self, callee) -> bool:
        """Known symbol, but no body and no annotations anywhere: its
        dataflow is unknowable, so treat it like an external function."""
        return (not callee.has_body and not callee.annots
                and not any(p.annots for p in callee.params)
                and not self.sum[callee.qname].sink_params
                and not self.sum[callee.qname].clears)

    # -- phase 1: derived clearing ----------------------------------------

    def compute_clears(self):
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            for q, f in self.prog.funcs.items():
                if not f.has_body:
                    continue
                s = self.sum[q]
                pidx = {p.name: i for i, p in enumerate(f.params) if p.name}
                for st in f.stmts:
                    for cs in all_calls(st):
                        callee = self.resolve(cs, f)
                        if callee in (None, FILTER):
                            continue
                        csum = self.sum[callee.qname]
                        # receiver position: `p.verify(...)`
                        if cs.recv in pidx and csum.clears_all:
                            if pidx[cs.recv] not in s.clears:
                                s.clears.add(pidx[cs.recv])
                                changed = True
                        for ai, arg in enumerate(cs.args):
                            names = set(arg.refs)
                            if len(names) != 1 or arg.calls and \
                                    any(c.name not in ("move",) for c in arg.calls):
                                continue
                            nm = next(iter(names))
                            if nm not in pidx:
                                continue
                            if csum.clears_all or ai in csum.clears:
                                if pidx[nm] not in s.clears:
                                    s.clears.add(pidx[nm])
                                    changed = True

    # -- phase 2: flow fixpoint -------------------------------------------

    def run(self):
        self.compute_clears()
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            self.findings = []  # the final round's findings stand
            for f in self.prog.funcs.values():
                if f.has_body and self.analyze(f):
                    changed = True
        self.findings = dedupe(self.findings)

    def analyze(self, f) -> bool:
        """One function under the current summaries; True if its own
        summary grew."""
        fs = FnFlow(self, f)
        s = self.sum[f.qname]
        if ANNOT_UNTRUSTED in f.annots:
            src = SourceAtom(f.qname, f.file, f.line)
            if src not in s.returns_sources:
                s.returns_sources.add(src)
                fs.grew = True
        # Two passes over the linearized statements: the second starts from
        # the first pass's end state, which approximates loop back-edges
        # (`node = reply->parent` feeding next iteration's dial).  Findings
        # and summary updates are deduplicated, so the repeat is harmless.
        for _pass in (0, 1):
            for st in f.stmts:
                # Sinks are checked against the PRE-state: arguments are
                # evaluated before the callee runs, so a clearing call cannot
                # bless the very call that smuggles its argument to a sink.
                for cs in all_calls(st):
                    self.check_call(fs, cs)
                for cs in all_calls(st):
                    fs.apply_clears(cs)
                if st.is_return:
                    atoms = fs.atoms_of(st.refs, st.calls)
                    self.on_return(fs, st, atoms)
                    if not s.clears_all:  # a clearing return is clean
                        fs.export_return(atoms)
                if st.lhs is not None:
                    atoms = fs.atoms_of(st.refs, st.calls)
                    if st.lhs_is_member or st.compound:
                        fs.state[st.lhs] = fs.state.get(st.lhs, set()) | atoms
                    else:
                        fs.state[st.lhs] = atoms
                    continue
                # mutating call on a receiver with tainted arguments: an
                # opaque method (push_back, add_cert, ...) may store them
                for cs in st.calls:
                    callee = self.resolve(cs, f)
                    if cs.recv and (callee is None or
                                    callee != FILTER and self.opaque(callee)):
                        extra = set()
                        for a in cs.args:
                            extra |= fs.eval_arg(a)
                        if extra:
                            fs.state[cs.recv] = fs.state.get(cs.recv, set()) | extra
        return fs.grew


class FnFlow:
    """Flow state of one function during one Flow.analyze() round."""

    def __init__(self, an: Flow, f):
        self.an = an
        self.f = f
        self.grew = False
        self.state: dict[str, set] = {}
        for i, p in enumerate(f.params):
            atoms = {ParamAtom(i)}
            if ANNOT_UNTRUSTED in p.annots:
                atoms.add(SourceAtom(f"{f.qname} (untrusted param"
                                     f" '{p.name or i}')", f.file, f.line))
            if p.name:
                self.state[p.name] = atoms

    def atoms_of(self, refs, calls) -> set:
        atoms = set()
        for r in refs:
            atoms |= self.state.get(r, set())
        for c in calls:
            atoms |= self.call_atoms(c)
        return atoms

    def eval_arg(self, arg) -> set:
        return self.atoms_of(arg.refs, arg.calls)

    def call_atoms(self, cs) -> set:
        an = self.an
        callee = an.resolve(cs, self.f)
        if callee == FILTER:
            return set()
        arg_atoms = [self.eval_arg(a) for a in cs.args]
        recv_atoms = self.state.get(cs.recv, set()) if cs.recv else set()
        if callee is None or an.opaque(callee):
            if cs.recv and cs.name in ("find", "at", "count"):
                # Container lookup: the result is a stored value, whose taint
                # is the container's — the lookup KEY does not taint it
                # (selecting a trusted endpoint out of a config map by an
                # attacker-chosen name yields a trusted endpoint).
                return set(recv_atoms)
            # Unknown or bodyless-unannotated callee: conservatively
            # propagate every input (including the receiver) to the result.
            out = set(recv_atoms)
            for a in arg_atoms:
                out |= a
            return out
        csum = an.sum[callee.qname]
        if ANNOT_UNTRUSTED in callee.annots:
            return {SourceAtom(callee.qname, self.f.file, cs.line)}
        if csum.clears_all:
            return set()
        # A method invoked on a tainted object yields tainted data
        # (readers, serializers, accessors) unless filtered above.
        out = set(recv_atoms)
        parts = callee.qname.split("::")
        if len(parts) >= 2 and parts[-1] == parts[-2]:
            # constructor: the "return value" is the built object, which
            # absorbs every argument
            for a in arg_atoms:
                out |= a
        for i in csum.returns_param:
            if i < len(arg_atoms):
                out |= arg_atoms[i]
        for src in csum.returns_sources:
            out.add(SourceAtom(src[0], self.f.file, cs.line))
        return out

    def apply_clears(self, cs):
        callee = self.an.resolve(cs, self.f)
        if callee in (None, FILTER):
            return
        csum = self.an.sum[callee.qname]
        if csum.clears_all:
            if cs.recv:
                self.state[cs.recv] = set()
            for a in cs.args:
                for r in a.refs:
                    self.state[r] = set()
        else:
            for i in csum.clears:
                if i < len(cs.args):
                    for r in cs.args[i].refs:
                        self.state[r] = set()

    def reach(self, atoms, path: SinkPath, line):
        """Values `atoms` reach sink `path` from a call at `line`: a concrete
        source is a finding, a parameter extends this function's own sink
        summary."""
        if len(path.chain) >= MAX_CHAIN:
            return
        f = self.f
        full = SinkPath(path.sink, path.file, path.line,
                        ((f.qname, f.file, line),) + path.chain)
        for atom in atoms:
            if isinstance(atom, SourceAtom):
                self.an.findings.append(FlowFinding(
                    self.an.finding_kind, f.qname, f.file, line, atom, full))
            elif isinstance(atom, ParamAtom):
                lst = self.an.sum[f.qname].sink_params.setdefault(atom[0], [])
                if not any(e.sink == full.sink and e.chain == full.chain
                           for e in lst):
                    lst.append(full)
                    self.grew = True

    def export_return(self, atoms):
        s = self.an.sum[self.f.qname]
        for atom in atoms:
            if isinstance(atom, ParamAtom):
                if atom[0] not in s.returns_param:
                    s.returns_param.add(atom[0])
                    self.grew = True
            elif isinstance(atom, SourceAtom):
                if atom not in s.returns_sources \
                        and len(s.returns_sources) < 8:
                    s.returns_sources.add(atom)
                    self.grew = True
