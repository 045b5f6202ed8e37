"""Per-function IR shared by the analyzers and both frontends."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Func.file and every reported path are relative to the repository root.
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@dataclass
class Arg:
    """One argument expression: identifier references + nested calls."""
    refs: list = field(default_factory=list)
    calls: list = field(default_factory=list)


@dataclass
class CallSite:
    line: int = 0
    chain: list = field(default_factory=list)   # e.g. ["Oid", "matches_key"]
    explicit: bool = False                       # qualified with :: (no receiver)
    array_form: bool = False                     # make_unique<T[]>-style call
    recv: str | None = None                      # receiver variable, if any
    recv_path: list = field(default_factory=list)  # receiver chain idents
    args: list = field(default_factory=list)     # list[Arg]

    @property
    def name(self):
        return self.chain[-1] if self.chain else ""


@dataclass
class Stmt:
    line: int = 0
    is_return: bool = False
    lhs: str | None = None
    lhs_is_member = False                        # write through x.f / x->f / x[i]
    compound: bool = False                       # += style: value accumulates
    decl_type: str | None = None                 # declared type of lhs, if a decl
    refs: list = field(default_factory=list)     # rhs identifier references
    calls: list = field(default_factory=list)    # rhs calls (top level)


@dataclass
class Param:
    name: str | None = None
    type: str | None = None
    annots: set = field(default_factory=set)


@dataclass
class Func:
    qname: str = ""
    file: str = ""
    line: int = 0
    cls: str | None = None
    annots: set = field(default_factory=set)
    params: list = field(default_factory=list)   # list[Param]
    stmts: list = field(default_factory=list)    # list[Stmt] (empty: decl only)
    has_body: bool = False
    local_types: dict = field(default_factory=dict)  # var -> type name


@dataclass
class Program:
    """Functions plus the member tables receiver resolution reads.

    `annots` is the analyzer's annotation vocabulary: a GLOBE_<X> macro (lite)
    or a globe::<x> attribute (clang) is recorded on a function or parameter
    as "<x>" only when "<x>" is in this set."""
    annots: frozenset = frozenset()
    funcs: dict = field(default_factory=dict)    # qname -> Func
    by_name: dict = field(default_factory=dict)  # unqualified -> [qname]
    fields: dict = field(default_factory=dict)   # class -> {field -> type}
    # class -> {field -> {"type","file","line","bounded"}}
    field_info: dict = field(default_factory=dict)

    def annot_of(self, tok: str):
        """GLOBE_FOO / globe::foo -> "foo" if in the vocabulary, else None."""
        if tok.startswith("GLOBE_"):
            name = tok[len("GLOBE_"):].lower()
        elif tok.startswith("globe::"):
            name = tok[len("globe::"):]
        else:
            return None
        return name if name in self.annots else None

    def add(self, f):
        prev = self.funcs.get(f.qname)
        if prev is None:
            self.funcs[f.qname] = f
            self.by_name.setdefault(f.qname.split("::")[-1], []).append(f.qname)
        else:
            self.merge(prev, f)

    def merge(self, prev: Func, f: Func):
        # Declaration + definition: annotations union (positionally for
        # params), body/param-names from whichever has them.
        prev.annots |= f.annots
        for i, p in enumerate(f.params):
            if i < len(prev.params):
                prev.params[i].annots |= p.annots
                if prev.params[i].name is None:
                    prev.params[i].name = p.name
                if prev.params[i].type is None:
                    prev.params[i].type = p.type
            else:
                prev.params.append(p)
        if f.has_body and not prev.has_body:
            prev.stmts, prev.has_body = f.stmts, True
            prev.file, prev.line = f.file, f.line
            prev.local_types.update(f.local_types)

    def add_field(self, cls, name, ftype, file, line, bounded):
        info = self.field_info.setdefault(cls, {})
        if name not in info:
            info[name] = {"type": ftype, "file": file, "line": line,
                          "bounded": bounded}
        elif bounded:
            info[name]["bounded"] = True
        self.fields.setdefault(cls, {}).setdefault(name, ftype)

    def recv_type(self, cs, f):
        """Type of a call's receiver chain, through locals then members."""
        if not cs.recv_path:
            return None
        t = f.local_types.get(cs.recv_path[0])
        if t is None and f.cls:
            t = self.fields.get(f.cls, {}).get(cs.recv_path[0])
        for fieldname in cs.recv_path[1:]:
            if t is None:
                return None
            t = self.fields.get(t, {}).get(fieldname)
        return t


def subsys_of(relpath: str) -> str:
    parts = relpath.replace("\\", "/").split("/")
    if parts[0] == "src" and len(parts) >= 3:
        return parts[1]
    return "test"


def all_calls(st: Stmt):
    """Every call of a statement, nested argument calls included."""
    out = []

    def rec(calls):
        for c in calls:
            out.append(c)
            for a in c.args:
                rec(a.calls)
    rec(st.calls)
    return out
