#!/usr/bin/env python3
"""Trust-boundary taint analysis for the GlobeDoc tree (DESIGN.md §9).

Proves the paper's §3 dataflow invariant over the whole call graph: bytes
obtained from an untrusted source (RPC replies, location records, naming
records, plain-HTTP bodies, wire payloads) must pass a verification entry
point (a GLOBE_SANITIZER) before they reach a trusted sink (element-cache
insert, client response, replica-state install, importer store, contact
dial).  Sources, sanitizers and sinks are declared in the source itself via
the macros in src/util/taint_annotations.hpp.

Two interchangeable frontends (tools/cxxscan) produce the same per-function
IR:

  * ``clang`` — parses each TU with libclang using compile_commands.json and
    reads the ``[[clang::annotate("globe::...")]]`` attributes the macros
    expand to.  Preferred in CI, where python libclang is installed.
  * ``lite``  — a self-contained tokenizer that recognizes the GLOBE_* macro
    tokens directly in the text.  No dependencies beyond the stdlib, so the
    invariant is also enforced by plain ``ctest`` on toolchains without
    clang.  ``--frontend auto`` (the default) tries clang, then falls back.

The source-to-sink value flow (tools/cxxscan/flow.py) then runs a
flow-sensitive intraprocedural walk plus an interprocedural fixpoint over
function summaries (returned taint, sanitized parameters, sink paths).  A
finding is a concrete source reaching a sink with no sanitizer in between;
each is reported with the full call chain.  Intentional flows (e.g. the
paper's §3.1.2 speculative dial of unverified contact addresses) are
suppressed through tools/taint_baseline.txt, which requires a written
justification per entry.

Exit status: 0 = clean (modulo baseline), 1 = findings or stale baseline,
2 = usage/environment error.

Usage:
  tools/taint_check.py [--frontend auto|clang|lite] [paths...]
  tools/taint_check.py --self-test [--frontend clang]   # tests/taint/
  tools/taint_check.py --list               # dump annotated functions
"""

from __future__ import annotations

import os
import re
import sys

from cxxscan import cli
from cxxscan.flow import (ANNOT_UNTRUSTED, FILTER, Flow, FlowFinding,
                          ParamAtom, SinkPath, SourceAtom)
from cxxscan.ir import REPO, Program

ANNOT_SANITIZER = "sanitizer"
ANNOT_SINK = "trusted_sink"
ANNOTS = frozenset({ANNOT_UNTRUSTED, ANNOT_SANITIZER, ANNOT_SINK})

# Accessor methods whose results are treated as metadata, not content:
# calling .status() on a tainted Result yields an error description, not the
# untrusted payload.  Kept deliberately short — anything not listed
# propagates taint.
TAINT_FILTER_METHODS = {"is_ok", "status", "code", "size", "empty", "length"}

FIXTURES = os.path.join(REPO, "tests", "taint", "fixtures")


def _program():
    return Program(annots=ANNOTS)


# --------------------------------------------------------------------------
# Analysis
# --------------------------------------------------------------------------

class Analyzer(Flow):
    clear_annot = ANNOT_SANITIZER
    filter_methods = TAINT_FILTER_METHODS
    finding_kind = "taint"

    def __init__(self, prog: Program):
        super().__init__(prog)
        for q, f in prog.funcs.items():
            s = self.sum[q]
            s.return_sink = ANNOT_SINK in f.annots
            for i, p in enumerate(f.params):
                if ANNOT_SINK in p.annots:
                    s.sink_params.setdefault(i, []).append(
                        SinkPath(sink=q, file=f.file, line=f.line))

    def check_call(self, fs, cs):
        callee = self.resolve(cs, fs.f)
        if callee in (None, FILTER):
            return
        for i, paths in self.sum[callee.qname].sink_params.items():
            if i >= len(cs.args):
                continue
            atoms = fs.eval_arg(cs.args[i])
            if not atoms:
                continue
            # If the parameter is itself sink-annotated (a chainless path
            # ending at the callee), that IS the boundary — do not also
            # report the paths it forwards to further down.
            direct = [p for p in paths
                      if p.sink == callee.qname and not p.chain]
            for path in direct or paths:
                fs.reach(atoms, path, cs.line)

    def on_return(self, fs, st, atoms):
        f = fs.f
        s = self.sum[f.qname]
        if not s.return_sink:
            return
        path = SinkPath(f"{f.qname} (return)", f.file, f.line,
                        ((f.qname, f.file, st.line),))
        for atom in atoms:
            if isinstance(atom, SourceAtom):
                self.findings.append(FlowFinding(
                    self.finding_kind, f.qname, f.file, st.line, atom, path))
            elif isinstance(atom, ParamAtom):
                lst = s.sink_params.setdefault(atom[0], [])
                if not any(e.sink == path.sink for e in lst):
                    lst.append(path)
                    fs.grew = True


# --------------------------------------------------------------------------
# Reporting & command line
# --------------------------------------------------------------------------

def render(fd: FlowFinding) -> str:
    lines = [
        "TAINT: untrusted data reaches trusted sink without sanitization",
        f"  source: {fd.source[0]}",
        f"          reaches taint at {fd.source[1]}:{fd.source[2]}",
        f"  sink:   {fd.sink.sink} ({fd.sink.file}:{fd.sink.line})",
        "  path:",
    ]
    for func, file, line in fd.sink.chain:
        lines.append(f"    {func} at {file}:{line}")
    lines.append(f"  suppression key: {fd.key}")
    return "\n".join(lines)


def build_program(args):
    return cli.build_program(args, "taint", _program)


def run_tree(args):
    prog, used = build_program(args)
    an = Analyzer(prog)
    an.run()
    new, rc = cli.report(an.findings, args, render)
    n_annot = sum(1 for f in prog.funcs.values()
                  if f.annots or any(p.annots for p in f.params))
    print(f"[taint] frontend={used} functions={len(prog.funcs)} "
          f"annotated={n_annot} findings={len(an.findings)} suppressed="
          f"{len(an.findings) - len(new)} new={len(new)}")
    if rc == 0:
        print("[taint] OK: every untrusted-byte path is sanitized or "
              "has a justified suppression")
    return rc


def run_list(args):
    prog, _used = build_program(args)
    for q in sorted(prog.funcs):
        f = prog.funcs[q]
        tags = sorted(f.annots)
        ptags = [f"{p.name or i}:{'|'.join(sorted(p.annots))}"
                 for i, p in enumerate(f.params) if p.annots]
        if tags or ptags:
            print(f"{q}  [{', '.join(tags)}]  {' '.join(ptags)}  "
                  f"({f.file}:{f.line})")
    return 0


EXPECT_RE = re.compile(
    r"//\s*TAINT-EXPECT:\s*(clean|flag(?:\s+source=(\S+))?(?:\s+sink=(\S+))?)")


def run_self_test(args):
    def analyze(prog, _raw):
        an = Analyzer(prog)
        an.run()
        return an.findings

    def matches(fd, expect):
        _e, src, sink = expect
        return (not src or src in fd.source[0]) and \
            (not sink or sink in fd.sink.sink)

    return cli.run_fixtures(
        "taint", FIXTURES, EXPECT_RE, args.frontend,
        lambda path, use_clang: cli.build_fixture(path, use_clang,
                                                     _program),
        analyze, matches)


def main():
    ap = cli.arg_parser(__doc__, "taint_baseline.txt")
    ap.add_argument("--list", action="store_true",
                    help="dump annotated functions and exit")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(run_self_test(args))
    if args.list:
        sys.exit(run_list(args))
    sys.exit(run_tree(args))


if __name__ == "__main__":
    main()
