"""What every analyzer's command line shares: source collection, frontend
choice with lite fallback, baseline suppression and the fixture harness."""

from __future__ import annotations

import argparse
import os
import sys

from .clang_frontend import (build_program_clang, build_program_clang_single,
                             walk_tu)
from .ir import REPO
from .lex import strip_comments
from .lite import harvest_fields, parse_file


def arg_parser(doc, baseline):
    """The flags every analyzer takes; `baseline` is its file in tools/."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("paths", nargs="*", help="files/dirs (default: src/)")
    ap.add_argument("--frontend", choices=("auto", "clang", "lite"),
                    default="auto")
    ap.add_argument("--compile-commands", default=os.path.join(REPO, "build"),
                    help="directory containing compile_commands.json")
    ap.add_argument("--baseline",
                    default=os.path.join(REPO, "tools", baseline))
    ap.add_argument("--strict-baseline", action="store_true",
                    help="stale baseline entries are errors")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    return ap


def collect_sources(root):
    out = []
    for base, _dirs, files in os.walk(root):
        for fn in sorted(files):
            if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                out.append(os.path.join(base, fn))
    return out


def build_program(args, tag, new_program, parse_file=parse_file,
                  walk=walk_tu):
    """Builds the analyzer's Program over args.paths (default src/) with the
    requested frontend; `auto` falls back to lite when libclang or the
    compilation database is missing.  Returns (program, frontend used).

    new_program() makes an empty Program, parse_file(path, prog) is the lite
    frontend and walk(tu, prog, in_scope, ci) the clang one; the defaults
    build the statement IR."""
    paths = args.paths or [os.path.join(REPO, "src")]
    if args.frontend in ("clang", "auto"):
        try:
            return build_program_clang(paths, args.compile_commands,
                                       new_program(), walk), "clang"
        except ImportError:
            if args.frontend == "clang":
                raise SystemExit(
                    "frontend 'clang' requested but python libclang is not "
                    "importable (pip install libclang); use --frontend lite")
            print(f"[{tag}] libclang unavailable; using lite frontend",
                  file=sys.stderr)
        except RuntimeError as e:
            if args.frontend == "clang":
                raise SystemExit(f"clang frontend failed: {e}")
            print(f"[{tag}] clang frontend failed ({e}); using lite frontend",
                  file=sys.stderr)
    files = []
    for p in paths:
        if os.path.isdir(p):
            files.extend(collect_sources(p))
        else:
            files.append(p)
    return build_program_lite(files, new_program(), parse_file), "lite"


def build_program_lite(files, prog, parse_file):
    for path in files:
        parse_file(path, prog)
    return prog


def build_fixture(path, use_clang, new_program, parse_file=parse_file,
                  walk=walk_tu):
    """One standalone fixture TU through either frontend.  Under clang the
    members also come from the lite regex harvest, so member ids agree
    between frontends even where libclang skips a field."""
    if not use_clang:
        return build_program_lite([path], new_program(), parse_file)
    prog = build_program_clang_single(path, [os.path.dirname(path)],
                                      new_program(), walk)
    text = strip_comments(open(path, encoding="utf-8", errors="replace").read())
    harvest_fields(text, os.path.relpath(path, REPO), prog)
    return prog


def load_baseline(path):
    """Lines: `<finding key>  # justification` (justification required)."""
    entries = {}
    if not os.path.exists(path):
        return entries
    for lineno, raw in enumerate(open(path, encoding="utf-8"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" not in line:
            raise SystemExit(
                f"{path}:{lineno}: baseline entry lacks a justification "
                "comment — every suppression must say why")
        key = line.split("#", 1)[0].strip()
        entries[key] = {"line": lineno, "used": False}
    return entries


def report(findings, args, render):
    """Prints every finding args.baseline does not suppress, then every
    baseline entry no finding matched.  Returns (new findings, exit code):
    1 on a new finding, or on a stale entry under --strict-baseline."""
    baseline = load_baseline(args.baseline)
    new = []
    for fd in findings:
        ent = baseline.get(fd.key)
        if ent is not None:
            ent["used"] = True
        else:
            new.append(fd)
    rc = 0
    for fd in new:
        print(render(fd))
        print()
        rc = 1
    for k, e in baseline.items():
        if e["used"]:
            continue
        print(f"STALE BASELINE: `{k}` no longer matches any finding — "
              f"remove it from {os.path.relpath(args.baseline, REPO)}")
        if args.strict_baseline:
            rc = 1
    return new, rc


def run_fixtures(tag, fixture_dir, expect_re, frontend, build, analyze,
                 matches):
    """Fixture self-test: every `.cpp` under fixture_dir carries
    `<TAG>-EXPECT: clean` or one or more `<TAG>-EXPECT: flag ...` lines.

    build(path, use_clang) -> Program; analyze(prog, raw_text) -> findings
    (each with a .key); matches(finding, expect) -> bool, where expect is an
    expect_re.findall() tuple whose first element is the whole expectation."""
    if not os.path.isdir(fixture_dir):
        print(f"no fixture directory at {fixture_dir}", file=sys.stderr)
        return 2
    use_clang = frontend == "clang"
    if use_clang:
        try:
            import clang.cindex  # noqa: F401
        except ImportError:
            print("frontend 'clang' requested for self-test but libclang "
                  "is unavailable", file=sys.stderr)
            return 2
    fixtures = sorted(f for f in os.listdir(fixture_dir) if f.endswith(".cpp"))
    failures = []
    for fx in fixtures:
        path = os.path.join(fixture_dir, fx)
        raw = open(path, encoding="utf-8").read()
        expects = expect_re.findall(raw)
        if not expects:
            failures.append(f"{fx}: no {tag.upper()}-EXPECT comment")
            continue
        try:
            prog = build(path, use_clang)
        except Exception as e:  # noqa: BLE001 - report as test failure
            if not use_clang:
                raise
            failures.append(f"{fx}: clang parse failed: {e}")
            continue
        findings = analyze(prog, raw)
        if any(e[0] == "clean" for e in expects):
            if findings:
                failures.append(
                    f"{fx}: expected clean, got {len(findings)} finding(s):\n"
                    + "\n".join("    " + fd.key for fd in findings))
            continue
        unmatched = [e[0] for e in expects
                     if not any(matches(fd, e) for fd in findings)]
        extra = [fd for fd in findings
                 if not any(matches(fd, e) for e in expects)]
        if unmatched:
            failures.append(
                f"{fx}: expected finding not produced: "
                f"{'; '.join(unmatched)}\n    got: "
                + ("; ".join(fd.key for fd in findings) or "nothing"))
        if extra:
            failures.append(f"{fx}: unexpected finding(s): "
                            + "; ".join(fd.key for fd in extra))
    print(f"[{tag}] self-test ({'clang' if use_clang else 'lite'}): "
          f"{len(fixtures)} fixtures, {len(failures)} failure(s)")
    for msg in failures:
        print("  FAIL " + msg)
    if len(fixtures) < 15:
        print(f"  FAIL corpus too small: {len(fixtures)} fixtures (< 15)")
        return 1
    return 1 if failures else 0
