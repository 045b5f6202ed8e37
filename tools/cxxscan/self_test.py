#!/usr/bin/env python3
"""Self-test for the shared scanning core: baseline suppression, the
comment/literal stripper and the annotated class-head rule.

Usage: python3 tools/cxxscan/self_test.py   (exit 0 = every case passed)
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

TOOLS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, TOOLS)

from cxxscan import cli, lite  # noqa: E402
from cxxscan.ir import Program  # noqa: E402
from cxxscan.lex import strip_comments, tokenize  # noqa: E402

FAILURES = []
CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def check(cond, msg):
    if not cond:
        FAILURES.append(msg)


def _baseline(text):
    fd, path = tempfile.mkstemp(suffix=".txt")
    with os.fdopen(fd, "w") as f:
        f.write(text)
    return path


def _report(keys, baseline_text, strict):
    """cli.report over findings with the given keys -> (new, rc, out)."""
    path = _baseline(baseline_text)
    try:
        args = SimpleNamespace(baseline=path, strict_baseline=strict)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            new, rc = cli.report([SimpleNamespace(key=k) for k in keys],
                                    args, lambda fd: f"FINDING {fd.key}")
        return new, rc, out.getvalue()
    finally:
        os.unlink(path)


@case
def baseline_suppresses_listed_finding():
    new, rc, out = _report(["f | a -> b"], "f | a -> b  # known, justified\n",
                           strict=True)
    check(not new and rc == 0 and "FINDING" not in out,
          f"listed finding not suppressed: new={new} rc={rc} out={out!r}")
    new, rc, out = _report(["f | a -> b", "g | c -> d"],
                           "f | a -> b  # known\n", strict=False)
    check([fd.key for fd in new] == ["g | c -> d"] and rc == 1
          and "FINDING g | c -> d" in out,
          f"unlisted finding not reported: rc={rc} out={out!r}")


@case
def stale_entry_fails_only_when_strict():
    for strict, want_rc in ((False, 0), (True, 1)):
        new, rc, out = _report([], "# header\ngone | x -> y  # fixed\n",
                               strict=strict)
        check("STALE BASELINE: `gone | x -> y`" in out and rc == want_rc,
              f"stale entry (strict={strict}): rc={rc} out={out!r}")


@case
def unjustified_entry_rejected():
    path = _baseline("f | a -> b\n")
    try:
        cli.load_baseline(path)
        FAILURES.append("baseline entry without `# why` was accepted")
    except SystemExit as e:
        check("lacks a justification" in str(e), f"wrong rejection: {e}")
    finally:
        os.unlink(path)


@case
def analyzer_cli_honours_strict_baseline():
    """End to end through one analyzer: a stale entry exits 1 only under
    --strict-baseline."""
    src_fd, src = tempfile.mkstemp(suffix=".cpp")
    with os.fdopen(src_fd, "w") as f:
        f.write("int plain(int x) { return x; }\n")
    path = _baseline("nobody | gone -> away  # fixed long ago\n")
    try:
        cmd = [sys.executable, os.path.join(TOOLS, "taint_check.py"),
               "--frontend", "lite", "--baseline", path, src]
        for extra, want in (([], 0), (["--strict-baseline"], 1)):
            r = subprocess.run(cmd + extra, capture_output=True, text=True)
            check(r.returncode == want and "STALE BASELINE" in r.stdout,
                  f"taint_check {extra}: rc={r.returncode} "
                  f"stdout={r.stdout!r} stderr={r.stderr!r}")
    finally:
        os.unlink(src)
        os.unlink(path)


@case
def literals_do_not_open_comments():
    text = ('const char* url = "http://x/*y*/";  // tail\n'   # line 1
            "char c = '/'; char d = '*'; char q = '\\''; char e = '\"';\n"  # 2
            "auto s = \"a//b\\\"/*\"; int n = 1'000;\n"       # line 3
            "/* block\n"                                      # line 4
            "   comment */ int after_block = 1;\n"            # line 5
            "#define X \\\n"                                  # line 6
            "  continued\n"                                   # line 7
            "int last = 2;\n")                                # line 8
    stripped = strip_comments(text)
    check(stripped.count("\n") == text.count("\n"),
          "stripping changed the number of lines")
    lines = {t: ln for t, ln in tokenize(stripped)}
    for name, want in (("url", 1), ("c", 2), ("d", 2), ("q", 2), ("e", 2),
                       ("s", 3), ("n", 3), ("after_block", 5), ("last", 8)):
        check(lines.get(name) == want,
              f"token {name!r}: line {lines.get(name)}, want {want}")
    for gone in ("http", "tail", "block", "comment", "continued", "X"):
        check(gone not in lines, f"{gone!r} survived stripping")


@case
def annotated_class_head_opens_scope():
    text = strip_comments(
        'class GLOBE_CAPABILITY("cache") FrameCache {\n'
        " public:\n"
        "  void add(int x) GLOBE_REQUIRES(mu_) { frames_.push_back(x); }\n"
        "  int size_ GLOBE_GUARDED_BY(mu_) = 0;\n"
        " private:\n"
        "  std::vector<int> frames_;\n"
        "};\n")
    decls = list(lite.scan_declarations(tokenize(text)))
    check([(d.qname, d.cls) for d in decls] == [("FrameCache::add",
                                                "FrameCache")],
          f"declarations: {[(d.qname, d.cls) for d in decls]}")
    prog = Program()
    lite.harvest_fields(text, "src/x/frame_cache.hpp", prog)
    info = prog.field_info.get("FrameCache", {}).get("frames_")
    check(info is not None and info["type"] == "vector" and info["line"] == 6,
          f"FrameCache.frames_ not harvested: {prog.field_info}")


def main():
    for fn in CASES:
        before = len(FAILURES)
        fn()
        print(f"  {'PASS' if len(FAILURES) == before else 'FAIL'}: "
              f"{fn.__name__}")
    print(f"[cxxscan] self-test: {len(CASES)} cases, "
          f"{len(FAILURES)} failure(s)")
    for msg in FAILURES:
        print("  FAIL " + msg)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
