#!/usr/bin/env python3
"""Self-test for the shared scanning core: baseline suppression, the
comment/literal stripper, the annotated class-head rule, the member harvest,
the statement parser's lock-guard and block-end marks, and the call resolver
all three analyzers share.

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
from cxxscan.ir import Program, all_calls  # noqa: E402
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


def _parse(source):
    """Lite-parses one C++ snippet into the statement IR."""
    fd, path = tempfile.mkstemp(suffix=".cpp")
    with os.fdopen(fd, "w") as f:
        f.write(source)
    try:
        prog = Program()
        lite.parse_file(path, prog)
        return prog
    finally:
        os.unlink(path)


def _resolve(prog, qname, name):
    """What the one call of `name` in function `qname` resolves to (a qname
    or None).  Every candidate counts as a distinct effect, so only a unique
    candidate resolves through the name-only fallback."""
    f = prog.funcs[qname]
    calls = [cs for st in f.stmts for cs in all_calls(st) if cs.name == name]
    check(len(calls) == 1, f"{qname}: {len(calls)} calls of {name}, want 1")
    t = prog.resolve(calls[0], f, lambda q: q) if calls else None
    return t.qname if t is not None else None


@case
def members_typed_through_smart_pointers():
    text = strip_comments(
        "class Holder {\n"
        "  std::unique_ptr<GlobeDocProxy> proxy_;\n"
        "  std::optional<cache::EdgeCacheTier> tier_ GLOBE_GUARDED_BY(mu_);\n"
        "  std::shared_ptr<std::vector<Store>> stores_;\n"
        "  std::map<std::string, std::set<int>> index_ GLOBE_BOUNDED;\n"
        "};\n")
    prog = Program()
    lite.harvest_fields(text, "src/x/holder.hpp", prog)
    got = prog.fields.get("Holder", {})
    want = {"proxy_": "GlobeDocProxy", "tier_": "EdgeCacheTier",
            "stores_": "vector", "index_": "map"}
    check(got == want, f"member types: {got}, want {want}")
    check(prog.field_info["Holder"]["index_"]["bounded"],
          "GLOBE_BOUNDED after nested template arguments not seen")


@case
def guards_and_block_ends_are_marked():
    prog = _parse(
        "void Store::put(int v) {\n"                        # 1
        "  {\n"                                             # 2
        "    util::LockGuard lock(*host.lock);\n"           # 3
        "    util::UniqueLock held(mu_);\n"                 # 4
        "  }\n"                                             # 5
        "  write(v);\n"                                     # 6
        "}\n")
    got = [(st.line, st.guard, st.decl_type, st.block_end, st.depth)
           for st in prog.funcs["Store::put"].stmts]
    want = [(3, ("host", "lock"), "LockGuard", False, 1),
            (4, ("mu_",), "UniqueLock", False, 1),
            (5, None, None, True, 1),
            (6, None, None, False, 0)]
    check(got == want, f"statements: {got}, want {want}")


@case
def statement_calls_in_evaluation_order():
    prog = _parse("void Tab::put(int v) {\n"
                  "  if (ready()) rows_[slot(v)] = load(v);\n"
                  "}\n")
    got = [cs.name for st in prog.funcs["Tab::put"].stmts
           for cs in all_calls(st)]
    want = ["ready", "load", "slot"]  # condition, right side, left side
    check(got == want, f"calls: {got}, want {want}")


@case
def std_and_temporary_receiver_calls_resolve_to_nothing():
    prog = _parse(
        "class Loader { public: void fill(int* a, int* b, int v);\n"
        "               void find(int k); void emit(int e); };\n"
        "class Buffer {\n"
        " public:\n"
        "  void clear() { std::fill(a_, a_ + 4, 0); }\n"
        "  void look(int k) { (*state_)->find(k); }\n"
        "  void log(int e) { loader().emit(e); }\n"
        "};\n"
        "void refill(int* a) { fill(a, a + 4, 0); }\n")
    for qname, name, want in (("Buffer::clear", "fill", None),
                              ("Buffer::look", "find", None),
                              # not a std method name: the one method wins
                              ("Buffer::log", "emit", "Loader::emit"),
                              # the same call without std:: does resolve
                              ("refill", "fill", "Loader::fill")):
        got = _resolve(prog, qname, name)
        check(got == want, f"{qname}: {name} resolved to {got}, want {want}")


@case
def argument_count_filters_name_only_candidates():
    prog = _parse(
        "class Rng { public: void fill(int n); };\n"
        "class Tier { public: void fill(int oid, int element); };\n"
        "void two() { fill(1, 2); }\n"
        "void one() { fill(1); }\n")
    for qname, want in (("two", "Tier::fill"), ("one", None)):
        got = _resolve(prog, qname, "fill")
        check(got == want, f"{qname}: fill resolved to {got}, want {want}")


@case
def unqualified_call_prefers_the_enclosing_class():
    prog = _parse(
        "class Rng {\n"
        " public:\n"
        "  void fill(int n);\n"
        "  void bytes() { fill(4); }\n"
        "};\n"
        "class Tier { public: void fill(int n); };\n"
        "void loose() { fill(4); }\n")
    for qname, want in (("Rng::bytes", "Rng::fill"), ("loose", None)):
        got = _resolve(prog, qname, "fill")
        check(got == want, f"{qname}: fill resolved to {got}, want {want}")


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
