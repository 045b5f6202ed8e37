#!/usr/bin/env python3
"""GlobeDoc project lint: security-discipline invariants the compiler can't see.

Checks (each maps to a guarantee of the paper, "Securely Replicated Web
Documents"):

  nodiscard      Every verification entry point (verify_* / check_* functions
                 and the self-certifying matches_key) must be declared
                 [[nodiscard]] (or return a [[nodiscard]]-class type such as
                 util::Status / util::Result), so a dropped verification
                 result is a compiler warning, not a silent security hole.

  unchecked      No statement may discard the result of a verification call
                 outright: a line consisting of `foo.verify_signature(...);`
                 with no assignment / condition / return / (void) cast is an
                 unchecked verification — the §3 attacks (tampering, replay,
                 stale content) walk straight through such a call site.

  raw-crypto     Raw primitive calls (crypto::sha1/sha256 digests, rsa_sign_*/
                 rsa_verify_*/rsa_encrypt/rsa_decrypt) are allowed only inside
                 src/crypto/ and the designated signing/verification sites.
                 Everything else must go through those sites so there is one
                 auditable place per protocol check.

  raw-crypto-    Every designated site must still make a raw primitive call:
  stale          an allowlist entry that no longer needs the exemption would
                 silently admit the next raw call added to that file.

  raw-socket     Raw socket I/O (::send/::recv/::sendmsg/::recvmsg/::write/
                 ::read/::writev/::readv) inside src/ is allowed only in the
                 live transport (src/net/tcp.cpp), which writes each frame
                 with one sendmsg; any other path would bypass the framing.
                 tests/, bench/ and examples/ are exempt.

  raw-socket-    Every RAW_SOCKET_ALLOWED file must still make a raw socket
  stale          call, for the same reason as raw-crypto-stale.

  no-rand        rand()/std::rand/srand/random() are banned everywhere: all
                 randomness flows through the DRBG (crypto::HmacDrbg) or the
                 seeded simulation RNG (util::SplitMix64), keeping runs
                 deterministic and nonces unpredictable.

  metric-catalog Every metric name registered with obs::MetricsRegistry
                 (`.counter("...")` / `.gauge("...")` / `.histogram("...")`)
                 in src/ or bench/ must be documented in docs/metrics.md
                 (listed in backticks).  /metrics is part of the operational
                 surface; an undocumented series is an unreviewable one.

  probe-catalog  Every cost-probe label declared at a GLOBE_PROFILE_SCOPE
                 site in src/ must be documented in docs/metrics.md (listed
                 in backticks).  Probe labels become the `probe=` label of
                 the profile.* series and the frames of /profilez stacks —
                 an undocumented label is an unreviewable flamegraph frame.

  slo-catalog    Every SLO spec (`obs::SloSpec`) must watch a cataloged
                 metric: a `.metric = "..."` literal in src/, bench/ or
                 examples/ whose name is missing from docs/metrics.md is a
                 spec that can never observe data — a typo there silently
                 disables the alert it defines.

  lock-rank      Every util::Mutex / util::RecursiveMutex class member in
  lock-rank-     src/ must hold a rank in tools/lock_hierarchy.txt, so a new
  stale          mutex cannot join the lock-acquisition graph unranked and
                 invisible to tools/conc_check.py's order checking (DESIGN.md
                 §13); and every rank must still name such a member, so the
                 rank of a deleted or renamed mutex cannot linger.  Scanning
                 is shared with conc_check so the two tools can never
                 disagree about what counts as a mutex member.

  capacity-rank  Every GLOBE_BOUNDED container member in src/ must be
  capacity-stale ranked in tools/capacity_bounds.txt, and every registry
                 entry must still name a GLOBE_BOUNDED member — the registry
                 is what tools/bounds_check.py enforces, so a missing line
                 hides a member from the unbounded-growth check and a stale
                 line suggests enforcement that no longer exists (DESIGN.md
                 §14).  Scanning is shared with bounds_check so the two
                 tools can never disagree about what counts as a bounded
                 member.

Exit status: 0 when clean, 1 when any violation is found, 2 on usage errors.
Run `tools/lint.py --self-test` to verify every check still fires on seeded
violations.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Directories scanned for C++ sources.
SCAN_DIRS = ["src", "tests", "bench", "examples"]
CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}

# ---------------------------------------------------------------------------
# nodiscard: verification entry points that must carry [[nodiscard]] or
# return a nodiscard-class type.
# ---------------------------------------------------------------------------

# Function-name patterns that constitute a verification entry point when they
# *declare* a function in a header under src/.
VERIFY_NAME_RE = re.compile(r"\b(verify(?:_\w+)?|check_element|matches_key|trusts)\s*\(")

# Return types that are [[nodiscard]] at class level, so the declaration is
# protected even without a function-level attribute.
NODISCARD_CLASS_TYPES = re.compile(r"\butil::(Status|Result)\b|\bStatus\b|\bResult\s*<")

# Declaration sites exempt from the nodiscard rule: definitions of the
# checker machinery itself and test helpers.
NODISCARD_EXEMPT_FILES = {"src/util/status.hpp"}

# ---------------------------------------------------------------------------
# unchecked: discarded verification results.
# ---------------------------------------------------------------------------

# A statement line that *begins* with (an object expression and) a
# verification call and ends in `;` discards the result.
UNCHECKED_RE = re.compile(
    r"^\s*(?:[A-Za-z_][\w]*(?:\.|->|::))*"
    r"(?:verify(?:_\w+)?|check_element|matches_key|first_trusted_subject)"
    r"\s*\(.*\)\s*;\s*(?://.*)?$"
)

# ---------------------------------------------------------------------------
# raw-crypto: primitive calls allowed only in designated files.
# ---------------------------------------------------------------------------

RAW_CRYPTO_RE = re.compile(
    r"\bcrypto::(Sha1|Sha256)::digest\w*\s*\(|"
    r"\bcrypto::(sha1|sha256|hkdf_expand_sha256)\s*\(|"
    r"\bcrypto::rsa_(sign|verify|encrypt|decrypt|generate)\w*\s*\("
)

# The designated signing/verification sites: one auditable place per
# protocol-level check (paper §3).  Everything else calls *these*.
RAW_CRYPTO_ALLOWED = {
    "src/globedoc/oid.cpp",            # OID = SHA-1(public key)
    "src/globedoc/element.cpp",        # element digests for cert entries
    "src/globedoc/integrity.cpp",      # integrity-certificate sign/verify
    "src/globedoc/identity.cpp",       # CA identity-certificate sign/verify
    "src/globedoc/dynamic.cpp",        # dynamic receipts sign/verify
    "src/globedoc/object.cpp",         # object key generation
    "src/globedoc/server.cpp",         # admin challenge/response signatures
    "src/globedoc/importer.cpp",       # import-manifest digest gate (§9)
    "src/naming/service.cpp",          # zone record signing
    "src/naming/resolver.cpp",         # zone record validation
    "src/http/secure_channel.cpp",     # TLS-like handshake + record crypto
    "src/http/static_server.cpp",      # ETag generation (non-security digest)
}
# Tests, benches and examples may exercise primitives directly.
RAW_CRYPTO_ALLOWED_DIRS = ("src/crypto/", "tests/", "bench/", "examples/")

# ---------------------------------------------------------------------------
# raw-socket: socket reads and writes allowed only in the live transport.
# ---------------------------------------------------------------------------

# A global-namespace call (`::send(`), not a member such as `out::write(`.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w>)\]])::(send|recv|sendmsg|recvmsg|write|read|writev|readv)\s*\("
)

# The one file that owns frame I/O on real sockets (src/net/tcp.cpp: one
# sendmsg per frame).  Everything else goes through net::TcpTransport.
RAW_SOCKET_ALLOWED = {"src/net/tcp.cpp"}

# ---------------------------------------------------------------------------
# no-rand: libc randomness is banned everywhere.
# ---------------------------------------------------------------------------

RAND_RE = re.compile(r"(?<![\w:.])(?:std::)?(?:rand|srand|random|drand48)\s*\(")

# ---------------------------------------------------------------------------
# metric-catalog: registered metric names must appear in docs/metrics.md.
# ---------------------------------------------------------------------------

# A registry registration with a literal series name.  The registry API takes
# the name as the first argument, always a string literal in this tree.
METRIC_REG_RE = re.compile(r'\.\s*(counter|gauge|histogram)\s*\(\s*"([^"]+)"')
METRIC_CATALOG = "docs/metrics.md"
METRIC_SCAN_DIRS = ("src", "bench")

# ---------------------------------------------------------------------------
# probe-catalog: cost-probe labels must appear in docs/metrics.md.
# ---------------------------------------------------------------------------

# A scoped cost probe with a literal label (obs/profile.hpp).  The macro is
# the only sanctioned spelling in src/; labels are always string literals.
PROBE_RE = re.compile(r'GLOBE_PROFILE_SCOPE\s*\(\s*"([^"]+)"\s*\)')
PROBE_SCAN_DIRS = ("src",)

# ---------------------------------------------------------------------------
# slo-catalog: SLO specs may only reference cataloged metric names.
# ---------------------------------------------------------------------------

# A literal metric assignment on an SloSpec (`spec.metric = "proxy.fetches"`).
# The field name is unique to SloSpec in this tree.
SLO_METRIC_RE = re.compile(r'\.\s*metric\s*=\s*"([^"]+)"')
SLO_SCAN_DIRS = ("src", "bench", "examples")

COMMENT_RE = re.compile(r"^\s*(//|\*|/\*)")


def iter_sources():
    for d in SCAN_DIRS:
        root = REPO / d
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix in CPP_SUFFIXES and path.is_file():
                yield path


def relpath(path: pathlib.Path) -> str:
    return path.relative_to(REPO).as_posix()


def strip_strings(line: str) -> str:
    """Blanks out string/char literals so regexes don't match inside them."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def code_lines(lines: list[str]):
    """Yields (lineno, code) for every line outside comments, with string
    literals blanked and any trailing // comment cut."""
    in_block_comment = False
    for lineno, raw_line in enumerate(lines, start=1):
        line = strip_strings(raw_line)

        # Rudimentary block-comment tracking (good enough for this tree's
        # comment style: no code after */ on the same line).
        if in_block_comment:
            if "*/" in line:
                in_block_comment = False
            continue
        if line.lstrip().startswith("/*") and "*/" not in line:
            in_block_comment = True
            continue
        if COMMENT_RE.match(line):
            continue
        yield lineno, line.split("//", 1)[0]


def check_file(path: pathlib.Path, violations: list[str]) -> None:
    rel = relpath(path)
    lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
    # True when the previous code line leaves an expression open (assignment,
    # call argument list, boolean operator, return ...): the current line is a
    # continuation, so a leading verification call is NOT a discarded result.
    prev_continues = False

    for lineno, code in code_lines(lines):
        # --- no-rand: everywhere ---
        if RAND_RE.search(code):
            violations.append(
                f"{rel}:{lineno}: [no-rand] libc randomness is banned; use "
                f"crypto::HmacDrbg (nonces/keys) or util::SplitMix64 (simulation)"
            )

        # --- raw-crypto: outside crypto/ and designated sites ---
        if (
            not rel.startswith(RAW_CRYPTO_ALLOWED_DIRS)
            and rel not in RAW_CRYPTO_ALLOWED
            and RAW_CRYPTO_RE.search(code)
        ):
            violations.append(
                f"{rel}:{lineno}: [raw-crypto] raw primitive call outside "
                f"src/crypto and the designated verification sites"
            )

        # --- raw-socket: src/ only, outside the live transport ---
        if (
            rel.startswith("src/")
            and rel not in RAW_SOCKET_ALLOWED
            and RAW_SOCKET_RE.search(code)
        ):
            violations.append(
                f"{rel}:{lineno}: [raw-socket] raw socket I/O outside "
                f"src/net/tcp.cpp; send and receive through net::TcpTransport"
            )

        # --- unchecked: discarded verification result ---
        if rel.startswith("src/") and not prev_continues and UNCHECKED_RE.match(code):
            violations.append(
                f"{rel}:{lineno}: [unchecked] verification result discarded; "
                f"branch on it or cast to (void) with a justification"
            )

        # --- nodiscard: declarations in src/ headers ---
        if (
            rel.startswith("src/")
            and path.suffix in {".hpp", ".h"}
            and rel not in NODISCARD_EXEMPT_FILES
        ):
            m = VERIFY_NAME_RE.search(code)
            if m:
                # Only *declarations* (prototype or inline definition start):
                # the name must be preceded by a return type on this line or a
                # continuation, and the statement must not be a call.  A call
                # has something binding the result (handled above) or is
                # inside an expression; declarations in this tree always have
                # the return type on the same line.
                before = code[: m.start()]
                is_decl = bool(
                    re.search(r"(bool|util::Status|util::Result<[^>]*>|"
                              r"std::optional<[^>]*>|Status|Result<[^>]*>)\s*$",
                              before.strip() and before or "")
                )
                if is_decl:
                    window_start = max(0, lineno - 3)
                    window = "\n".join(lines[window_start:lineno])
                    if "[[nodiscard]]" not in window:
                        violations.append(
                            f"{rel}:{lineno}: [nodiscard] verification entry "
                            f"point must be declared [[nodiscard]]"
                        )

        stripped = code.rstrip()
        if stripped:
            prev_continues = bool(
                re.search(r"(=|\(|,|\|\||&&|!|\?|:|\breturn|\bco_return)\s*$",
                          stripped)
            )
        # blank lines keep the previous continuation state (wrapped exprs
        # never contain blank lines in this tree, but comments may intervene)


def check_allowlists(violations: list[str]) -> None:
    """Every allowlisted file must still make the call it is exempted for."""
    for tag, name, allowed, pattern, what in (
        ("raw-crypto-stale", "RAW_CRYPTO_ALLOWED", RAW_CRYPTO_ALLOWED,
         RAW_CRYPTO_RE, "raw primitive call"),
        ("raw-socket-stale", "RAW_SOCKET_ALLOWED", RAW_SOCKET_ALLOWED,
         RAW_SOCKET_RE, "raw socket call"),
    ):
        for rel in sorted(allowed):
            path = REPO / rel
            lines = (path.read_text(encoding="utf-8", errors="replace").splitlines()
                     if path.is_file() else [])
            if not any(pattern.search(code) for _, code in code_lines(lines)):
                violations.append(
                    f"tools/lint.py: [{tag}] {name} entry "
                    f"\"{rel}\" makes no {what} — remove the entry")


def check_metric_catalog(violations: list[str]) -> None:
    """Every registered metric series name must be listed in the catalog."""
    catalog_path = REPO / METRIC_CATALOG
    cataloged: set[str] = set()
    if catalog_path.is_file():
        cataloged = set(re.findall(r"`([^`\n]+)`",
                                   catalog_path.read_text(encoding="utf-8")))
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith(tuple(d + "/" for d in METRIC_SCAN_DIRS)):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(),
                start=1):
            if COMMENT_RE.match(line):
                continue
            for kind, name in METRIC_REG_RE.findall(line):
                if name not in cataloged:
                    violations.append(
                        f"{rel}:{lineno}: [metric-catalog] {kind} \"{name}\" "
                        f"is not documented in {METRIC_CATALOG}"
                    )


def check_probe_catalog(violations: list[str]) -> None:
    """Every GLOBE_PROFILE_SCOPE label literal must be in the catalog."""
    catalog_path = REPO / METRIC_CATALOG
    cataloged: set[str] = set()
    if catalog_path.is_file():
        cataloged = set(re.findall(r"`([^`\n]+)`",
                                   catalog_path.read_text(encoding="utf-8")))
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith(tuple(d + "/" for d in PROBE_SCAN_DIRS)):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(),
                start=1):
            if COMMENT_RE.match(line):
                continue
            for label in PROBE_RE.findall(line):
                if label not in cataloged:
                    violations.append(
                        f"{rel}:{lineno}: [probe-catalog] probe label "
                        f"\"{label}\" is not documented in {METRIC_CATALOG}"
                    )


def check_slo_catalog(violations: list[str]) -> None:
    """Every SLO spec's metric literal must name a cataloged series."""
    catalog_path = REPO / METRIC_CATALOG
    cataloged: set[str] = set()
    if catalog_path.is_file():
        cataloged = set(re.findall(r"`([^`\n]+)`",
                                   catalog_path.read_text(encoding="utf-8")))
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith(tuple(d + "/" for d in SLO_SCAN_DIRS)):
            continue
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8", errors="replace").splitlines(),
                start=1):
            if COMMENT_RE.match(line):
                continue
            for name in SLO_METRIC_RE.findall(line):
                if name not in cataloged:
                    violations.append(
                        f"{rel}:{lineno}: [slo-catalog] SLO spec watches "
                        f"\"{name}\", which is not documented in "
                        f"{METRIC_CATALOG} — the alert can never fire"
                    )


def _cxxscan():
    """The analyzers' scanning core (tools/cxxscan): lint reads members and
    registries through it, so lint and the analyzers agree byte for byte on
    what a member id is and what a registry line says."""
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    try:
        import cxxscan
    finally:
        sys.path.pop(0)
    return cxxscan


LOCK_HIERARCHY = "tools/lock_hierarchy.txt"


def check_lock_hierarchy(violations: list[str]) -> None:
    """Mutex members in src/ and tools/lock_hierarchy.txt must match 1:1."""
    cxxscan = _cxxscan()
    ranks = cxxscan.load_registry(str(REPO / LOCK_HIERARCHY), "rank",
                                  "lock id")
    mutexes: dict[str, tuple[str, int]] = {}
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith("src/"):
            continue
        text = cxxscan.strip_comments(
            path.read_text(encoding="utf-8", errors="replace"))
        for cls, member, _kind, line in cxxscan.harvest_mutexes(text):
            mutexes.setdefault(f"{cxxscan.subsys_of(rel)}.{cls}.{member}",
                               (rel, line))
    for lock_id, (rel, line) in sorted(mutexes.items()):
        if lock_id not in ranks:
            violations.append(
                f"{rel}:{line}: [lock-rank] mutex member "
                f"\"{lock_id}\" has no rank in {LOCK_HIERARCHY} — run "
                "`tools/conc_check.py --edges src` to place it, then "
                f"add a `<rank> {lock_id}` line"
            )
    for lock_id in sorted(ranks):
        if lock_id not in mutexes:
            violations.append(
                f"{LOCK_HIERARCHY}: [lock-rank-stale] entry \"{lock_id}\" "
                "matches no util::Mutex / util::RecursiveMutex member in "
                "src/ — remove the line or restore the member"
            )


CAPACITY_BOUNDS = "tools/capacity_bounds.txt"


def check_capacity_registry(violations: list[str]) -> None:
    """GLOBE_BOUNDED members and tools/capacity_bounds.txt must match 1:1."""
    cxxscan = _cxxscan()
    caps = cxxscan.load_registry(str(REPO / CAPACITY_BOUNDS), "capacity",
                                 "member", minimum=0)
    bounded: dict[str, tuple[str, int]] = {}
    for path in iter_sources():
        rel = relpath(path)
        if not rel.startswith("src/"):
            continue
        prog = cxxscan.Program()
        text = cxxscan.strip_comments(
            path.read_text(encoding="utf-8", errors="replace"))
        cxxscan.harvest_fields(text, rel, prog)
        for cls, members in prog.field_info.items():
            for member, info in members.items():
                if info["bounded"]:
                    mid = f"{cxxscan.subsys_of(rel)}.{cls}.{member}"
                    bounded[mid] = (rel, info["line"])
    for mid, (rel, line) in sorted(bounded.items()):
        if mid not in caps:
            violations.append(
                f"{rel}:{line}: [capacity-rank] GLOBE_BOUNDED member "
                f"\"{mid}\" has no entry in {CAPACITY_BOUNDS} — add a "
                f"`<capacity> {mid}` line (capacity 0 = grows only during "
                "trusted configuration)"
            )
    for mid in sorted(caps):
        if mid not in bounded:
            violations.append(
                f"{CAPACITY_BOUNDS}: [capacity-stale] entry \"{mid}\" "
                "matches no GLOBE_BOUNDED member in src/ — remove the line "
                "or restore the annotation"
            )


def run_lint() -> int:
    violations: list[str] = []
    for path in iter_sources():
        check_file(path, violations)
    check_allowlists(violations)
    check_metric_catalog(violations)
    check_probe_catalog(violations)
    check_slo_catalog(violations)
    check_lock_hierarchy(violations)
    check_capacity_registry(violations)
    for v in violations:
        print(v)
    if violations:
        print(f"\ntools/lint.py: {len(violations)} violation(s) found.")
        return 1
    print("tools/lint.py: clean.")
    return 0


# ---------------------------------------------------------------------------
# Self-test: every check must fire on a seeded violation and stay quiet on a
# clean equivalent.
# ---------------------------------------------------------------------------

SELF_TEST_CASES = [
    # (name, file-relative-path, snippet, expected-tag or None)
    ("rand fires", "src/util/seeded.cpp", "  int x = rand();\n", "no-rand"),
    ("std::rand fires", "src/util/seeded.cpp", "  int x = std::rand();\n", "no-rand"),
    ("srand fires", "src/util/seeded.cpp", "  srand(42);\n", "no-rand"),
    ("drbg clean", "src/util/seeded.cpp", "  auto x = rng.bytes(16);\n", None),
    ("rand in comment clean", "src/util/seeded.cpp", "  // rand() is banned\n", None),
    ("rand in string clean", "src/util/seeded.cpp", '  log("call rand()");\n', None),
    (
        "raw sha1 outside crypto fires",
        "src/globedoc/proxy.cpp",
        "  auto d = crypto::Sha1::digest_bytes(body);\n",
        "raw-crypto",
    ),
    (
        "raw rsa outside crypto fires",
        "src/location/tree.cpp",
        "  auto sig = crypto::rsa_sign_sha256(key, body);\n",
        "raw-crypto",
    ),
    (
        "raw rsa at designated site clean",
        "src/globedoc/integrity.cpp",
        "  auto sig = crypto::rsa_sign_sha1(key, body);\n",
        None,
    ),
    # The self-test allowlist (see run_self_test) designates exactly one
    # site: src/globedoc/integrity.cpp.
    (
        "allowlisted site without raw call fires",
        "src/globedoc/integrity.cpp",
        "  if (!cert.verify_signature(key)) return bad();\n",
        "raw-crypto-stale",
    ),
    (
        "allowlisted site with commented-out raw call fires",
        "src/globedoc/integrity.cpp",
        "  // auto sig = crypto::rsa_sign_sha1(key, body);\n",
        "raw-crypto-stale",
    ),
    (
        "raw sha1 in test clean",
        "tests/crypto/sha1_test.cpp",
        "  auto d = crypto::Sha1::digest_bytes(body);\n",
        None,
    ),
    # run_self_test seeds src/net/tcp.cpp, the one RAW_SOCKET_ALLOWED file,
    # with a raw call unless the case under test owns that path.
    (
        "raw send outside the transport fires",
        "src/http/client.cpp",
        "  ssize_t r = ::send(fd, buf, n, MSG_NOSIGNAL);\n",
        "raw-socket",
    ),
    (
        "raw writev outside the transport fires",
        "src/globedoc/proxy_http.cpp",
        "  if (::writev(fd, iov, 2) < 0) return false;\n",
        "raw-socket",
    ),
    (
        "raw sendmsg in the transport clean",
        "src/net/tcp.cpp",
        "  ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);\n",
        None,
    ),
    (
        "transport without raw call fires",
        "src/net/tcp.cpp",
        "  auto r = transport.call(ep, request);\n",
        "raw-socket-stale",
    ),
    (
        "member write clean",
        "src/util/log.cpp",
        "  out.write(buf, n);\n  std::ostream::write(buf, n);\n",
        None,
    ),
    (
        "raw recv in test clean",
        "tests/net/tcp_test.cpp",
        "  ssize_t r = ::recv(fd, buf, n, 0);\n",
        None,
    ),
    (
        "dropped verify fires",
        "src/globedoc/proxy.cpp",
        "  cert.verify_signature(key);\n",
        "unchecked",
    ),
    (
        "dropped check_element fires",
        "src/replication/refresher.cpp",
        "  certificate->check_element(name, el, now);\n",
        "unchecked",
    ),
    (
        "branched verify clean",
        "src/globedoc/proxy.cpp",
        "  if (!cert.verify_signature(key)) return bad();\n",
        None,
    ),
    (
        "assigned verify clean",
        "src/globedoc/proxy.cpp",
        "  bool ok = cert.verify_signature(key);\n",
        None,
    ),
    (
        "void-cast verify clean",
        "src/globedoc/proxy.cpp",
        "  (void)cert.verify_signature(key);  // fuzz: only parsing matters\n",
        None,
    ),
    (
        "unannotated verify decl fires",
        "src/globedoc/integrity.hpp",
        "  bool verify_signature(const crypto::RsaPublicKey& key) const;\n",
        "nodiscard",
    ),
    (
        "annotated verify decl clean",
        "src/globedoc/integrity.hpp",
        "  [[nodiscard]] bool verify_signature(const crypto::RsaPublicKey& k) const;\n",
        None,
    ),
    (
        "status-returning check decl fires without attribute",
        "src/globedoc/integrity.hpp",
        "  util::Status check_element(const std::string& n) const;\n",
        "nodiscard",
    ),
    # The self-test catalog (see run_self_test) documents exactly one
    # series: `proxy.fetches`.
    (
        "uncataloged metric fires",
        "src/obs/usage.cpp",
        '  registry.counter("proxy.surprise_total").inc();\n',
        "metric-catalog",
    ),
    (
        "uncataloged bench gauge fires",
        "bench/bench_fig9.cpp",
        '  registry.gauge("fig9.mystery_ns", cell).set(1.0);\n',
        "metric-catalog",
    ),
    (
        "cataloged metric clean",
        "src/obs/usage.cpp",
        '  registry.counter("proxy.fetches", {{"outcome", "ok"}}).inc();\n',
        None,
    ),
    (
        "metric in comment clean",
        "src/obs/usage.cpp",
        '  // registry.counter("proxy.surprise_total") would be flagged\n',
        None,
    ),
    # The self-test catalog documents exactly one probe label: `rsa_verify`.
    (
        "uncataloged probe label fires",
        "src/crypto/rsa.cpp",
        '  GLOBE_PROFILE_SCOPE("rsa_surprise");\n',
        "probe-catalog",
    ),
    (
        "cataloged probe label clean",
        "src/crypto/rsa.cpp",
        '  GLOBE_PROFILE_SCOPE("rsa_verify");\n',
        None,
    ),
    (
        "probe in comment clean",
        "src/crypto/rsa.cpp",
        '  // GLOBE_PROFILE_SCOPE("rsa_surprise") would be flagged\n',
        None,
    ),
    (
        "probe outside src clean",
        "bench/bench_fig4_security_overhead.cpp",
        '  GLOBE_PROFILE_SCOPE("bench_only_frame");\n',
        None,
    ),
    (
        "slo spec on uncataloged metric fires",
        "src/obs/slo_setup.cpp",
        '  spec.metric = "proxy.fetchez";\n',
        "slo-catalog",
    ),
    (
        "slo spec in example on uncataloged metric fires",
        "examples/telemetry_demo.cpp",
        '  latency.metric = "proxy.fetch_millis";\n',
        "slo-catalog",
    ),
    (
        "slo spec on cataloged metric clean",
        "src/obs/slo_setup.cpp",
        '  spec.metric = "proxy.fetches";\n',
        None,
    ),
    (
        "slo metric in comment clean",
        "src/obs/slo_setup.cpp",
        '  // spec.metric = "proxy.fetchez" would be flagged\n',
        None,
    ),
    # The self-test hierarchy (see run_self_test) ranks exactly one lock:
    # `util.Ranked.mu_`.
    (
        "unranked mutex member fires",
        "src/util/widget.hpp",
        "class Widget {\n  mutable util::Mutex mu_;\n};\n",
        "lock-rank",
    ),
    (
        "unranked recursive mutex fires",
        "src/cache/widget.hpp",
        "class Widget {\n  util::RecursiveMutex mu_;\n};\n",
        "lock-rank",
    ),
    (
        "ranked mutex member clean",
        "src/util/ranked.hpp",
        "class Ranked {\n  mutable util::Mutex mu_;\n};\n",
        None,
    ),
    (
        "mutex outside src clean",
        "tests/util/widget_test.cpp",
        "class Widget {\n  util::Mutex mu_;\n};\n",
        None,
    ),
    (
        "mutex in comment clean",
        "src/util/widget.hpp",
        "class Widget {\n  // util::Mutex mu_; (gone since PR 3)\n};\n",
        None,
    ),
    (
        "stale lock rank fires",
        "tools/lock_hierarchy.txt",
        "10 util.Ranked.mu_  # self-test seed\n"
        "20 util.Gone.mu_  # member deleted long ago\n",
        "lock-rank-stale",
    ),
    (
        "rank of a renamed mutex fires",
        "tools/lock_hierarchy.txt",
        "10 util.Ranked.mutex_  # the member is mu_ now\n",
        "lock-rank-stale",
    ),
    (
        "live lock ranks clean",
        "tools/lock_hierarchy.txt",
        "10 util.Ranked.mu_  # self-test seed\n",
        None,
    ),
    (
        "unranked bounded member fires",
        "src/cache/pool.hpp",
        "class Pool {\n  std::vector<int> items_ GLOBE_BOUNDED;\n};\n",
        "capacity-rank",
    ),
    (
        "ranked bounded member clean",
        "src/util/registered.hpp",
        "class Registered {\n  std::deque<int> ring_ GLOBE_BOUNDED;\n};\n",
        None,
    ),
    (
        "stale registry entry fires",
        "tools/capacity_bounds.txt",
        "64 util.Registered.ring_  # self-test seed\n"
        "32 util.Ghost.ring_  # member deleted long ago\n",
        "capacity-stale",
    ),
    (
        "unannotated container member clean",
        "src/cache/plain.hpp",
        "class Plain {\n  std::vector<int> items_;\n};\n",
        None,
    ),
    (
        "bounded member outside src clean",
        "tests/cache/pool_test.cpp",
        "class Pool {\n  std::vector<int> items_ GLOBE_BOUNDED;\n};\n",
        None,
    ),
]


def run_self_test() -> int:
    import tempfile

    failures = 0
    for name, rel, snippet, expected in SELF_TEST_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            root = pathlib.Path(tmp)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(snippet)
            # Minimal catalog so metric-catalog cases can distinguish a
            # documented series from an undocumented one.
            catalog = root / METRIC_CATALOG
            catalog.parent.mkdir(parents=True, exist_ok=True)
            catalog.write_text(
                "# Metric catalog\n\n`proxy.fetches`\n`rsa_verify`\n")
            # Minimal lock hierarchy + the mutex member it ranks, so lock-rank
            # cases can distinguish ranked from unranked and live from stale
            # (skipped when the case under test owns these paths).
            hierarchy = root / LOCK_HIERARCHY
            hierarchy.parent.mkdir(parents=True, exist_ok=True)
            if not hierarchy.exists():
                hierarchy.write_text("10 util.Ranked.mu_  # self-test seed\n")
            seedmutex = root / "src/util/ranked.hpp"
            if not seedmutex.exists():
                seedmutex.parent.mkdir(parents=True, exist_ok=True)
                seedmutex.write_text(
                    "class Ranked {\n  mutable util::Mutex mu_;\n};\n")
            # Minimal capacity registry + a matching GLOBE_BOUNDED member so
            # capacity cases can distinguish ranked from unranked and live
            # from stale (skipped when the case under test owns these paths).
            capfile = root / CAPACITY_BOUNDS
            if not capfile.exists():
                capfile.write_text("64 util.Registered.ring_  # self-test seed\n")
            # Minimal raw-socket allowlist with a live designated file.
            seedsocket = root / "src/net/tcp.cpp"
            if not seedsocket.exists():
                seedsocket.parent.mkdir(parents=True, exist_ok=True)
                seedsocket.write_text("  ssize_t r = ::recv(fd, buf, n, 0);\n")
            # Minimal raw-crypto allowlist with a live designated site.
            seedsite = root / "src/globedoc/integrity.cpp"
            if not seedsite.exists():
                seedsite.parent.mkdir(parents=True, exist_ok=True)
                seedsite.write_text(
                    "  auto sig = crypto::rsa_sign_sha1(key, body);\n")
            seedmember = root / "src/util/registered.hpp"
            if not seedmember.exists():
                seedmember.parent.mkdir(parents=True, exist_ok=True)
                seedmember.write_text(
                    "class Registered {\n"
                    "  std::deque<int> ring_ GLOBE_BOUNDED;\n"
                    "};\n")
            violations: list[str] = []
            global REPO, RAW_CRYPTO_ALLOWED
            saved_repo, saved_allowed = REPO, RAW_CRYPTO_ALLOWED
            try:
                REPO = root
                RAW_CRYPTO_ALLOWED = {"src/globedoc/integrity.cpp"}
                check_file(target, violations)
                check_allowlists(violations)
                check_metric_catalog(violations)
                check_probe_catalog(violations)
                check_slo_catalog(violations)
                check_lock_hierarchy(violations)
                check_capacity_registry(violations)
            finally:
                REPO, RAW_CRYPTO_ALLOWED = saved_repo, saved_allowed
            tags = {re.search(r"\[([\w-]+)\]", v).group(1) for v in violations}
            if expected is None:
                ok = not violations
                detail = f"unexpected: {violations}" if not ok else ""
            else:
                ok = expected in tags
                detail = f"expected [{expected}], got {sorted(tags) or 'nothing'}"
            print(f"  {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if not ok else ""))
            failures += 0 if ok else 1
    if failures:
        print(f"tools/lint.py --self-test: {failures} case(s) FAILED.")
        return 1
    print(f"tools/lint.py --self-test: all {len(SELF_TEST_CASES)} cases passed.")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify each check fires on seeded violations")
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint()


if __name__ == "__main__":
    sys.exit(main())
