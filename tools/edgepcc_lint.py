#!/usr/bin/env python3
"""EdgePCC project-invariant checker.

Enforces repository conventions that neither the compiler nor
clang-tidy can express, using regex and light brace matching (no
libclang dependency, so it runs anywhere Python does):

  return-status    public decode*/encode*/parse* entry points return
                   Status or Expected, and no call to one is
                   discarded as a bare statement; boolean safety
                   gates in MUST_USE_NAMES (circuit-breaker
                   allowRequest) are held to the same no-discard
                   rule
  decoder-check    decoder/parser entry points validate input with
                   the EDGEPCC_CHECK macro family or an explicit
                   corruptBitstream/invalidArgument early return
                   (the contract in docs/HARDENING.md)
  naked-alloc      no naked `new` / `malloc` outside src/platform/
                   and test code (codec code uses containers; the
                   only raw allocations live behind the platform
                   arena)
  trace-span       every .cpp in the hot-path directories (octree/,
                   morton/, attr/, interframe/, entropy/, stream/,
                   serve/) opens
                   at least one codec stage (ScopedStage, which
                   also records its trace span) or trace span
                   (ScopedTrace) so profiles stay complete
  hot-memcpy       no naked `memcpy` in hot-path .cpp files: bulk
                   byte movement there goes through the span-based
                   framing APIs or the SIMD-dispatched kernels
                   (docs/PERFORMANCE.md); the ratchet baseline
                   carries the blessed lane-load idioms
  include-hygiene  public headers that name a pinned std:: symbol
                   include the owning standard header directly
                   (transitive includes rot; see the SYMBOL_HEADERS
                   table)

Findings already recorded in tools/edgepcc_lint_baseline.json are
ratcheted: they do not fail the build, but new ones do. Fix new
findings, or — for deliberate exceptions — suppress a single line
with a trailing or preceding comment:

    // edgepcc-lint: allow(<rule>)

Suppressions are forbidden in src|include paths under parallel/,
common/ and stream/ sync-sensitive code per docs/STATIC_ANALYSIS.md;
CI greps for them.

Usage:
  python3 tools/edgepcc_lint.py                # lint the repo
  python3 tools/edgepcc_lint.py --json         # machine-readable
  python3 tools/edgepcc_lint.py --update-baseline
  python3 tools/edgepcc_lint.py --self-test    # run built-in cases

Exit codes: 0 clean (or baseline-covered), 1 new findings,
2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, asdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "edgepcc_lint_baseline.json")

HOT_PATH_DIRS = ("octree", "morton", "attr", "interframe", "entropy",
                 "stream", "serve")

# Directories whose code is linted at all (repo-relative).
LINT_ROOTS = ("include", "src", "tools", "tests", "bench", "examples", "fuzz")

# naked-alloc exemptions: the platform arena owns raw allocation, and
# test/bench/tool code may allocate to exercise failure paths.
ALLOC_EXEMPT_PREFIXES = (
    "src/platform/",
    "include/edgepcc/platform/",
    "tests/",
    "bench/",
    "tools/",
    "fuzz/",
    "examples/",
)

# include-hygiene: pinned std:: symbol -> owning header. Deliberately
# short and unambiguous; symbols like std::size_t that several
# headers provide are excluded.
SYMBOL_HEADERS = {
    "std::string": "<string>",
    "std::vector": "<vector>",
    "std::map": "<map>",
    "std::unordered_map": "<unordered_map>",
    "std::deque": "<deque>",
    "std::optional": "<optional>",
    "std::function": "<functional>",
    "std::atomic": "<atomic>",
    "std::thread": "<thread>",
    "std::mutex": "<mutex>",
    "std::condition_variable": "<condition_variable>",
    "std::condition_variable_any": "<condition_variable>",
    "std::uint8_t": "<cstdint>",
    "std::uint16_t": "<cstdint>",
    "std::uint32_t": "<cstdint>",
    "std::uint64_t": "<cstdint>",
    "std::int32_t": "<cstdint>",
    "std::int64_t": "<cstdint>",
}

# return-status: safety-gate calls whose boolean result MUST drive a
# branch — discarding one silently bypasses the gate (a circuit
# breaker probed but never consulted). These are flagged as bare
# discarded statements even though they do not return Status.
MUST_USE_NAMES = ("allowRequest",)

SUPPRESS_RE = re.compile(r"//\s*edgepcc-lint:\s*allow\(([a-z-]+)\)")

RULES = (
    "return-status",
    "decoder-check",
    "naked-alloc",
    "trace-span",
    "hot-memcpy",
    "include-hygiene",
)


@dataclass
class Finding:
    rule: str
    path: str  # repo-relative, forward slashes
    line: int  # 1-based; 0 = whole file
    message: str
    # Line-independent identity so baselines survive unrelated edits.
    fingerprint: str


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line
    structure so line numbers stay valid."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append(
                "".join("\n" if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def suppressed_lines(raw_lines: list[str], rule: str) -> set[int]:
    """1-based line numbers covered by an allow(<rule>) comment on
    the same or the preceding line."""
    covered: set[int] = set()
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if m and m.group(1) == rule:
            covered.add(idx)
            covered.add(idx + 1)
    return covered


ENTRY_NAME_RE = re.compile(r"\b((?:decode|encode|parse)[A-Za-z0-9_]*)\s*\(")


def find_function_defs(clean: str):
    """Yields (name, def_line, body) for free/method definitions whose
    name matches the entry-point pattern. Light brace matching; good
    enough for this codebase's formatting."""
    for m in ENTRY_NAME_RE.finditer(clean):
        name = m.group(1)
        # Find the matching ')' of the parameter list, then require
        # '{' (a definition) rather than ';' (a declaration/call).
        depth = 0
        i = m.end() - 1
        n = len(clean)
        while i < n:
            if clean[i] == "(":
                depth += 1
            elif clean[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i >= n:
            continue
        j = i + 1
        while j < n and clean[j] in " \t\r\n":
            j += 1
        # Skip trailing qualifiers (const, noexcept, attributes).
        qual = re.match(
            r"(?:const|noexcept|override|final|\s|EDGEPCC_\w+\([^)]*\)|"
            r"EDGEPCC_\w+)*", clean[j:])
        j += qual.end() if qual else 0
        if j >= n or clean[j] != "{":
            continue
        # Only treat it as a *definition* if the token before the
        # name is not '.', '->', or an identifier char (call sites).
        k = m.start() - 1
        while k >= 0 and clean[k] in " \t":
            k -= 1
        if k >= 0 and (clean[k].isalnum() or clean[k] in "._>&"):
            # "x.decodeFoo(" or "->decodeFoo(" → call, not def.
            # "&decodeFoo(" never a def either.
            if not (clean[k] == ":" or clean[k] == "\n"):
                continue
        depth = 0
        end = j
        while end < n:
            if clean[end] == "{":
                depth += 1
            elif clean[end] == "}":
                depth -= 1
                if depth == 0:
                    break
            end += 1
        def_line = clean.count("\n", 0, m.start()) + 1
        yield name, def_line, clean[j:end + 1], clean[:m.start()]


def def_returns_status(before: str) -> bool:
    """True if the text leading up to a definition names Status or
    Expected as the return type (same line or the line above)."""
    tail = before.rsplit("\n", 2)
    context = " ".join(tail[-2:]) if len(tail) >= 2 else before
    return bool(re.search(r"\b(Status|Expected)\b", context))


def collect_known_returns(files: dict[str, str]) -> dict[str, set[bool]]:
    """Maps every entry-point-named definition in `files` to the set
    of observed returns-Status booleans (names collide across
    classes, so a set)."""
    known: dict[str, set[bool]] = {}
    for text in files.values():
        clean = strip_comments_and_strings(text)
        for name, _line, _body, before in find_function_defs(clean):
            known.setdefault(name, set()).add(def_returns_status(before))
    return known


def rule_return_status(path, raw, clean, raw_lines, known_returns):
    """Entry points return Status/Expected; no discarded bare calls."""
    findings = []
    # Definition check: library code only. Test/bench helpers named
    # decode*/encode* are not public entry points.
    if path.startswith(("src/", "include/")):
        for name, line, _body, before in find_function_defs(clean):
            if def_returns_status(before):
                continue
            findings.append(Finding(
                "return-status", path, line,
                f"{name}() is a decode/encode/parse entry point but "
                "does not return Status or Expected",
                f"{path}:return-status:{name}"))
    # Discarded bare calls: a whole statement that is just a call to
    # an entry-point-named function. Skip continuation lines (the
    # previous statement has not ended) and calls whose definitions
    # are all known to return something other than Status/Expected.
    lines = clean.splitlines()
    prev_tail = ""  # last non-blank character seen before this line
    for idx, line_text in enumerate(lines, start=1):
        at_stmt_start = prev_tail in ("", ";", "{", "}", ":")
        stripped = line_text.rstrip()
        if stripped:
            prev_tail = stripped[-1]
        if not at_stmt_start:
            continue
        must_use = "|".join(re.escape(n) for n in MUST_USE_NAMES)
        m = re.match(
            r"^\s*(?:[A-Za-z_]\w*(?:\.|->))?"
            r"((?:decode|encode|parse)[A-Za-z0-9_]*|" + must_use +
            r")\s*\(.*\)\s*;\s*$",
            line_text)
        if not m:
            continue
        if line_text.count("(") != line_text.count(")"):
            continue
        returns = known_returns.get(m.group(1))
        if m.group(1) not in MUST_USE_NAMES and \
                returns is not None and True not in returns:
            continue  # returns void/value everywhere it is defined
        findings.append(Finding(
            "return-status", path, idx,
            f"result of {m.group(1)}() is discarded",
            f"{path}:return-status:discard:{m.group(1)}"))
    return findings


def rule_decoder_check(path, raw, clean, raw_lines):
    """Decoder/parser entry points uphold the docs/HARDENING.md
    contract: validate input via EDGEPCC_CHECK* or an explicit
    corrupt/invalid early return."""
    if not path.endswith(".cpp") or not path.startswith("src/"):
        return []
    findings = []
    for name, line, body, _before in find_function_defs(clean):
        if not name.startswith(("decode", "parse")):
            continue
        if re.search(
                r"EDGEPCC_CHECK|corruptBitstream|invalidArgument|"
                r"EDGEPCC_RETURN_IF_ERROR", body):
            continue
        # Thin wrappers that immediately delegate to another checked
        # entry point satisfy the contract transitively.
        if re.search(r"\breturn\s+\w*(decode|parse)", body,
                     re.IGNORECASE):
            continue
        findings.append(Finding(
            "decoder-check", path, line,
            f"{name}() decodes untrusted input without an "
            "EDGEPCC_CHECK/corruptBitstream validation "
            "(docs/HARDENING.md contract)",
            f"{path}:decoder-check:{name}"))
    return findings


def rule_naked_alloc(path, raw, clean, raw_lines):
    if not path.startswith(("src/", "include/")):
        return []
    if path.startswith(ALLOC_EXEMPT_PREFIXES):
        return []
    findings = []
    for idx, line_text in enumerate(clean.splitlines(), start=1):
        if re.match(r"\s*#\s*include", line_text):
            continue
        if re.search(r"\bnew\b", line_text) and \
                not re.search(r"\boperator\b", line_text):
            findings.append(Finding(
                "naked-alloc", path, idx,
                "naked `new` outside platform/ (use containers or "
                "the platform arena)",
                f"{path}:naked-alloc:new:{idx}"))
        if re.search(r"\bmalloc\s*\(", line_text):
            findings.append(Finding(
                "naked-alloc", path, idx,
                "naked `malloc` outside platform/",
                f"{path}:naked-alloc:malloc:{idx}"))
    return findings


def rule_trace_span(path, raw, clean, raw_lines):
    m = re.match(r"src/([a-z_]+)/[^/]+\.cpp$", path)
    if not m or m.group(1) not in HOT_PATH_DIRS:
        return []
    if re.search(r"\bScopedTrace\b|\bScopedStage\b", clean):
        return []
    return [Finding(
        "trace-span", path, 0,
        "hot-path translation unit opens no stage (ScopedStage) "
        "or trace span (ScopedTrace); "
        "profiles of this stage will be blind",
        f"{path}:trace-span")]


def rule_hot_memcpy(path, raw, clean, raw_lines):
    m = re.match(r"src/([a-z_]+)/[^/]+\.cpp$", path)
    if not m or m.group(1) not in HOT_PATH_DIRS:
        return []
    findings = []
    for idx, line_text in enumerate(clean.splitlines(), start=1):
        if re.match(r"\s*#\s*include", line_text):
            continue
        if re.search(r"\bmemcpy\s*\(", line_text):
            findings.append(Finding(
                "hot-memcpy", path, idx,
                "naked `memcpy` in a hot-path kernel (move bytes "
                "through the span-based framing APIs or the "
                "dispatched SIMD kernels; see docs/PERFORMANCE.md)",
                f"{path}:hot-memcpy:{idx}"))
    return findings


def rule_include_hygiene(path, raw, clean, raw_lines):
    if not (path.startswith("include/") and path.endswith(".h")):
        return []
    included = set(re.findall(r'#\s*include\s*(<[^>]+>|"[^"]+")', raw))
    findings = []
    reported = set()
    for symbol, header in SYMBOL_HEADERS.items():
        if header in reported:
            continue
        if not re.search(re.escape(symbol) + r"\b", clean):
            continue
        if header in included:
            continue
        first = 0
        sym_re = re.compile(re.escape(symbol) + r"\b")
        for idx, line_text in enumerate(clean.splitlines(), start=1):
            if sym_re.search(line_text):
                first = idx
                break
        reported.add(header)
        findings.append(Finding(
            "include-hygiene", path, first,
            f"uses {symbol} but does not include {header} directly",
            f"{path}:include-hygiene:{header}"))
    return findings


RULE_FUNCS = {
    "return-status": rule_return_status,
    "decoder-check": rule_decoder_check,
    "naked-alloc": rule_naked_alloc,
    "trace-span": rule_trace_span,
    "hot-memcpy": rule_hot_memcpy,
    "include-hygiene": rule_include_hygiene,
}


def lint_file(repo_rel: str, text: str,
              known_returns: dict[str, set[bool]] | None = None
              ) -> list[Finding]:
    if known_returns is None:
        known_returns = collect_known_returns({repo_rel: text})
    raw_lines = text.splitlines()
    clean = strip_comments_and_strings(text)
    findings: list[Finding] = []
    for rule, func in RULE_FUNCS.items():
        covered = suppressed_lines(raw_lines, rule)
        if rule == "return-status":
            produced = func(repo_rel, text, clean, raw_lines,
                            known_returns)
        else:
            produced = func(repo_rel, text, clean, raw_lines)
        for f in produced:
            if f.line in covered:
                continue
            findings.append(f)
    return findings


def iter_source_files(root: str):
    for lint_root in LINT_ROOTS:
        base = os.path.join(root, lint_root)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".cc", ".hpp")):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def load_baseline(path: str) -> set[str]:
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    return set(data.get("fingerprints", []))


def save_baseline(path: str, findings: list[Finding]) -> None:
    data = {
        "comment": "Ratcheted edgepcc_lint findings. Entries here "
                   "pre-date the rule or are deliberate; do not add "
                   "to this file to silence new findings — fix them "
                   "or use a line suppression with justification.",
        "fingerprints": sorted({f.fingerprint for f in findings}),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------- self-test

SELF_TEST_CASES = [
    # (rule, path, source, expected_finding_count)
    ("return-status", "src/octree/bad_codec.cpp",
     "std::vector<int>\ndecodeThing(const Payload &p)\n{\n    return {};\n}\n",
     1),
    ("return-status", "src/octree/good_codec.cpp",
     "Expected<int>\ndecodeThing(const Payload &p)\n{\n"
     "    EDGEPCC_CHECK_CORRUPT(!p.empty(), \"empty\");\n    return 1;\n}\n",
     0),
    ("return-status", "src/core/discard.cpp",
     "void run(Codec &c)\n{\n    c.decodeFrame(payload);\n}\n",
     1),
    ("return-status", "src/core/used.cpp",
     "void run(Codec &c)\n{\n    auto r = c.decodeFrame(payload);\n"
     "    (void)r;\n}\n",
     0),
    ("decoder-check", "src/entropy/bad_parse.cpp",
     "Expected<Header>\nparseHeader(const Bytes &b)\n{\n"
     "    Header h;\n    h.depth = b[0];\n    return h;\n}\n",
     1),
    ("decoder-check", "src/entropy/good_parse.cpp",
     "Expected<Header>\nparseHeader(const Bytes &b)\n{\n"
     "    EDGEPCC_CHECK_CORRUPT(b.size() >= 4, \"short header\");\n"
     "    Header h;\n    return h;\n}\n",
     0),
    ("naked-alloc", "src/attr/bad_alloc.cpp",
     "void f()\n{\n    int *p = new int[32];\n"
     "    void *q = malloc(64);\n}\n",
     2),
    ("naked-alloc", "src/platform/arena.cpp",
     "void f()\n{\n    void *q = malloc(64);\n}\n",
     0),
    ("naked-alloc", "src/attr/commented.cpp",
     "void f()\n{\n    // a new approach, no malloc(here)\n}\n",
     0),
    ("trace-span", "src/morton/bad_unit.cpp",
     "void f()\n{\n}\n",
     1),
    ("trace-span", "src/morton/good_unit.cpp",
     "void f()\n{\n    ScopedTrace trace(\"morton.f\");\n}\n",
     0),
    ("trace-span", "src/platform/not_hot.cpp",
     "void f()\n{\n}\n",
     0),
    ("hot-memcpy", "src/stream/bad_copy.cpp",
     "void f(uint8_t *dst, const uint8_t *src)\n{\n"
     "    std::memcpy(dst, src, 64);\n}\n",
     1),
    ("hot-memcpy", "src/platform/allowed_copy.cpp",
     "void f(uint8_t *dst, const uint8_t *src)\n{\n"
     "    std::memcpy(dst, src, 64);\n}\n",
     0),
    ("hot-memcpy", "src/stream/commented_copy.cpp",
     "void f()\n{\n    // memcpy(would, be, bad)\n}\n",
     0),
    ("include-hygiene", "include/edgepcc/x/bad_header.h",
     "#include <cstdint>\nnamespace e {\nstd::vector<int> v();\n}\n",
     1),
    ("include-hygiene", "include/edgepcc/x/good_header.h",
     "#include <vector>\nnamespace e {\nstd::vector<int> v();\n}\n",
     0),
    ("return-status", "src/core/suppressed.cpp",
     "void run(Codec &c)\n{\n    // edgepcc-lint: allow(return-status)\n"
     "    c.decodeFrame(payload);\n}\n",
     0),
    # MUST_USE_NAMES: a circuit-breaker gate probed but never
    # consulted is flagged even though allowRequest returns bool.
    ("return-status", "src/serve/breaker_discard.cpp",
     "void run(CircuitBreaker &b)\n{\n    b.allowRequest(now_s);\n}\n",
     1),
    ("return-status", "src/serve/breaker_used.cpp",
     "void run(CircuitBreaker &b)\n{\n"
     "    if (!b.allowRequest(now_s))\n        return;\n}\n",
     0),
]


def run_self_test() -> int:
    failures = 0
    for rule, path, source, expected in SELF_TEST_CASES:
        found = [f for f in lint_file(path, source) if f.rule == rule]
        if len(found) != expected:
            failures += 1
            print(f"SELF-TEST FAIL [{rule}] {path}: expected "
                  f"{expected} finding(s), got {len(found)}:")
            for f in found:
                print(f"  {f.path}:{f.line}: {f.message}")
    total = len(SELF_TEST_CASES)
    if failures:
        print(f"self-test: {failures}/{total} cases failed")
        return 1
    print(f"self-test: all {total} cases passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="EdgePCC project-invariant checker")
    parser.add_argument("paths", nargs="*",
                        help="files to lint (default: whole repo)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--update-baseline", action="store_true")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every finding, ignore baseline")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    if args.paths:
        rel_paths = [
            os.path.relpath(os.path.abspath(p), REPO_ROOT)
            .replace(os.sep, "/")
            for p in args.paths
        ]
    else:
        rel_paths = list(iter_source_files(REPO_ROOT))

    texts: dict[str, str] = {}
    for rel in rel_paths:
        full = os.path.join(REPO_ROOT, rel)
        try:
            with open(full, encoding="utf-8", errors="replace") as f:
                texts[rel] = f.read()
        except OSError as exc:
            print(f"error: cannot read {rel}: {exc}", file=sys.stderr)
            return 2

    # Return types are resolved repo-wide so the discard check knows
    # which entry points actually produce a Status/Expected.
    known_returns = collect_known_returns(texts)
    findings: list[Finding] = []
    for rel, text in texts.items():
        findings.extend(lint_file(rel, text, known_returns))

    if args.update_baseline:
        save_baseline(args.baseline, findings)
        print(f"baseline updated: {len(findings)} finding(s) -> "
              f"{os.path.relpath(args.baseline, REPO_ROOT)}")
        return 0

    baseline = set() if args.no_baseline else load_baseline(args.baseline)
    new = [f for f in findings if f.fingerprint not in baseline]
    stale = baseline - {f.fingerprint for f in findings}

    if args.json:
        print(json.dumps({
            "new": [asdict(f) for f in new],
            "baselined": len(findings) - len(new),
            "stale_baseline_entries": sorted(stale),
        }, indent=2))
    else:
        for f in sorted(new, key=lambda f: (f.path, f.line)):
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        if stale:
            print(f"note: {len(stale)} baseline entr"
                  f"{'y is' if len(stale) == 1 else 'ies are'} stale "
                  "(fixed findings); run --update-baseline to shrink "
                  "the ratchet")
        covered = len(findings) - len(new)
        print(f"edgepcc_lint: {len(new)} new finding(s), "
              f"{covered} baseline-covered, "
              f"{len(rel_paths)} file(s) checked")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
