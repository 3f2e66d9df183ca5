#!/usr/bin/env python3
"""Docs link/path checker.

Verifies that the documentation does not rot against the tree:

1. every relative markdown link ``[text](path)`` in ``docs/*.md``,
   ``README.md`` and the other root-level docs resolves to a file or
   directory that exists (anchors and external URLs are skipped);
2. every backticked repo path mentioned in those files — a token
   like ``src/stream/chunk_stream.cpp`` or ``docs/RESILIENCE.md``
   with a known source/doc extension — exists;
3. every backticked program under ``bench/``, ``tools/`` or
   ``examples/`` — a token without an extension, like
   ``bench/design_grid`` — names an existing directory or a
   ``.cpp``, ``.py`` or ``.sh`` file of that name.

Generated artifacts (build outputs, files the reader creates by
following instructions) are excluded via ALLOW_MISSING globs.

Usage: tools/check_docs.py [--repo ROOT] [--self-test]
Exit code 0 = all references resolve, 1 = at least one is broken.
"""

import argparse
import fnmatch
import pathlib
import re
import sys
import tempfile

DOC_GLOBS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/*.md",
]

# Backticked tokens with these extensions are treated as repo paths.
PATH_EXTENSIONS = (
    ".cpp", ".h", ".py", ".sh", ".md", ".txt", ".json", ".yml",
    ".cmake", ".epcv", ".ply",
)

# Extensionless backticked tokens under these directories name
# programs, built from a source file with one of these extensions.
PROGRAM_DIRS = ("bench/", "tools/", "examples/")
PROGRAM_EXTENSIONS = (".cpp", ".py", ".sh")

# Paths the docs legitimately mention but that are not in the tree:
# build outputs, files created by following the instructions, and
# illustrative placeholders.
ALLOW_MISSING = [
    "build/*",
    "/tmp/*",
    "*BENCH_results.json",
    "baseline.json",
    "results.json",
    "new.json",
    "old.json",
    "trace.json",
    "*.epcv",   # written by the CLI examples
    "*.ply",    # dataset stand-ins downloaded/generated by the user
    "compile_commands.json",
    # External exemplar repos cited by ROADMAP.md, not in this tree.
    "luuvish__arrow-h264/*",
]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK_RE = re.compile(r"`([^`\s]+)`")


def is_allowed_missing(path_str):
    return any(
        fnmatch.fnmatch(path_str, pattern)
        for pattern in ALLOW_MISSING
    )


def strip_token(token):
    """Normalizes a backticked token to a candidate repo path."""
    token = token.strip().rstrip(".,;:")
    # `path:line` references and trailing globs.
    token = re.sub(r":\d+$", "", token)
    # Strip leading "./" but keep dotted directories (.github/...).
    while token.startswith("./"):
        token = token[2:]
    return token


def program_exists(repo, token):
    """True when `token` is a directory or a program's source."""
    path = repo / token
    return path.is_dir() or any(
        path.with_name(path.name + ext).is_file()
        for ext in PROGRAM_EXTENSIONS)


def check_file(doc, repo):
    """Returns a list of (line_number, problem) for one doc."""
    problems = []
    rel_doc = doc.relative_to(repo)
    for lineno, line in enumerate(
        doc.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "#",
                                  "mailto:")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                problems.append(
                    (lineno,
                     f"broken link ({target})"))
        for match in BACKTICK_RE.finditer(line):
            token = strip_token(match.group(1))
            if "*" in token or "$" in token or "{" in token:
                continue  # glob or placeholder
            if (token.startswith(PROGRAM_DIRS)
                    and not pathlib.PurePosixPath(token).suffix):
                if not program_exists(repo, token):
                    problems.append(
                        (lineno, f"missing program `{token}`"))
                continue
            if not token.endswith(PATH_EXTENSIONS):
                continue
            if "/" not in token:
                # Bare file names (`quickstart`, `results.json`)
                # are usually illustrative, not tree paths.
                continue
            if is_allowed_missing(token):
                continue
            # Headers are cited include-style (`edgepcc/...` or
            # `stream/...`), so try the include roots as well as
            # the repo root.
            roots = (repo, repo / "include",
                     repo / "include" / "edgepcc", repo / "src")
            if not any((root / token).exists()
                       for root in roots):
                problems.append(
                    (lineno,
                     f"missing path `{token}`"))
    return [(rel_doc, lineno, problem)
            for lineno, problem in problems]


def self_test():
    """Checks the program rule on a scratch tree: the first line's
    programs exist, each one on the second line is missing."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = pathlib.Path(tmp)
        for name in ("bench/grid.cpp", "tools/gate.py",
                     "examples/demo.sh"):
            (repo / name).parent.mkdir(parents=True, exist_ok=True)
            (repo / name).write_text("")
        doc = repo / "README.md"
        doc.write_text(
            "`bench/grid` `tools/gate` `examples/demo` `bench/`\n"
            "`bench/gone` `tools/grid` `examples/demo2`\n")
        found = [(line, problem)
                 for _, line, problem in check_file(doc, repo)]
    expected = [(2, f"missing program `{name}`")
                for name in ("bench/gone", "tools/grid",
                             "examples/demo2")]
    if found != expected:
        print(f"check_docs self-test: got {found}, want {expected}",
              file=sys.stderr)
        return 1
    print("check_docs self-test: OK")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo", default=None,
        help="repository root (default: parent of this script)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="check the program rule on a scratch tree and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()

    repo = (pathlib.Path(args.repo).resolve()
            if args.repo
            else pathlib.Path(__file__).resolve().parent.parent)

    docs = []
    for pattern in DOC_GLOBS:
        docs.extend(sorted(repo.glob(pattern)))
    if not docs:
        print("check_docs: no documentation files found",
              file=sys.stderr)
        return 1

    problems = []
    for doc in docs:
        problems.extend(check_file(doc, repo))

    for rel_doc, lineno, problem in problems:
        print(f"{rel_doc}:{lineno}: {problem}")
    checked = ", ".join(str(d.relative_to(repo)) for d in docs)
    if problems:
        print(f"check_docs: {len(problems)} broken reference(s) "
              f"across {len(docs)} files ({checked})",
              file=sys.stderr)
        return 1
    print(f"check_docs: OK ({len(docs)} files: {checked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
