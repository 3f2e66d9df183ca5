#!/usr/bin/env python3
"""Diff two bench_runner documents: every deterministic leaf must match.

Usage:
    compare_bench.py OLD.json NEW.json
    compare_bench.py --self-test

Exit codes: 0 = the documents agree, 1 = they differ, 2 = usage or
schema error.

Each document is flattened to {path: leaf}: dict keys join with '.',
list items are keyed by their "name" (stages[geom.morton].model_s.p50).
Both documents must have the same paths. A leaf is host-timed when its
path contains "host", lies under "kernels." or is "workload.threads";
those are counted, not compared. Every other leaf is computed from
recorded work counts and the platform model (DESIGN.md section 2), so
it is exact across runs, runners, thread counts and SIMD levels, and
any difference fails, listed as "path: old -> new (relative change)".
docs/OBSERVABILITY.md describes the tier-1 pin against
results/bench/BENCH_*.json and when to commit a new one.
"""

import argparse
import copy
import json
import sys

SCHEMA = "edgepcc-bench-v1"


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        sys.exit(f"compare_bench: cannot read {path}: {err}")
    if doc.get("schema") != SCHEMA:
        sys.exit(
            f"compare_bench: {path}: unsupported schema "
            f"{doc.get('schema')!r} (want {SCHEMA!r})"
        )
    return doc


def flatten(value, prefix="", out=None):
    """Returns {path: leaf} for a parsed JSON document."""
    out = {} if out is None else out
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(item, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            key = item.get("name", index) if isinstance(item, dict) else index
            flatten(item, f"{prefix}[{key}]", out)
    else:
        out[prefix] = value
    return out


def is_host_timed(path):
    return ("host" in path or path.startswith("kernels.")
            or path == "workload.threads")


def describe(path, old, new):
    text = f"{path}: {old!r} -> {new!r}"
    if not all(isinstance(v, (int, float)) for v in (old, new)):
        return text
    if old == 0:
        return f"{text} (from 0)"
    return f"{text} ({(new - old) / abs(old):+.3%})"


def compare(old, new):
    """Returns (differences, deterministic leaves, host-timed leaves)."""
    old_leaves, new_leaves = flatten(old), flatten(new)
    differences = [
        f"{path}: only in {side}"
        for side, mine, theirs in (("old", old_leaves, new_leaves),
                                   ("new", new_leaves, old_leaves))
        for path in sorted(mine.keys() - theirs.keys())
    ]
    shared = [path for path in old_leaves if path in new_leaves]
    host = [path for path in shared if is_host_timed(path)]
    differences += [
        describe(path, old_leaves[path], new_leaves[path])
        for path in shared
        if not is_host_timed(path) and old_leaves[path] != new_leaves[path]
    ]
    return differences, len(shared) - len(host), len(host)


def self_test():
    base = {
        "schema": SCHEMA,
        "workload": {"frames": 6, "threads": 3},
        "end_to_end": {
            "encode_host_s": {"p50": 0.0029},
            "encode_model_s": {"p50": 0.0045},
            "host_fps": 237.6,
        },
        "stages": [
            {"name": "geom.morton", "host_s": {"p50": 3.5e-4},
             "model_s": {"p50": 5.3e-4}},
            {"name": "geom.post", "host_s": {"p50": 1.3e-6},
             "model_s": {"p50": 0}},
        ],
        "kernels": {"simd_level": "avx2", "items": [
            {"name": "radix.sort", "p50_ns_per_point": 32.9}]},
        "resilience": {"retransmits": 0},
    }

    def edited(*edits):
        doc = copy.deepcopy(base)
        for *keys, last, value in edits:
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
        return doc

    cases = [
        ("identical documents pass", base, []),
        ("a 1% modelled encode regression fails",
         edited(("end_to_end", "encode_model_s", "p50", 0.004545)),
         ["end_to_end.encode_model_s.p50: 0.0045 -> 0.004545 (+1.000%)"]),
        ("one more retransmit fails",
         edited(("resilience", "retransmits", 1)),
         ["resilience.retransmits: 0 -> 1 (from 0)"]),
        ("a stage growing from 0 fails",
         edited(("stages", 1, "model_s", "p50", 0.005)),
         ["stages[geom.post].model_s.p50: 0 -> 0.005 (from 0)"]),
        ("a key in one document only fails",
         edited(("resilience", "parity_sent", 0)),
         ["resilience.parity_sent: only in new"]),
        ("host-timed differences pass",
         edited(("end_to_end", "encode_host_s", "p50", 0.0036),
                ("end_to_end", "host_fps", 190.0),
                ("stages", 0, "host_s", "p50", 9e-4),
                ("kernels", "simd_level", "scalar"),
                ("kernels", "items", 0, "p50_ns_per_point", 40.0),
                ("workload", "threads", 0)),
         []),
    ]
    for what, doc, want in cases:
        assert compare(base, doc)[0] == want, (what, compare(base, doc))
        assert len(compare(doc, base)[0]) == len(want), what
    assert compare(base, base)[1:] == (8, 8), compare(base, base)
    print("compare_bench self-test: PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.old or not args.new:
        parser.print_usage(sys.stderr)
        sys.exit(2)

    differences, compared, host = compare(load(args.old), load(args.new))
    print(f"compare_bench: {args.old} -> {args.new}: {compared} "
          f"deterministic leaves compared, {host} host-timed skipped")
    for line in differences:
        print(f"  - {line}")
    print(f"{len(differences)} difference(s)")
    sys.exit(1 if differences else 0)


if __name__ == "__main__":
    main()
