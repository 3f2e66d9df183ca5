#!/usr/bin/env python3
"""Diff two bench_runner result files and flag perf regressions.

Usage:
    compare_bench.py OLD.json NEW.json [--latency-tol 0.10]
                     [--ratio-tol 0.02] [--host]
    compare_bench.py --self-test

Exit codes: 0 = no regression, 1 = regression detected,
2 = usage or schema error.

Latency comparisons default to the *modelled* Jetson seconds
(deterministic: derived from recorded ops/bytes, immune to CI host
noise). Pass --host to additionally gate on measured host p50s (the
end-to-end host latencies and the kernel micro-bench rows) when
comparing runs from the same machine; without it the kernel rows are
reported only. Compression ratio and PSNR are always compared. See
docs/OBSERVABILITY.md for the JSON schema.
"""

import argparse
import copy
import json
import sys

SCHEMA = "edgepcc-bench-v1"

# Deadline-miss rate is gated on an absolute increase (a baseline
# rate of 0 has no meaningful relative change): more than 5 points
# of extra misses under the same load spec is a regression.
MISS_RATE_TOL = 0.05

# The Jain fairness index lives in (0, 1], so it too is gated on an
# absolute drop: losing more than 0.05 of the index for the same
# tenant mix means some tenant's share collapsed.
FAIRNESS_TOL = 0.05


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


def rel_change(old, new):
    if old == 0:
        return 0.0
    return (new - old) / old


def compare(old, new, latency_tol, ratio_tol, check_host):
    """Returns (regressions, report_lines)."""
    regressions = []
    lines = []

    def check_latency(label, old_val, new_val, gate=True):
        change = rel_change(old_val, new_val)
        mark = "" if gate else "  (host, reported only)"
        if gate and old_val > 0 and change > latency_tol:
            mark = "  << REGRESSION"
            regressions.append(
                f"{label}: {old_val:.6g}s -> {new_val:.6g}s "
                f"(+{change * 100:.1f}%, tol "
                f"{latency_tol * 100:.0f}%)"
            )
        lines.append(
            f"  {label:<34} {old_val:>12.6g} {new_val:>12.6g} "
            f"{change * 100:>+8.1f}%{mark}"
        )

    oe, ne = old["end_to_end"], new["end_to_end"]
    lines.append(
        f"  {'metric':<34} {'old':>12} {'new':>12} {'change':>9}"
    )
    check_latency(
        "encode_model_s.p50",
        oe["encode_model_s"]["p50"],
        ne["encode_model_s"]["p50"],
    )
    check_latency(
        "decode_model_s.p50",
        oe["decode_model_s"]["p50"],
        ne["decode_model_s"]["p50"],
    )
    if check_host:
        check_latency(
            "encode_host_s.p50",
            oe["encode_host_s"]["p50"],
            ne["encode_host_s"]["p50"],
        )
        check_latency(
            "decode_host_s.p50",
            oe["decode_host_s"]["p50"],
            ne["decode_host_s"]["p50"],
        )

    old_stages = {s["name"]: s for s in old.get("stages", [])}
    for stage in new.get("stages", []):
        ref = old_stages.get(stage["name"])
        if ref is None:
            lines.append(f"  stage {stage['name']}: new (no baseline)")
            continue
        check_latency(
            f"stage {stage['name']} model p50",
            ref["model_s"]["p50"],
            stage["model_s"]["p50"],
        )

    # SIMD kernel micro-bench (host ns/point, see
    # docs/PERFORMANCE.md). Host wall-clock, so gated only under
    # --host, for A/B runs on one machine: two runs of one binary on
    # an idle host differed by up to 15% on a row. Without --host the
    # rows are reported; the kernel gate that holds across runners is
    # bench-smoke's same-process speedup_vs_scalar floors. A changed
    # simd_level is a different experiment (reported, not gated).
    old_kernels = old.get("kernels", {})
    new_kernels = new.get("kernels", {})
    if old_kernels and new_kernels:
        old_level = old_kernels.get("simd_level")
        new_level = new_kernels.get("simd_level")
        if old_level != new_level:
            lines.append(
                f"  kernels: simd_level changed "
                f"({old_level} -> {new_level}), not gated"
            )
        else:
            old_items = {
                k["name"]: k for k in old_kernels.get("items", [])
            }
            for item in new_kernels.get("items", []):
                ref = old_items.get(item["name"])
                if ref is None:
                    lines.append(
                        f"  kernel {item['name']}: new "
                        f"(no baseline)"
                    )
                    continue
                check_latency(
                    f"kernel {item['name']} p50 ns/pt",
                    ref["p50_ns_per_point"],
                    item["p50_ns_per_point"],
                    gate=check_host,
                )
    elif new_kernels:
        lines.append("  kernels: new (no baseline)")

    ratio_change = rel_change(
        oe["compression_ratio"], ne["compression_ratio"]
    )
    mark = ""
    if ratio_change < -ratio_tol:
        mark = "  << REGRESSION"
        regressions.append(
            f"compression_ratio: {oe['compression_ratio']:.4g} -> "
            f"{ne['compression_ratio']:.4g} "
            f"({ratio_change * 100:+.1f}%, tol "
            f"-{ratio_tol * 100:.0f}%)"
        )
    lines.append(
        f"  {'compression_ratio':<34} "
        f"{oe['compression_ratio']:>12.6g} "
        f"{ne['compression_ratio']:>12.6g} "
        f"{ratio_change * 100:>+8.1f}%{mark}"
    )

    for key in ("attr_psnr_db", "geom_psnr_db"):
        drop = oe[key] - ne[key]
        note = "  (quality drop >0.5 dB)" if drop > 0.5 else ""
        lines.append(
            f"  {key:<34} {oe[key]:>12.6g} {ne[key]:>12.6g} "
            f"{-drop:>+8.1f}dB{note}"
        )

    # Network-aware end-to-end latency (resilience "modes"):
    # capture..render including loss recovery, per transport mode.
    # Present only when both runs used --loss; modes that exist in
    # just one run are reported but not gated.
    old_modes = old.get("resilience", {}).get("modes", {})
    new_modes = new.get("resilience", {}).get("modes", {})
    for mode in sorted(new_modes):
        if mode not in old_modes:
            lines.append(f"  mode {mode}: new (no baseline)")
            continue
        check_latency(
            f"resilience.{mode} e2e p50",
            old_modes[mode]["e2e_latency_s"]["p50"],
            new_modes[mode]["e2e_latency_s"]["p50"],
        )
        check_latency(
            f"resilience.{mode} recovery mean",
            old_modes[mode]["recovery_s_mean"],
            new_modes[mode]["recovery_s_mean"],
        )
        # FEC recovery effectiveness: the fraction of multi-loss
        # groups the decoder solved without retransmission. A drop
        # of more than 5 points is a resilience regression even if
        # latency stayed flat (NACKs may be masking it).
        key = "fec_multi_loss_recovered_fraction"
        if key in old_modes[mode] and key in new_modes[mode]:
            old_frac = old_modes[mode][key]
            new_frac = new_modes[mode][key]
            if new_frac < old_frac - 0.05:
                regressions.append(
                    f"resilience.{mode} multi-loss recovery "
                    f"{old_frac:.2f} -> {new_frac:.2f}"
                )
            lines.append(
                f"  resilience.{mode} multi-loss recovered "
                f"{old_frac:>8.2f} {new_frac:>12.2f}"
            )

    # Overload ladder (--deadline-ms runs): modelled p99 encode
    # latency under injected load, plus the deadline-miss rate.
    # Present only when both runs used --deadline-ms; a section in
    # just one run is reported but not gated.
    old_ol = old.get("overload", {})
    new_ol = new.get("overload", {})
    if old_ol and new_ol:
        check_latency(
            "overload encode p99",
            old_ol["encode_latency_s"]["p99"],
            new_ol["encode_latency_s"]["p99"],
        )
        old_rate = old_ol["deadline_miss_rate"]
        new_rate = new_ol["deadline_miss_rate"]
        delta = new_rate - old_rate
        mark = ""
        if delta > MISS_RATE_TOL:
            mark = "  << REGRESSION"
            regressions.append(
                f"overload deadline_miss_rate: {old_rate:.4g} -> "
                f"{new_rate:.4g} (+{delta:.4g} absolute, tol "
                f"{MISS_RATE_TOL:.2g})"
            )
        lines.append(
            f"  {'overload deadline_miss_rate':<34} "
            f"{old_rate:>12.6g} {new_rate:>12.6g} "
            f"{delta:>+8.4f} {mark}"
        )
    elif new_ol:
        lines.append("  overload: new (no baseline)")

    # Multi-tenant fleet (--sessions runs): the worst tenant's p99
    # completion latency on the virtual device clock, plus the Jain
    # fairness index. Present only when both runs used --sessions; a
    # section in just one run is reported but not gated.
    old_sv = old.get("serve", {})
    new_sv = new.get("serve", {})
    if old_sv and new_sv:
        check_latency(
            "serve worst_tenant_p99",
            old_sv["worst_tenant_p99_s"],
            new_sv["worst_tenant_p99_s"],
        )
        old_fair = old_sv["fairness_index"]
        new_fair = new_sv["fairness_index"]
        drop = old_fair - new_fair
        mark = ""
        if drop > FAIRNESS_TOL:
            mark = "  << REGRESSION"
            regressions.append(
                f"serve fairness_index: {old_fair:.4g} -> "
                f"{new_fair:.4g} (-{drop:.4g} absolute, tol "
                f"{FAIRNESS_TOL:.2g})"
            )
        lines.append(
            f"  {'serve fairness_index':<34} "
            f"{old_fair:>12.6g} {new_fair:>12.6g} "
            f"{-drop:>+8.4f} {mark}"
        )

        # Fault-injection runs (--faults): recovery quality is only
        # comparable when both runs survived the same number of
        # crashes; otherwise the fault spec changed and the numbers
        # describe different experiments (reported, not gated).
        old_rec = old_sv.get("recovery", {})
        new_rec = new_sv.get("recovery", {})
        old_crashes = old_rec.get("crashes", 0)
        new_crashes = new_rec.get("crashes", 0)
        if old_crashes != new_crashes:
            if old_rec or new_rec:
                lines.append(
                    f"  serve recovery: crash count changed "
                    f"({old_crashes} -> {new_crashes}), not gated"
                )
        elif old_crashes > 0:
            check_latency(
                "serve recovery mttr",
                old_rec["mttr_s"],
                new_rec["mttr_s"],
            )
            old_shed = old_rec["tenants_shed"]
            new_shed = new_rec["tenants_shed"]
            mark = ""
            if new_shed > old_shed:
                mark = "  << REGRESSION"
                regressions.append(
                    f"serve recovery tenants_shed: {old_shed} -> "
                    f"{new_shed} (same crash count must not shed "
                    f"more tenants)"
                )
            lines.append(
                f"  {'serve recovery tenants_shed':<34} "
                f"{old_shed:>12} {new_shed:>12} "
                f"{new_shed - old_shed:>+9}{mark}"
            )
    elif new_sv:
        lines.append("  serve: new (no baseline)")

    return regressions, lines


def self_test():
    """Verifies the detector on a synthetic 20% slowdown."""
    base = {
        "schema": SCHEMA,
        "end_to_end": {
            "encode_model_s": {"p50": 0.050},
            "decode_model_s": {"p50": 0.030},
            "encode_host_s": {"p50": 0.020},
            "decode_host_s": {"p50": 0.010},
            "compression_ratio": 8.0,
            "attr_psnr_db": 48.5,
            "geom_psnr_db": 70.0,
        },
        "stages": [
            {"name": "geom.morton", "model_s": {"p50": 0.004}},
            {"name": "attr.segment", "model_s": {"p50": 0.006}},
        ],
        "kernels": {
            "simd_level": "avx2",
            "aggregate_speedup_vs_scalar": 2.4,
            "items": [
                {
                    "name": "morton.encode",
                    "p50_ns_per_point": 1.8,
                },
                {
                    "name": "crc32c",
                    "p50_ns_per_point": 0.14,
                },
            ],
        },
        "resilience": {
            "modes": {
                "nack": {
                    "e2e_latency_s": {"p50": 0.063},
                    "recovery_s_mean": 0.0079,
                },
                "fec": {
                    "e2e_latency_s": {"p50": 0.050},
                    "recovery_s_mean": 0.0009,
                },
                "rs": {
                    "e2e_latency_s": {"p50": 0.048},
                    "recovery_s_mean": 0.0004,
                    "fec_multi_loss_recovered_fraction": 0.95,
                },
            },
        },
        "overload": {
            "deadline_miss_rate": 0.10,
            "encode_latency_s": {"p99": 0.0042},
        },
        "serve": {
            "worst_tenant_p99_s": 0.085,
            "fairness_index": 0.97,
            "recovery": {
                "crashes": 1,
                "failovers": 3,
                "tenants_shed": 0,
                "mttr_s": 0.016,
                "worst_recovery_s": 0.021,
            },
        },
    }
    identical, _ = compare(base, base, 0.10, 0.02, True)
    assert not identical, "identical runs must not regress"

    slow = copy.deepcopy(base)
    slow["end_to_end"]["encode_model_s"]["p50"] *= 1.20
    found, _ = compare(base, slow, 0.10, 0.02, False)
    assert found, "20% encode slowdown must be flagged"

    stage_slow = copy.deepcopy(base)
    stage_slow["stages"][1]["model_s"]["p50"] *= 1.20
    found, _ = compare(base, stage_slow, 0.10, 0.02, False)
    assert found, "20% stage slowdown must be flagged"

    shrunk = copy.deepcopy(base)
    shrunk["end_to_end"]["compression_ratio"] *= 0.95
    found, _ = compare(base, shrunk, 0.10, 0.02, False)
    assert found, "5% compression-ratio loss must be flagged"

    within_tol = copy.deepcopy(base)
    within_tol["end_to_end"]["encode_model_s"]["p50"] *= 1.05
    found, _ = compare(base, within_tol, 0.10, 0.02, False)
    assert not found, "5% slowdown is within the 10% tolerance"

    kernel_slow = copy.deepcopy(base)
    kernel_slow["kernels"]["items"][0]["p50_ns_per_point"] *= 1.20
    found, _ = compare(base, kernel_slow, 0.10, 0.02, True)
    assert found, "20% kernel p50 slowdown must be flagged under --host"
    found, report = compare(base, kernel_slow, 0.10, 0.02, False)
    assert not found, "host-timed kernel rows are not gated by default"
    assert any(
        "kernel morton.encode" in line and "reported only" in line
        for line in report
    ), "the slowed kernel row must still be reported"

    kernel_within = copy.deepcopy(base)
    kernel_within["kernels"]["items"][0][
        "p50_ns_per_point"] *= 1.05
    found, _ = compare(base, kernel_within, 0.10, 0.02, True)
    assert not found, "5% kernel slowdown is within the tolerance"

    level_changed = copy.deepcopy(kernel_slow)
    level_changed["kernels"]["simd_level"] = "scalar"
    found, _ = compare(base, level_changed, 0.10, 0.02, True)
    assert not found, "changed simd_level is reported, not gated"

    no_kernels = copy.deepcopy(base)
    del no_kernels["kernels"]
    found, _ = compare(no_kernels, base, 0.10, 0.02, True)
    assert not found, "kernels without a baseline are not gated"

    e2e_slow = copy.deepcopy(base)
    e2e_slow["resilience"]["modes"]["fec"]["e2e_latency_s"][
        "p50"] *= 1.20
    found, _ = compare(base, e2e_slow, 0.10, 0.02, False)
    assert found, "20% FEC end-to-end slowdown must be flagged"

    recovery_slow = copy.deepcopy(base)
    recovery_slow["resilience"]["modes"]["nack"][
        "recovery_s_mean"] *= 1.50
    found, _ = compare(base, recovery_slow, 0.10, 0.02, False)
    assert found, "50% recovery-time growth must be flagged"

    rs_slow = copy.deepcopy(base)
    rs_slow["resilience"]["modes"]["rs"]["e2e_latency_s"][
        "p50"] *= 1.20
    found, _ = compare(base, rs_slow, 0.10, 0.02, False)
    assert found, "20% RS end-to-end slowdown must be flagged"

    rs_weaker = copy.deepcopy(base)
    rs_weaker["resilience"]["modes"]["rs"][
        "fec_multi_loss_recovered_fraction"] = 0.70
    found, _ = compare(base, rs_weaker, 0.10, 0.02, False)
    assert found, "multi-loss recovery drop must be flagged"

    rs_jitter = copy.deepcopy(base)
    rs_jitter["resilience"]["modes"]["rs"][
        "fec_multi_loss_recovered_fraction"] = 0.92
    found, _ = compare(base, rs_jitter, 0.10, 0.02, False)
    assert not found, "3pt recovery jitter is within tolerance"

    no_resilience = copy.deepcopy(base)
    del no_resilience["resilience"]
    found, _ = compare(no_resilience, no_resilience, 0.10, 0.02,
                       False)
    assert not found, "runs without --loss must still compare"
    found, _ = compare(no_resilience, base, 0.10, 0.02, False)
    assert not found, "new modes without a baseline are not gated"

    missier = copy.deepcopy(base)
    missier["overload"]["deadline_miss_rate"] = 0.20
    found, _ = compare(base, missier, 0.10, 0.02, False)
    assert found, "+10pt deadline-miss rate must be flagged"

    slightly_missier = copy.deepcopy(base)
    slightly_missier["overload"]["deadline_miss_rate"] = 0.13
    found, _ = compare(base, slightly_missier, 0.10, 0.02, False)
    assert not found, "+3pt miss rate is within the 5pt tolerance"

    p99_slow = copy.deepcopy(base)
    p99_slow["overload"]["encode_latency_s"]["p99"] *= 1.20
    found, _ = compare(base, p99_slow, 0.10, 0.02, False)
    assert found, "20% overload p99 slowdown must be flagged"

    no_overload = copy.deepcopy(base)
    del no_overload["overload"]
    found, _ = compare(no_overload, base, 0.10, 0.02, False)
    assert not found, "overload without a baseline is not gated"

    tail_slow = copy.deepcopy(base)
    tail_slow["serve"]["worst_tenant_p99_s"] *= 1.20
    found, _ = compare(base, tail_slow, 0.10, 0.02, False)
    assert found, "20% worst-tenant p99 slowdown must be flagged"

    unfair = copy.deepcopy(base)
    unfair["serve"]["fairness_index"] = 0.89
    found, _ = compare(base, unfair, 0.10, 0.02, False)
    assert found, "0.08 fairness-index drop must be flagged"

    slightly_unfair = copy.deepcopy(base)
    slightly_unfair["serve"]["fairness_index"] = 0.94
    found, _ = compare(base, slightly_unfair, 0.10, 0.02, False)
    assert not found, "0.03 fairness drop is within the tolerance"

    no_serve = copy.deepcopy(base)
    del no_serve["serve"]
    found, _ = compare(no_serve, base, 0.10, 0.02, False)
    assert not found, "serve without a baseline is not gated"

    slow_recovery = copy.deepcopy(base)
    slow_recovery["serve"]["recovery"]["mttr_s"] *= 1.20
    found, _ = compare(base, slow_recovery, 0.10, 0.02, False)
    assert found, "20% MTTR growth must be flagged"

    sheds_more = copy.deepcopy(base)
    sheds_more["serve"]["recovery"]["tenants_shed"] = 1
    found, _ = compare(base, sheds_more, 0.10, 0.02, False)
    assert found, "extra shed tenant at same crash count is flagged"

    different_faults = copy.deepcopy(base)
    different_faults["serve"]["recovery"]["crashes"] = 2
    different_faults["serve"]["recovery"]["mttr_s"] *= 3.0
    found, _ = compare(base, different_faults, 0.10, 0.02, False)
    assert not found, "changed crash count is reported, not gated"

    clean_runs = copy.deepcopy(base)
    clean_runs["serve"]["recovery"]["crashes"] = 0
    clean_runs["serve"]["recovery"]["mttr_s"] = 0.0
    found, _ = compare(clean_runs, clean_runs, 0.10, 0.02, False)
    assert not found, "fault-free runs have nothing to gate"

    print("compare_bench self-test: PASS")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("old", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--latency-tol", type=float, default=0.10)
    parser.add_argument("--ratio-tol", type=float, default=0.02)
    parser.add_argument(
        "--host",
        action="store_true",
        help="also gate on measured host p50s (same-machine runs)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.old or not args.new:
        parser.print_usage(sys.stderr)
        sys.exit(2)

    old, new = load(args.old), load(args.new)
    regressions, lines = compare(
        old, new, args.latency_tol, args.ratio_tol, args.host
    )
    print(f"compare_bench: {args.old} -> {args.new}")
    print("\n".join(lines))
    if regressions:
        print(f"\n{len(regressions)} regression(s):")
        for regression in regressions:
            print(f"  - {regression}")
        sys.exit(1)
    print("\nno regressions")
    sys.exit(0)


if __name__ == "__main__":
    main()
