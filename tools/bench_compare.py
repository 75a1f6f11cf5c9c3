#!/usr/bin/env python3
"""Benchmark-regression gate for CI.

Compares a freshly produced BENCH_repair.json (and, optionally, a
google-benchmark ``--benchmark_format=json`` dump from perf_micro)
against the committed baseline:

* **Gated counters** (deterministic per seed/toolchain — allocator
  counts, fitness evals, rows skipped, the fingerprint-match bit) fail
  the build when they regress by more than the threshold (default 15%).
* **Timing metrics** (evals/sec, per-benchmark real_time) are machine-
  dependent; regressions only warn, so a noisy runner cannot produce a
  flaky gate.

Usage:
    tools/bench_compare.py --baseline BENCH_baseline.json \
        --current BENCH_repair.json \
        [--micro-baseline BENCH_micro_baseline.json] \
        [--micro-current micro.json] \
        [--lint-baseline BENCH_lint_baseline.json] \
        [--lint-current BENCH_lint.json] \
        [--witness-baseline BENCH_witness_baseline.json] \
        [--witness-current BENCH_witness.json] \
        [--fleet-baseline BENCH_fleet_baseline.json] \
        [--fleet-current BENCH_fleet.json] \
        [--island-baseline BENCH_island_baseline.json] \
        [--island-current BENCH_island.json] [--threshold 0.15]

Exit status: 0 = pass (possibly with warnings), 1 = gated regression.
"""

import argparse
import json
import sys

# Gated counters from BENCH_repair.json "counters", with the direction
# that counts as a regression. These are deterministic: any drift means
# the code changed behavior, not that the runner was busy.
GATED = {
    "fitness_evals": "lower",           # more simulations = more work
    "rows_scored": "lower",             # rows the cutoff failed to save
    "rows_skipped": "higher",           # work saved by early abort
    "early_aborts": "higher",           # candidates pruned
    "logic_heap_allocs_per_sim": "lower",
    "eventfn_heap_allocs_per_sim": "lower",
    "slots_allocated_per_sim": "lower",
    "events_scheduled_per_sim": "lower",
    "lint_rejects": "higher",           # doomed mutants pruned pre-sim
}

# Timing metrics from BENCH_repair.json "timing" (warn-only).
TIMING = {
    "evals_per_sec_full": "higher",
    "evals_per_sec_abort": "higher",
    "sim_seconds_per_candidate": "lower",
}


def regression(baseline, current, direction):
    """Fractional regression of current vs baseline (>0 = worse)."""
    if baseline == 0:
        return 1.0 if (direction == "lower" and current > 0) else 0.0
    if direction == "lower":
        return (current - baseline) / baseline
    return (baseline - current) / baseline


def load(path):
    with open(path) as f:
        return json.load(f)


def compare_repair(baseline, current, threshold):
    failures, warnings = [], []

    if not current.get("fingerprint_match", False):
        failures.append(
            "fingerprint_match is false: the early-abort run produced a "
            "different repair than full evaluation (soundness bug)")

    if not current.get("prescreen_fingerprint_match", False):
        failures.append(
            "prescreen_fingerprint_match is false: the lint pre-screen "
            "changed the repair result instead of only what gets "
            "simulated (soundness bug)")

    base_counters = baseline.get("counters", {})
    cur_counters = current.get("counters", {})
    for name, direction in GATED.items():
        if name in base_counters and name not in cur_counters:
            # The producer stopped emitting a gated counter: that is
            # how a gate silently erodes, so it fails hard.
            failures.append(
                f"counter {name} present in baseline but missing from "
                "current (producer stopped emitting a gated counter)")
            continue
        if name not in base_counters:
            warnings.append(f"counter {name} missing from baseline; "
                            "skipped (regenerate the baseline)")
            continue
        reg = regression(base_counters[name], cur_counters[name],
                         direction)
        line = (f"{name}: baseline={base_counters[name]} "
                f"current={cur_counters[name]} ({reg:+.1%})")
        if reg > threshold:
            failures.append("gated counter regressed " + line)
        elif reg > 0:
            warnings.append(line)

    base_timing = baseline.get("timing", {})
    cur_timing = current.get("timing", {})
    for name, direction in TIMING.items():
        if name not in base_timing or name not in cur_timing:
            continue
        reg = regression(base_timing[name], cur_timing[name], direction)
        if reg > threshold:
            warnings.append(
                f"timing {name}: baseline={base_timing[name]:.4g} "
                f"current={cur_timing[name]:.4g} ({reg:+.1%}) "
                "[warn-only: machine-dependent]")

    return failures, warnings


def compare_lint(baseline, current, threshold):
    """BENCH_lint.json: per-check diagnostic counts are deterministic —
    any drift is an analyzer behavior change, so they gate exactly, not
    by threshold. Throughput warns only."""
    failures, warnings = [], []

    cur_counters = current.get("counters", {})
    base_counters = baseline.get("counters", {})

    # The golden designs lint clean by construction; a nonzero count
    # means a new false positive, failed outright regardless of what
    # the baseline says.
    if cur_counters.get("golden_errors_total", 0) != 0:
        failures.append(
            "golden_errors_total="
            f"{cur_counters['golden_errors_total']}: a golden design "
            "now lints with error severity (analyzer false positive or "
            "broken golden)")

    for name in sorted(set(base_counters) | set(cur_counters)):
        if name in base_counters and name not in cur_counters:
            failures.append(
                f"lint counter {name} present in baseline but missing "
                "from current (producer stopped emitting a gated "
                "counter)")
            continue
        if name not in base_counters:
            warnings.append(f"lint counter {name} missing from "
                            "baseline; skipped (regenerate the "
                            "baseline)")
            continue
        if base_counters[name] != cur_counters[name]:
            failures.append(
                f"lint counter {name} changed: "
                f"baseline={base_counters[name]} "
                f"current={cur_counters[name]} (deterministic — "
                "regenerate BENCH_lint_baseline.json if intentional)")

    base_timing = baseline.get("timing", {})
    cur_timing = current.get("timing", {})
    if "lints_per_sec" in base_timing and "lints_per_sec" in cur_timing:
        reg = regression(base_timing["lints_per_sec"],
                         cur_timing["lints_per_sec"], "higher")
        if reg > threshold:
            warnings.append(
                f"timing lints_per_sec: "
                f"baseline={base_timing['lints_per_sec']:.4g} "
                f"current={cur_timing['lints_per_sec']:.4g} "
                f"({reg:+.1%}) [warn-only: machine-dependent]")

    return failures, warnings


def compare_witness(baseline, current, threshold):
    """BENCH_witness.json: hardening counters are pure functions of the
    benchmark seeds, so they gate exactly. golden_kills_total is a hard
    invariant — a witness bench that rejects the golden design would
    poison every future repair — and fails outright regardless of the
    baseline. Sweep timing warns only."""
    failures, warnings = [], []

    cur_counters = current.get("counters", {})
    base_counters = baseline.get("counters", {})

    if cur_counters.get("golden_kills_total", 0) != 0:
        failures.append(
            "golden_kills_total="
            f"{cur_counters['golden_kills_total']}: a generated witness "
            "bench rejects the golden design (golden-invariance "
            "violation — witnesses may only kill wrong behavior)")

    for name in sorted(set(base_counters) | set(cur_counters)):
        if name in base_counters and name not in cur_counters:
            failures.append(
                f"witness counter {name} present in baseline but "
                "missing from current (producer stopped emitting a "
                "gated counter)")
            continue
        if name not in base_counters:
            warnings.append(f"witness counter {name} missing from "
                            "baseline; skipped (regenerate the "
                            "baseline)")
            continue
        if base_counters[name] != cur_counters[name]:
            failures.append(
                f"witness counter {name} changed: "
                f"baseline={base_counters[name]} "
                f"current={cur_counters[name]} (deterministic — "
                "regenerate BENCH_witness_baseline.json if intentional)")

    base_timing = baseline.get("timing", {})
    cur_timing = current.get("timing", {})
    if "sweep_seconds" in base_timing and "sweep_seconds" in cur_timing:
        reg = regression(base_timing["sweep_seconds"],
                         cur_timing["sweep_seconds"], "lower")
        if reg > threshold:
            warnings.append(
                f"timing sweep_seconds: "
                f"baseline={base_timing['sweep_seconds']:.4g} "
                f"current={cur_timing['sweep_seconds']:.4g} "
                f"({reg:+.1%}) [warn-only: machine-dependent]")

    return failures, warnings


def compare_fleet(baseline, current, threshold):
    """BENCH_fleet.json: the distributed layer's two hard invariants —
    zero jobs lost, zero jobs duplicated — fail outright regardless of
    the baseline. Every other counter (lease churn, reconnects, chaos
    events) and all timing depend on scheduling, so they only warn."""
    failures, warnings = [], []

    cur_counters = current.get("counters", {})
    base_counters = baseline.get("counters", {})

    for name in ("jobs_lost_total", "jobs_duplicated_total"):
        if cur_counters.get(name, 0) != 0:
            failures.append(
                f"{name}={cur_counters[name]}: the fleet violated its "
                "exactly-once guarantee (hard invariant — never "
                "baseline-relative)")

    # A completed-jobs shortfall that somehow dodged jobs_lost_total
    # (schema drift) still gates.
    submitted = cur_counters.get("jobs_submitted_total", 0)
    done = cur_counters.get("jobs_completed_total", 0)
    if done < submitted:
        failures.append(
            f"jobs_completed_total={done} < "
            f"jobs_submitted_total={submitted}: a job never finished")

    for name in sorted(set(base_counters) | set(cur_counters)):
        if name in ("jobs_lost_total", "jobs_duplicated_total"):
            continue
        if name in base_counters and name not in cur_counters:
            # Fleet counter VALUES are scheduling-dependent (warn
            # only), but a counter disappearing from the report is
            # schema drift, not scheduling noise.
            failures.append(
                f"fleet counter {name} present in baseline but "
                "missing from current (producer stopped emitting it)")
            continue
        if name not in base_counters:
            warnings.append(f"fleet counter {name} missing from "
                            "baseline; skipped (regenerate the "
                            "baseline)")
            continue
        if base_counters[name] != cur_counters[name]:
            warnings.append(
                f"fleet counter {name}: baseline={base_counters[name]} "
                f"current={cur_counters[name]} [warn-only: "
                "scheduling-dependent]")

    base_timing = baseline.get("timing", {})
    cur_timing = current.get("timing", {})
    for name in ("failover_recovery_seconds", "chaos_wall_seconds"):
        if name not in base_timing or name not in cur_timing:
            continue
        reg = regression(base_timing[name], cur_timing[name], "lower")
        if reg > threshold:
            warnings.append(
                f"timing {name}: baseline={base_timing[name]:.4g} "
                f"current={cur_timing[name]:.4g} ({reg:+.1%}) "
                "[warn-only: machine-dependent]")

    return failures, warnings


def compare_island(baseline, current, threshold):
    """BENCH_island.json: the island model's determinism invariants —
    zero elites lost, zero duplicate migrants in a broadcast, K=1
    bit-identical to a plain run — fail outright regardless of the
    baseline, as does the acceleration floor (median generations to
    first plausible must stay >= 2x the single-population run). The
    K=1 fingerprint gates by exact string equality against the
    baseline: any drift means the search itself changed, not just its
    cost. Remaining counters are pure functions of the seed set and
    gate exactly; wall-clock timing warns only."""
    failures, warnings = [], []

    cur_counters = current.get("counters", {})
    base_counters = baseline.get("counters", {})

    for name in ("elites_lost_total", "migrant_duplicates_total"):
        if cur_counters.get(name, 0) != 0:
            failures.append(
                f"{name}={cur_counters[name]}: the migration ledger "
                "violated its determinism contract (hard invariant — "
                "never baseline-relative)")
    if cur_counters.get("k1_matches_plain", 0) != 1:
        failures.append(
            "k1_matches_plain="
            f"{cur_counters.get('k1_matches_plain')}: a 1-island run "
            "diverged from the plain engine on the same seed "
            "(identity violation — never baseline-relative)")
    speedup = cur_counters.get("generations_speedup_x", 0)
    if speedup < 2.0:
        failures.append(
            f"generations_speedup_x={speedup}: the island model no "
            "longer halves the median search depth vs a single "
            "population (hard floor 2.0 — never baseline-relative)")

    base_fps = baseline.get("fingerprints", {})
    cur_fps = current.get("fingerprints", {})
    for name in sorted(set(base_fps) | set(cur_fps)):
        if name not in cur_fps:
            failures.append(
                f"island fingerprint {name} present in baseline but "
                "missing from current (producer stopped emitting it)")
            continue
        if name not in base_fps:
            warnings.append(f"island fingerprint {name} missing from "
                            "baseline; skipped (regenerate the "
                            "baseline)")
            continue
        if base_fps[name] != cur_fps[name]:
            failures.append(
                f"island fingerprint {name} changed: "
                f"baseline={base_fps[name]} current={cur_fps[name]} "
                "(the K=1 search itself changed — regenerate "
                "BENCH_island_baseline.json only if intentional)")

    hard = ("elites_lost_total", "migrant_duplicates_total",
            "k1_matches_plain")
    for name in sorted(set(base_counters) | set(cur_counters)):
        if name in hard:
            continue
        if name in base_counters and name not in cur_counters:
            failures.append(
                f"island counter {name} present in baseline but "
                "missing from current (producer stopped emitting a "
                "gated counter)")
            continue
        if name not in base_counters:
            warnings.append(f"island counter {name} missing from "
                            "baseline; skipped (regenerate the "
                            "baseline)")
            continue
        if base_counters[name] != cur_counters[name]:
            failures.append(
                f"island counter {name} changed: "
                f"baseline={base_counters[name]} "
                f"current={cur_counters[name]} (deterministic — "
                "regenerate BENCH_island_baseline.json if intentional)")

    base_timing = baseline.get("timing", {})
    cur_timing = current.get("timing", {})
    for name in sorted(set(base_timing) & set(cur_timing)):
        reg = regression(base_timing[name], cur_timing[name], "lower")
        if reg > threshold:
            warnings.append(
                f"timing {name}: baseline={base_timing[name]:.4g} "
                f"current={cur_timing[name]:.4g} ({reg:+.1%}) "
                "[warn-only: machine-dependent]")

    return failures, warnings


def compare_micro(baseline, current, threshold):
    """google-benchmark JSON: match by name, warn on real_time."""
    warnings = []
    base = {b["name"]: b for b in baseline.get("benchmarks", [])}
    for b in current.get("benchmarks", []):
        ref = base.get(b["name"])
        if ref is None or "real_time" not in ref:
            continue
        reg = regression(ref["real_time"], b["real_time"], "lower")
        if reg > threshold:
            warnings.append(
                f"micro {b['name']}: baseline={ref['real_time']:.0f}"
                f"{ref.get('time_unit', 'ns')} "
                f"current={b['real_time']:.0f}"
                f"{b.get('time_unit', 'ns')} ({reg:+.1%}) "
                "[warn-only: machine-dependent]")
    return warnings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--micro-baseline")
    ap.add_argument("--micro-current")
    ap.add_argument("--lint-baseline")
    ap.add_argument("--lint-current")
    ap.add_argument("--witness-baseline")
    ap.add_argument("--witness-current")
    ap.add_argument("--fleet-baseline")
    ap.add_argument("--fleet-current")
    ap.add_argument("--island-baseline")
    ap.add_argument("--island-current")
    ap.add_argument("--threshold", type=float, default=0.15)
    args = ap.parse_args()

    failures, warnings = [], []
    if args.baseline and args.current:
        failures, warnings = compare_repair(
            load(args.baseline), load(args.current), args.threshold)

    if args.micro_baseline and args.micro_current:
        warnings += compare_micro(
            load(args.micro_baseline), load(args.micro_current),
            args.threshold)

    if args.lint_baseline and args.lint_current:
        lint_failures, lint_warnings = compare_lint(
            load(args.lint_baseline), load(args.lint_current),
            args.threshold)
        failures += lint_failures
        warnings += lint_warnings

    if args.witness_baseline and args.witness_current:
        witness_failures, witness_warnings = compare_witness(
            load(args.witness_baseline), load(args.witness_current),
            args.threshold)
        failures += witness_failures
        warnings += witness_warnings

    if args.fleet_baseline and args.fleet_current:
        fleet_failures, fleet_warnings = compare_fleet(
            load(args.fleet_baseline), load(args.fleet_current),
            args.threshold)
        failures += fleet_failures
        warnings += fleet_warnings

    if args.island_baseline and args.island_current:
        island_failures, island_warnings = compare_island(
            load(args.island_baseline), load(args.island_current),
            args.threshold)
        failures += island_failures
        warnings += island_warnings

    for w in warnings:
        print(f"WARN  {w}")
    for f in failures:
        print(f"FAIL  {f}")
    if failures:
        print(f"bench_compare: {len(failures)} gated regression(s)")
        return 1
    print(f"bench_compare: pass ({len(warnings)} warning(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
