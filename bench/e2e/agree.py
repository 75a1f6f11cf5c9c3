#!/usr/bin/env python3
"""Compare two sets of e2e_bench runs, metric by metric.

    python3 bench/e2e/agree.py --a runs/a/*.json --b runs/b/*.json

Each file is the --out document of one `e2e_bench` (or `run.py`) run.
Set A is the reference (the parent commit, or the first batch of runs
of one commit), set B the candidate. The bound, direction and unit of
each end-to-end metric come from BENCHMARK.json. For every (workload,
metric) the script prints each side's median and quartiles and one
verdict, following the choosing-metrics rules:

  unresolved  A's own spread (q3 - q1, as a share of its median) is
              wider than the bound, and B does not read better than A
              on every run;
  worse       B's median is worse than A's by more than the bound;
  better      B wins at least 9 of 10 same-seed pairs and the medians
              differ by more than A's spread;
  agree       otherwise.

Outcomes are exact: a request (round, defect) must have the same found
flag, held-out verdict, generation count, evaluation count and outcome
digest in every run of both sets, whatever its --seed (the seed only
changes the order requests are issued in). Any difference is reported
as a mismatch. Exit status: 0 when nothing is worse and every outcome
matches, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_FIELDS = ("found", "correct", "generations", "evals", "digest")


def load(paths):
    runs = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        if doc["meta"].get("trace"):
            continue  # traced runs carry per-layer metrics only
        runs.setdefault(doc["meta"]["workload"], []).append(doc)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, a_runs, b_runs):
    """Classify one metric; returns (verdict, detail dict)."""
    name, bound = metric["name"], metric["bound"]
    lower = metric["better"] == "lower"
    a = [r["end_to_end"][name]["value"] for r in a_runs]
    b = [r["end_to_end"][name]["value"] for r in b_runs]
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    # Positive change means B is worse.
    change = (b_med - a_med) / a_med if a_med else 0.0
    if not lower:
        change = -change
    if lower:
        b_always_better = max(b) < min(a)
    else:
        b_always_better = min(b) > max(a)
    a_by_seed = {r["meta"]["seed"]: r["end_to_end"][name]["value"]
                 for r in a_runs}
    pairs = wins = 0
    for r in b_runs:
        seed = r["meta"]["seed"]
        if seed not in a_by_seed:
            continue
        pairs += 1
        x, y = a_by_seed[seed], r["end_to_end"][name]["value"]
        wins += (y < x) if lower else (y > x)
    if spread > bound and not b_always_better:
        v = "unresolved"
    elif change > bound:
        v = "worse"
    elif (pairs and wins >= 0.9 * pairs and change < 0
          and abs(b_med - a_med) > (a_q3 - a_q1)):
        v = "better"
    else:
        v = "agree"
    return v, dict(a=(a_q1, a_med, a_q3), b=(b_q1, b_med, b_q3),
                   spread=spread, change=change, pairs=pairs, wins=wins)


def exact_mismatches(a_runs, b_runs):
    """Every run issues round r's defects with the same GA seed, so a
    (round, defect) request must end the same way in every run of
    either set. Returns (requests compared, list of mismatch strings)."""
    first, compared, bad = {}, 0, []
    for side, runs in (("A", a_runs), ("B", b_runs)):
        for run in runs:
            for q in run["requests"]:
                key = (q["round"], q["defect"])
                outcome = tuple(q[f] for f in EXACT_FIELDS)
                if key not in first:
                    first[key] = (side, run["meta"]["seed"], outcome)
                    continue
                compared += 1
                ref_side, ref_seed, ref = first[key]
                if outcome != ref:
                    bad.append("round %d %s: %s seed %s %r != %s seed %s %r"
                               % (key[0], key[1], side, run["meta"]["seed"],
                                  outcome, ref_side, ref_seed, ref))
    return compared, bad


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", nargs="+", required=True,
                    help="reference runs (--out JSON files)")
    ap.add_argument("--b", nargs="+", required=True,
                    help="candidate runs (--out JSON files)")
    ap.add_argument("--benchmark",
                    default=os.path.join(HERE, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a, b = load(args.a), load(args.b)
    ok = True
    fmt = "%-8s %-16s %-10s %10s %10s %10s | %10s %10s %10s  %7s %7s"
    print(fmt % ("workload", "metric", "verdict", "A q1", "A med", "A q3",
                 "B q1", "B med", "B q3", "spread", "change"))
    for workload in sorted(set(a) | set(b)):
        if workload not in a or workload not in b:
            print("%-8s only in one set; not compared" % workload)
            ok = False
            continue
        for m in metrics:
            v, d = verdict(m, a[workload], b[workload])
            ok &= v != "worse"
            print(fmt % (workload, m["name"], v, *("%.4g" % x for x in d["a"]),
                         *("%.4g" % x for x in d["b"]),
                         "%.1f%%" % (100 * d["spread"]),
                         "%+.1f%%" % (100 * d["change"])))
        compared, bad = exact_mismatches(a[workload], b[workload])
        print("%-8s outcomes: %d repeated requests compared, %d mismatches"
              % (workload, compared, len(bad)))
        for line in bad[:20]:
            print("    " + line)
        ok &= not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
