#!/usr/bin/env python3
"""Smoke test of e2e_bench (ctest -L e2e).

Runs every workload of BENCHMARK.json at smoke size (1-2 defects, one
round, small population), untraced and traced, and checks that:

  - the last stdout line is the result object, correct and non-empty;
  - every metric BENCHMARK.json lists is printed with its unit;
  - the traced and untraced runs have the same outcomes and counts;
  - the Chrome trace parses and every parent id resolves;
  - SIGINT mid-run and a daemon that dies mid-run both end the service
    workload cleanly;
  - no `cirfix serve` child or state dir survives any of it.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL " + what, flush=True)


def daemons(work_dir):
    """PIDs of live processes started with an argument under work_dir."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open("/proc/%s/cmdline" % pid, "rb") as f:
                argv = f.read().split(b"\0")
            with open("/proc/%s/stat" % pid) as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and b"serve" in argv and any(
                work_dir.encode() in a for a in argv):
            found.append(int(pid))
    return found


def leftovers(work_dir):
    return [d for d in os.listdir(work_dir) if d.startswith("svc-")]


def run_bench(args, workload, trace, tag):
    out = os.path.join(args.work_dir, "%s-%s.json" % (workload, tag))
    cmd = [args.bench, "--workload", workload, "--smoke",
           "--trace", str(trace), "--out", out, "--work-dir", args.work_dir]
    trace_file = None
    if trace:
        trace_file = os.path.join(args.work_dir, workload + ".trace.json")
        cmd += ["--trace-file", trace_file]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    check(p.returncode == 0, "%s %s exits 0 (got %d): %s"
          % (workload, tag, p.returncode, p.stderr.strip()[-500:]))
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    check(set(result) == RESULT_KEYS,
          "%s %s result keys are %s" % (workload, tag, sorted(RESULT_KEYS)))
    check(result.get("correct") is True, "%s %s correct" % (workload, tag))
    check(result.get("attempted", 0) >= 1, "%s %s attempted" % (workload, tag))
    with open(out) as f:
        doc = json.load(f)
    return result, doc, trace_file


def check_metrics(workload, tag, result, listed):
    got = result.get("metrics", {})
    check(set(got) == {m["name"] for m in listed},
          "%s %s prints exactly the listed metrics" % (workload, tag))
    for m in listed:
        v = got.get(m["name"], {})
        check(v.get("unit") == m["unit"] and
              isinstance(v.get("value"), (int, float)),
              "%s %s metric %s has unit %s" % (workload, tag, m["name"],
                                                m["unit"]))


def check_trace(workload, path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    ids = {e["args"]["id"] for e in events}
    dangling = [e for e in events
                if e["args"]["parent"] not in ids and e["args"]["parent"]]
    check(events, "%s trace has spans" % workload)
    check(not dangling, "%s trace: %d spans with an unknown parent"
          % (workload, len(dangling)))


def interrupt_service(args, kill_daemon):
    """Start a full-size service run and either SIGINT the bench or
    SIGTERM its daemon once jobs are flowing."""
    what = "daemon death" if kill_daemon else "SIGINT"
    p = subprocess.Popen([args.bench, "--workload", "service",
                          "--seconds", "60", "--work-dir", args.work_dir],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    deadline = time.time() + 30
    while time.time() < deadline and not daemons(args.work_dir):
        time.sleep(0.05)
    time.sleep(2.0)
    if kill_daemon:
        for pid in daemons(args.work_dir):
            os.kill(pid, signal.SIGTERM)
    else:
        p.send_signal(signal.SIGINT)
    try:
        out, err = p.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        p.kill()
        out, err = p.communicate()
        check(False, "service run ends promptly after %s" % what)
    if kill_daemon:
        result = json.loads(out.strip().splitlines()[-1])
        check(p.returncode == 0 and result["failed"] >= 1,
              "a dead daemon counts failed requests (exit %d, %s)"
              % (p.returncode, err.strip()[-300:]))
    else:
        check(p.returncode == 130, "SIGINT exits 130 (got %d)"
              % p.returncode)
        check(not out.strip().endswith("}"),
              "an interrupted run prints no result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()
    args.work_dir = os.path.abspath(args.work_dir)
    os.makedirs(args.work_dir, exist_ok=True)
    with open(args.benchmark_json) as f:
        spec = json.load(f)

    for w in spec["workloads"]:
        name = w["name"]
        plain, plain_doc, _ = run_bench(args, name, 0, "untraced")
        traced, traced_doc, trace_file = run_bench(args, name, 1, "traced")
        check_metrics(name, "untraced", plain, spec["end_to_end"])
        check_metrics(name, "traced", traced, spec["per_layer"])
        same = [(r["found"], r["generations"], r["evals"], r["digest"])
                for r in plain_doc["requests"]] == [
                    (r["found"], r["generations"], r["evals"], r["digest"])
                    for r in traced_doc["requests"]]
        check(same and plain_doc["outcome_digest"] ==
              traced_doc["outcome_digest"],
              "%s traced and untraced outcomes match" % name)
        check_trace(name, trace_file)
        check(not daemons(args.work_dir), "%s leaves no daemon" % name)

    interrupt_service(args, kill_daemon=False)
    interrupt_service(args, kill_daemon=True)
    check(not daemons(args.work_dir), "no daemon survives the smoke test")
    check(not leftovers(args.work_dir), "no daemon state dir is left behind")
    print("smoke: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
