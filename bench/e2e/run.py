#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 bench/e2e/run.py --workload repair --seed 1000 --seconds 14 --trace 0

Run it from the root of a CirFix checkout. The first call configures and
builds an optimized `e2e_bench` and `cirfix` under .bench_build/e2e;
later calls only rebuild what changed. All build output goes to stderr,
so the last line of stdout is e2e_bench's result object. Extra flags
(--out F, --trace-file F, --smoke) are passed through to e2e_bench.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", build_dir, "-j",
                        str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--seconds", type=float, default=14)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = ap.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        print("run.py: no CirFix sources at %s; run from a full checkout"
              % ROOT, file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, ".bench_build", "e2e")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    argv = [os.path.join(build_dir, "e2e_bench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir] + passthrough
    sys.stdout.flush()
    sys.stderr.flush()
    # Replace this process, so signals reach e2e_bench directly and no
    # child outlives the command.
    os.execv(argv[0], argv)


if __name__ == "__main__":
    sys.exit(main())
