#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload table2-sweep|dense-2000 \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles ../src) into .bench_build/ in Release mode, then runs the driver
once. Build output goes to stderr; the driver's stdout is passed through,
and its last line is the JSON result. Exits non-zero without a result
when the build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
PINS = os.path.join(HERE, "pins.txt")
WORKLOADS = ("table2-sweep", "dense-2000")
# Wall budget of one driver run; a benchmark run must end within 180 s.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and incrementally builds the driver."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def describe():
    """git describe when available, plus a hash of the simulator sources."""
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        rev = git.stdout.strip() if git.returncode == 0 else "no-git"
    except (OSError, subprocess.TimeoutExpired):
        rev = "no-git"
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "%s src-sha256:%s" % (rev, h.hexdigest()[:16])


def driver_cmd(workload, seed, seconds, trace, pins=PINS):
    return [DRIVER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--pins", pins, "--work", WORK, "--describe", describe()]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("perfbench: --seed must be >= 0")
    build()
    try:
        proc = subprocess.run(
            driver_cmd(args.workload, args.seed, args.seconds, args.trace),
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: driver exited with %d" % proc.returncode)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
