#!/usr/bin/env python3
"""Self-tests of the benchmark itself (a few minutes on 4 cores):

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit in
both modes on every workload, that every op passes its gate, that a
corrupted pin counts as a failed op, and that the seed drives the inputs.
Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))


def check(cond, what):
    if not cond:
        sys.exit("selftest FAILED: " + what)
    print("ok   " + what, flush=True)


def drive(workload, trace, seed=1, pins=run.PINS):
    """One driver run with a single pass; returns the result object."""
    out = subprocess.run(run.driver_cmd(workload, seed, 0, trace, pins=pins),
                         capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    check(out.returncode == 0, "%s trace=%d exits 0" % (workload, trace))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          "%s trace=%d result has exactly the contract keys" % (workload, trace))
    return result


def check_metrics(workload, trace, result, spec):
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, "%s trace=%d emits every named metric with its unit"
          % (workload, trace))
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          "%s trace=%d: every op passes its gate" % (workload, trace))


def scenario_text(workload, seed):
    return subprocess.run([run.DRIVER, "--workload", workload, "--seed", str(seed),
                           "--print-scenario"], capture_output=True, text=True,
                          check=True).stdout


def main():
    run.build()
    names = [w["name"] for w in SPEC["workloads"]]
    check(sorted(names) == sorted(run.WORKLOADS), "BENCHMARK.json names the driver's workloads")

    for workload in names:
        a, b = scenario_text(workload, 1), scenario_text(workload, 2)
        check(a == scenario_text(workload, 1), "%s: same seed, same inputs" % workload)
        check(a != b, "%s: another seed changes the inputs" % workload)

    for workload in names:
        check_metrics(workload, 0, drive(workload, 0), SPEC["end_to_end"])
        check_metrics(workload, 1, drive(workload, 1), SPEC["per_layer"])

    # A pin that no longer matches the program must fail the op.
    os.makedirs(run.WORK, exist_ok=True)
    bad = os.path.join(run.WORK, "corrupted-pins.txt")
    flipped = 0
    with open(run.PINS) as src, open(bad, "w") as dst:
        for line in src:
            parts = line.split()
            if parts[:2] == ["dense-2000", "1"]:
                parts[2] = "%016x" % (int(parts[2], 16) ^ 1)
                line = " ".join(parts) + "\n"
                flipped += 1
            dst.write(line)
    check(flipped == 1, "pins hold dense-2000 seed 1")
    result = drive("dense-2000", 0, pins=bad)
    check(result["failed"] >= 1 and not result["correct"],
          "a corrupted pin is reported as a failed op")
    os.remove(bad)


if __name__ == "__main__":
    main()
