#!/usr/bin/env python3
"""Re-records perfbench/pins.txt: the end-of-run digest of every workload
(the merged results-file hash for table2-sweep) for each pinned seed.

    python3 perfbench/record_pins.py

Run it only when a change is meant to alter simulation results; a
performance change must leave every pin as it is.
"""
import os
import re
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OP_LINE = re.compile(r'^# op \S+ ok .*"digest": "([0-9a-f]{16})"')


def main():
    run.build()
    lines = ["# perfbench digest pins: <workload> <seed> <fnv1a-64 hex>",
             "# Written by perfbench/record_pins.py."]
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.NamedTemporaryFile("w", suffix=".txt", dir=run.WORK) as empty:
        for workload in run.WORKLOADS:
            for seed in range(20):
                # --seconds 0 runs exactly one op.
                out = subprocess.run(
                    run.driver_cmd(workload, seed, 0, 0, pins=empty.name),
                    capture_output=True, text=True, check=True).stdout
                digests = [m.group(1) for m in map(OP_LINE.match, out.splitlines())
                           if m]
                if len(digests) != 1:
                    sys.exit("the op did not pass for %s seed %d:\n%s"
                             % (workload, seed, out))
                lines.append("%s %d %s" % (workload, seed, digests[0]))
                print(lines[-1], flush=True)
    with open(run.PINS, "w") as f:
        f.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
