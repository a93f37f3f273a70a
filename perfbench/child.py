"""The timed passes of one workload, in a fresh interpreter.

Usage: python3 perfbench/child.py --workload NAME --seed N --seconds S

Imports dtaudit, runs one untimed warm-up pass, reads the process's peak
resident set size (so it covers the import and exactly one pass), then
repeats timed passes until their sum reaches S seconds. Prints one JSON
line: the peak RSS in KiB, the registered experiment names, each timed
pass's seconds, and every pass's exit codes and report digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    try:
        cli = workloads.import_cli()
    except workloads.SourceMissing as err:
        print(err, file=sys.stderr)
        return 2
    workloads.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="child-", dir=workloads.OUT))
    try:
        runs = workloads.write_configs(workloads.WORKLOADS[args.workload], work)
        _, outcomes = workloads.run_pass(cli, runs, args.seed, work)
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passes, walls = [outcomes], []
        while sum(walls) < args.seconds:
            wall, outcomes = workloads.run_pass(cli, runs, args.seed, work)
            passes.append(outcomes)
            walls.append(wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"maxrss_kb": maxrss_kb, "experiments": cli.list_experiments(),
                      "walls": walls, "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
