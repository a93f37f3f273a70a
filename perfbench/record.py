"""Record the report digests that the correctness gate compares against.

Usage, from the root of a checkout:

    python3 perfbench/record.py

Runs one pass of every workload for each seed in `SEEDS` and writes the
sha256 of every report file to perfbench/reference.json. A pass whose exit codes
differ from the expected ones is refused, not recorded. Record again
only when a change alters report bytes on purpose, and say so in the
change log.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

SEEDS = range(16)


def main() -> int:
    cli = workloads.import_cli()
    workloads.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=workloads.OUT))
    table = {}
    try:
        for workload in workloads.WORKLOADS:
            runs = workloads.write_configs(workloads.WORKLOADS[workload], work)
            for seed in SEEDS:
                _, outcomes = workloads.run_pass(cli, runs, seed, work)
                if workloads.failures(runs, outcomes, None):
                    print(f"{workload} seed {seed}: unexpected exit codes "
                          f"{[code for code, _ in outcomes]}", file=sys.stderr)
                    return 1
                table.setdefault(workload, {})[str(seed)] = [d for _, d in outcomes]
                print(f"{workload} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
