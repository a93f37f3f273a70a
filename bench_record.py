"""Record the benchmark of this checkout in BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 bench_record.py

Runs `perfbench/run.py --trace 0` at seed 0 for every workload that
BENCHMARK.json declares, RUNS times each, for its `run_seconds`. Writes
BENCH_<n>.json here (n one past the highest present) with the machine,
each run's `correct`, `attempted` and `failed` as run.py reports them,
and each metric's median and quartiles across the runs. A metric whose
median is more than 10% worse than in BENCH_<n-1>.json is flagged, in
the file and on standard error. Uses the standard library only.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent
RUNS = 3
SEED = 0
WORSE = 0.10  # a median this much worse than the last record's is flagged


def _run(workload: str, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):  # 1: a run failed its check, still a measurement
        raise RuntimeError(f"perfbench/run.py --workload {workload}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    done = sorted(int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
                  if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    n = done[-1] + 1 if done else 1
    last = json.loads((ROOT / f"BENCH_{n - 1}.json").read_text()) if done else None
    record = {"machine": {"platform": platform.platform(), "python": platform.python_version(),
                          "cpus": os.cpu_count(), "loadavg": os.getloadavg()},
              "seed": SEED, "runs": RUNS, "run_seconds": spec["run_seconds"],
              "workloads": {}, "flags": []}
    for w in (w["name"] for w in spec["workloads"]):
        outs = [_run(w, spec["run_seconds"]) for _ in range(RUNS)]
        metrics = {}
        for name, unit in ((k, v["unit"]) for k, v in outs[0]["metrics"].items()):
            values = [o["metrics"][name]["value"] for o in outs]
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            metrics[name] = {"unit": unit, "median": statistics.median(values),
                             "q1": q1, "q3": q3, "values": values}
            old = last and last["workloads"].get(w, {}).get("metrics", {}).get(name)
            if old and name in better and old["median"]:
                change = (metrics[name]["median"] - old["median"]) / abs(old["median"])
                if (change if better[name] == "lower" else -change) > WORSE:
                    record["flags"].append(f"{w} {name}: {old['median']:.4g} -> "
                                           f"{metrics[name]['median']:.4g} {unit}")
        record["workloads"][w] = {
            "runs": [{k: o[k] for k in ("correct", "attempted", "failed")} for o in outs],
            "metrics": metrics}
    (ROOT / f"BENCH_{n}.json").write_text(json.dumps(record, indent=1) + "\n")
    for flag in record["flags"]:
        print(f"more than {WORSE:.0%} worse than BENCH_{n - 1}.json: {flag}", file=sys.stderr)
    print(f"wrote BENCH_{n}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
