"""dtaudit benchmark: run one workload, check its reports, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theorem --seed 0 --seconds 20 --trace 0

Workloads are listed in `workloads.WORKLOADS`; see perfbench/README.md
for why each exists and what every metric means. With `--trace 0` the
run reports the gated end-to-end metrics, with `--trace 1` the per-layer
metrics of a separate traced pass. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when any run failed its check, 2 when the checkout holds no
dtaudit sources (nothing is printed to standard output then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _expected_digests(workload: str, seed: int):
    """Recorded report digests for this seed, or None when not recorded."""
    table = json.loads(workloads.REFERENCE.read_text()).get(workload, {})
    return table.get(str(seed))


def _setup_once(expected, gate) -> float:
    """Seconds for a fresh interpreter to finish `dtaudit list`; checks its output."""
    env = dict(os.environ, PYTHONPATH=str(workloads.SRC))
    code = "import sys; from dtaudit.cli import main; sys.exit(main(['list']))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=workloads.ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    gate.attempted += 1
    gate.failed += proc.returncode != 0 or proc.stdout.split() != expected
    return elapsed


def _child(workload: str, seed: int, seconds: float) -> dict:
    """Warm-up and timed passes in a fresh interpreter; see child.py."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=workloads.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Gate:
    """Counts attempted and failed runs against the expected codes and bytes."""

    def __init__(self, runs, expected):
        self.runs = runs
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, outcomes):
        if self.expected is None:
            # unrecorded seed: the first pass sets the bytes every later pass must repeat
            self.expected = [digests for _, digests in outcomes]
        self.attempted += len(outcomes)
        self.failed += workloads.failures(self.runs, outcomes, self.expected)


def _end_to_end(workload, seed, seconds, gate):
    child = _child(workload, seed, seconds)
    for outcomes in child["passes"]:
        gate.check(outcomes)
    walls = child["walls"]
    setup = [_setup_once(child["experiments"], gate) for _ in range(SETUP_RUNS)]
    rss_mb = child["maxrss_kb"] / 1024.0
    ok_ratio = (gate.attempted - gate.failed) / gate.attempted

    q1, q3 = _quartiles(walls)
    print(f"{workload}, seed {seed}: {len(walls)} timed passes")
    print(f"  wall_s       {statistics.median(walls):.4f} s   (q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  setup_s      {statistics.median(setup):.4f} s   ({len(setup)} fresh interpreters)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    print(f"  ok_ratio     {ok_ratio:.4f}   ({gate.failed} of {gate.attempted} runs failed)")
    return {"wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "ok_ratio": (ok_ratio, "ratio")}


def _per_layer(cli, workload, seed, runs, work, gate):
    import layers
    import micro

    _, outcomes = workloads.run_pass(cli, runs, seed, work)  # untimed warm-up
    gate.check(outcomes)
    plain, outcomes = workloads.run_pass(cli, runs, seed, work)
    gate.check(outcomes)

    tracer = layers.Tracer()
    tracer.pass_id = 1
    tracer.install()
    try:
        traced, outcomes = workloads.run_pass(cli, runs, seed, work)
    finally:
        tracer.remove()
    gate.check(outcomes)
    tracer.write_spans(workloads.OUT / f"spans-{workload}.csv")

    metrics = layers.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    metrics.update(micro.micro_metrics(seed))
    print(f"{workload}, seed {seed}: traced pass {traced:.3f} s, untraced {plain:.3f} s, "
          f"{len(tracer.spans)} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:.6g} {unit}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed passes continue until their sum reaches this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        cli = workloads.import_cli() if args.trace else workloads.check_source()
    except workloads.SourceMissing as err:
        print(err, file=sys.stderr)
        return 2

    workloads.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=workloads.OUT))
    try:
        runs = workloads.write_configs(workloads.WORKLOADS[args.workload], work)
        gate = Gate(runs, _expected_digests(args.workload, args.seed))
        if args.trace:
            metrics = _per_layer(cli, args.workload, args.seed, runs, work, gate)
        else:
            metrics = _end_to_end(args.workload, args.seed, args.seconds, gate)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
