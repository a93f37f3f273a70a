"""Workload definitions and the in-process pass runner.

A pass runs every experiment of one workload through `dtaudit.cli.main`,
exactly as `dtaudit run` does, each into a fresh report directory, and
returns the wall time of the CLI calls together with the exit code and
the sha256 of every report file. The benchmark never passes `--jobs`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The acceptance-test configuration of the theorem demo: the default
# configuration runs the same code but takes about 22 s per pass.
THEOREM_CONFIG = {"T_list": [0.01, 0.02], "horizon_s": 20.0, "n_ball": 17, "grid_n": 21}

# workload -> [(experiment, config or None, expected exit code)]
WORKLOADS = {
    "theorem": [("cascade-theorem-demo", THEOREM_CONFIG, 0)],
    "double-integrator": [("example1", None, 0)],
    # unicycle-compare carries the known-failing claim, so it exits 1.
    "grid-audits": [("lyapunov-audit", None, 0), ("consistency-sweep", None, 0),
                    ("unicycle-compare", None, 1), ("pe-check", None, 0)],
}


class SourceMissing(RuntimeError):
    """The checkout holds no `src/dtaudit` to benchmark."""


def check_source():
    """Raise `SourceMissing` unless this checkout holds `src/dtaudit`."""
    if not (SRC / "dtaudit" / "cli.py").is_file():
        raise SourceMissing(f"no dtaudit sources under {SRC}")


def import_cli():
    """Import `dtaudit.cli` from this checkout's `src`, never from elsewhere."""
    check_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from dtaudit import cli
    if Path(cli.__file__).resolve().parent != SRC / "dtaudit":
        raise SourceMissing(f"dtaudit was imported from {cli.__file__}, not {SRC}")
    return cli


def write_configs(spec, work_dir: Path) -> list:
    """Write the config file of each (experiment, config, code) in `spec`.

    Returns the runs of a pass: (experiment, config path or None, code).
    """
    runs = []
    for i, (experiment, config, code) in enumerate(spec):
        path = None
        if config is not None:
            path = work_dir / f"config-{i}.json"
            path.write_text(json.dumps(config, sort_keys=True))
        runs.append((experiment, path, code))
    return runs


def digest_dir(path: Path) -> dict:
    """sha256 of every file in a report directory, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(path.iterdir())}


def run_pass(cli, runs, seed: int, work_dir: Path) -> tuple:
    """One pass over `runs` with fresh report directories.

    Returns (seconds spent in `cli.main`, [(exit code or exception name,
    {file: sha256})]). Report hashing happens outside the timed region.
    """
    elapsed = 0.0
    outcomes = []
    for i, (experiment, config, _) in enumerate(runs):
        out = work_dir / f"report-{i}"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["run", "--experiment", experiment, "--out", str(out), "--seed", str(seed)]
        if config is not None:
            argv += ["--config", str(config)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
        except Exception as err:  # a crashing run counts as failed, not fatal
            traceback.print_exc()
            code = type(err).__name__
        elapsed += time.perf_counter() - t0
        outcomes.append((code, digest_dir(out) if out.is_dir() else {}))
        shutil.rmtree(out, ignore_errors=True)
    return elapsed, outcomes


def failures(runs, outcomes, expected) -> int:
    """Count runs whose exit code or report bytes differ from `expected`.

    `expected` is a list of {file: sha256}, one per run, or None to check
    exit codes only.
    """
    bad = 0
    for i, ((_, _, code), (got_code, digests)) in enumerate(zip(runs, outcomes)):
        if got_code != code or (expected is not None and digests != expected[i]):
            bad += 1
    return bad
