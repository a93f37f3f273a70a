"""Command-line runner for the registered experiments.

`dtaudit run` executes one experiment and writes its report into a
directory: `metrics.json` with scalar results, one CSV per trajectory
table, and one whitespace-separated `.dat` file per plot series. Every
report file records the 12-hex digest of the canonical configuration
and the seed, and reruns of the same configuration are byte-identical.

Exit codes: 0 every audited claim held, 1 at least one claim was
falsified, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from ._integrate import IntegrationError, QuadratureError
from .cascade import DivergenceError
from .discretize import EstimateFailure
from .experiments import (ConfigError, ExperimentResult, list_experiments,
                          run_named)
from .numerics import EnvelopeFalsified
from .verdict import _plain

_NUMERIC_ERRORS = (IntegrationError, QuadratureError, DivergenceError,
                   EstimateFailure, EnvelopeFalsified, FloatingPointError,
                   ZeroDivisionError)


def config_digest(experiment: str, params: dict, seed: int) -> str:
    """12-hex digest of the canonical (sorted, compact) configuration."""
    canonical = json.dumps(
        {"experiment": experiment, "params": params, "seed": int(seed)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def emit_report(result: ExperimentResult, out_dir, digest: str, seed: int) -> list:
    """Write metrics.json plus all CSV tables and .dat plot series."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = f"# config={digest} seed={int(seed)}"
    written = []

    payload = {
        "experiment": result.name,
        "status": result.status,
        "config_hash": digest,
        "seed": int(seed),
        "metrics": _plain(result.metrics),
    }
    path = out / "metrics.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written.append(path)

    for stem in sorted(result.tables):
        cols, rows = result.tables[stem]
        path = out / f"{stem}.csv"
        lines = [header, ",".join(cols)]
        if rows.size:
            lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)

    for stem in sorted(result.plots):
        cols, rows = result.plots[stem]
        path = out / f"{stem}.dat"
        lines = [header, "# " + " ".join(cols)]
        if rows.size:
            lines.extend(" ".join(repr(float(v)) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtaudit",
        description="Numerical audits of sampled-data control designs.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write its report")
    run.add_argument("--experiment", required=True,
                     help="registered experiment name (see 'dtaudit list')")
    run.add_argument("--config", default=None,
                     help="JSON file overriding the experiment defaults")
    run.add_argument("--out", required=True, help="report output directory")
    run.add_argument("--seed", type=int, default=0,
                     help="seed for the seeded experiment draws (default 0)")

    sub.add_parser("list", help="list the registered experiments")
    return parser


def _load_params(path_str: str | None) -> dict:
    if path_str is None:
        return {}
    try:
        raw = Path(path_str).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file: {err}") from err
    try:
        params = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file is not valid JSON: {err}") from err
    if not isinstance(params, dict):
        raise ConfigError("config file must hold a JSON object")
    return params


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in list_experiments():
            print(name)
        return 0

    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        if Path(args.out).exists() and not Path(args.out).is_dir():
            raise ConfigError(f"--out {args.out} is a file, not a directory")
        params = _load_params(args.config)
        result = run_named(args.experiment, params, args.seed)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3

    digest = config_digest(args.experiment, params, args.seed)
    written = emit_report(result, args.out, digest, args.seed)
    outcome = "all claims held" if result.status == 0 else "at least one claim falsified"
    print(f"{result.name}: {outcome} (status {result.status}, "
          f"config {digest}, {len(written)} files in {args.out})")
    return result.status


if __name__ == "__main__":
    sys.exit(main())
