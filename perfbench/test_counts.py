"""Counter exactness of the layer trace.

Run from the root of a checkout (about two minutes):

    python3 -m pytest -q perfbench/test_counts.py

Each case runs the traced pass twice in one process and requires every
count to repeat exactly, so a later change may quote these counts. The
known values are the ones measured before this benchmark existed, at
the boundaries where that measurement and this trace agree: it did not
wrap the closed loops `unicycle` builds for its own constant chain, so
cascade calls under a `unicycle.chain` span are left out of them.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import workloads  # noqa: E402

CASES = {
    "theorem": (workloads.WORKLOADS["theorem"], {
        "cascade.f.calls": 155_632, "cascade.f.rows": 2_811_876,
        "cascade.g.calls": 62_000, "cascade.simulate_driven.calls": 476}),
    "double-integrator": (workloads.WORKLOADS["double-integrator"], {
        "integrate.rk45.calls": 40_312, "integrate.rk45.rhs_evals": 282_184}),
    "lyapunov-audit": ([("lyapunov-audit", None, 0)], {
        "cascade.f.calls": 724, "cascade.f.rows": 724 * 1_680}),
}


def _exact_counts(tracer) -> dict:
    """Every count of a traced pass: span calls per name plus counters."""
    out = {f"{name}.calls": calls for name, (calls, _, _) in tracer.summary().items()}
    out.update(tracer.counts)
    return out


def _outside_chain(tracer) -> dict:
    """Cascade calls and rows, leaving out those under a `unicycle.chain` span."""
    spans = tracer.spans
    in_chain = [False] * len(spans)
    for i, (name, _, _, parent, _, _) in enumerate(spans):
        in_chain[i] = parent >= 0 and (in_chain[parent] or spans[parent][0] == "unicycle.chain")
    counts = {}
    for key in ("cascade.f", "cascade.g"):
        outside = [s for i, s in enumerate(spans) if s[0] == key and not in_chain[i]]
        counts[f"{key}.calls"] = len(outside)
        counts[f"{key}.rows"] = sum(s[5] for s in outside)
    return counts


def _traced_pass(cli, spec, seed=0):
    workloads.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="test-", dir=workloads.OUT))
    tracer = layers.Tracer()
    tracer.install()
    try:
        runs = workloads.write_configs(spec, work)
        _, outcomes = workloads.run_pass(cli, runs, seed, work)
    finally:
        tracer.remove()
        shutil.rmtree(work, ignore_errors=True)
    assert workloads.failures(runs, outcomes, None) == 0
    return tracer


@pytest.mark.parametrize("case", sorted(CASES))
def test_counts_repeat_exactly(case):
    cli = workloads.import_cli()
    spec, known = CASES[case]
    first = _traced_pass(cli, spec)
    second = _traced_pass(cli, spec)
    assert _exact_counts(first) == _exact_counts(second)
    counts = _exact_counts(first)
    counts.update(_outside_chain(first))
    assert {key: counts[key] for key in known} == known
