"""Smoke tests of the demo scripts.

Each demo runs in a fresh interpreter against this checkout's package;
the test checks its exit code and the verdict lines it prints.
"""

import os
import subprocess
import sys
from pathlib import Path

import dtaudit

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(dtaudit.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, str(DEMOS / name)], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_falsify_and_bound_demo():
    lines = _run_demo("falsify_and_bound.py").splitlines()
    assert lines[0].startswith("contraction vs claim: pass |")
    assert lines[1].startswith("expansion vs claim:   falsified |")
    assert "witness: T=0.02, k0=0, y0=(-2.0,), step k=14" in lines
    measured = next(line for line in lines if "measured" in line).split()[1]
    replayed = next(line for line in lines if "replayed" in line).split()[-1]
    assert replayed == measured  # the printed witness replays


def test_cascade_theorem_audit_demo():
    lines = _run_demo("cascade_theorem_audit.py").splitlines()
    for verdict_line in ("  driving_decay        pass",
                         "  unforced_decay       pass",
                         "  small_inputs         pass (input margin mu* = 0.2)",
                         "  interconnection      pass",
                         "  growth_certificate   pass",
                         "  cascade decay      pass",
                         "  cascade bounded    pass",
                         "hypotheses hold:  True",
                         "conclusions hold: True",
                         "doctored coupling caught: True",
                         "experiment status: 0 (0 means every claim held)"):
        assert verdict_line in lines


def test_lyapunov_chain_audit_demo():
    lines = [line.strip() for line in _run_demo("lyapunov_chain_audit.py").splitlines()]
    assert lines[0].endswith("first broken rung = c1")
    assert "all rungs valid: True" in lines
    assert "decrease audit on the 41x41 grid: pass" in lines


def test_consistency_orders_demo():
    """The printed table is the one the sweep over each period's full range
    of step indices has always printed."""
    lines = _run_demo("consistency_orders.py").splitlines()
    assert lines[:8] == [
        "         T  first-order err   quadrature err",
        "   0.10000        3.232e-03        3.015e-03",
        "   0.04642        6.959e-04        6.488e-04",
        "   0.02154        1.499e-04        1.397e-04",
        "   0.01000        3.229e-05        3.009e-05",
        "   0.00464        6.956e-06        6.481e-06",
        "   0.00215        1.499e-06        1.396e-06",
        "   0.00100        3.229e-07        3.008e-07",
    ]
    assert lines[8:] == ["first-order: fitted order 2.000", "quadrature: fitted order 2.000"]


def test_double_integrator_gap_demo():
    lines = _run_demo("double_integrator_gap.py").splitlines()
    radii = [line.split()[-1] for line in lines[2:6]]
    assert radii == ["1.000000"] * 4  # the sampled plant keeps a unit-circle mode
    floors = [line for line in lines if line.startswith("  T=")]
    assert [line.split()[1] for line in floors] == ["0.6928", "0.7088"]
    assert all(float(line.split()[-1]) < 1e-9 for line in floors)  # proxy agrees
    assert lines[-1] == "the model's envelope promises decay; the plant holds at ~72%"


def test_unicycle_tracking_demo():
    lines = _run_demo("unicycle_tracking.py").splitlines()
    rows = {line.split()[0]: line.split()[1:3] for line in lines[3:6]}
    assert rows == {"none": ["False", "154"], "scaled": ["True", "None"],
                    "full": ["False", "114"]}
    assert "halved correction leaves the safe region at step 101" in lines
    assert lines[-3].endswith("the correction lowers the integrated error")
    assert lines[-1] == ("heading error at step 150: 6.844574e-08 (geometric law"
                         " gives 6.844574e-08)")
