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
