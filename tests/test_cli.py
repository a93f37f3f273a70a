"""Command-line contract: reports, digests, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtaudit
from dtaudit.cli import config_digest, emit_report, main
from dtaudit.experiments import ExperimentResult

FAST_EXAMPLE1 = {
    "T": 0.19,
    "n_random_T": 2,
    "n_states": 5,
    "decay_horizon_s": 2.0,
    "nonconv_steps": 200,
    "table_steps": 50,
}


def write_config(tmp_path, params, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(params))
    return str(path)


def read_tree(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_config_digest_is_frozen():
    assert config_digest("example1", {}, 0) == "f738d4a0ad8e"
    assert config_digest("pe-check", {"wr": 0}, 7) == "123deb9998aa"
    # any ingredient changes the digest
    assert config_digest("example1", {}, 1) != "f738d4a0ad8e"
    assert config_digest("example1", {"T": 0.1}, 0) != "f738d4a0ad8e"


def test_list_prints_registered_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["cascade-theorem-demo", "consistency-sweep", "example1",
                   "lyapunov-audit", "pe-check", "unicycle-compare"]


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = main(["run", "--experiment", "pe-check",
                 "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_malformed_config_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code = main(["run", "--experiment", "pe-check", "--config", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    bad.write_text("{nope")
    code = main(["run", "--experiment", "pe-check", "--config", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_unknown_experiment_is_exit_2(tmp_path, capsys):
    code = main(["run", "--experiment", "example-9", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_falsified_run_is_exit_1_with_report(tmp_path, capsys):
    params = {"refs": {"wr": {"kind": "const", "amplitude": 0.0}}}
    cfg = write_config(tmp_path, params)
    out = tmp_path / "out"
    code = main(["run", "--experiment", "pe-check", "--config", cfg,
                 "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["status"] == 1
    assert payload["seed"] == 0
    assert payload["config_hash"] == config_digest("pe-check", params, 0)
    assert payload["metrics"]["min_window_sum"] == 0.0
    dat = (out / "window_sums.dat").read_text().splitlines()
    assert dat[0] == f"# config={payload['config_hash']} seed=0"
    assert dat[1].startswith("# j t window_sum")


def test_passing_run_is_exit_0(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mu": 600.0})
    code = main(["run", "--experiment", "pe-check", "--config", cfg,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert "all claims held" in capsys.readouterr().out


def test_numeric_failure_is_exit_3(tmp_path, capsys):
    # a decay rate no admissible envelope scale can cover
    cfg = write_config(tmp_path, dict(FAST_EXAMPLE1, decay_rate=5.0,
                                      decay_horizon_s=20.0))
    code = main(["run", "--experiment", "example1", "--config", cfg,
                 "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, params, key", [
    ("unicycle-compare", {"refs": {"wr": {"kind": "cos"}}}, "reference kind"),
    ("unicycle-compare", {"plant": "rk4"}, "plant"),
    ("unicycle-compare", {"T": 0.0}, "T"),
    ("unicycle-compare", {"T": -0.01}, "T"),
    ("unicycle-compare", {"T": 1.0 / 70.0}, "T_max"),  # above the closed loop's T_max
    ("unicycle-compare", {"gains": {"a1": -1.0}}, "gains"),
    ("lyapunov-audit", {"T": 0.0}, "T"),
    ("cascade-theorem-demo", {"T": 0.0}, "T"),
    ("pe-check", {"T_list": [0.0]}, "T_list"),
    ("pe-check", {"T_list": [-0.01]}, "T_list"),
    ("pe-check", {"refs": {"wr": {"kind": "sin", "amplitude": 1.0, "frequency": 0.0}}},
     "frequency"),
    ("pe-check", {"refs": {"vr": 1.0, "wr": {"kind": "sin", "amplitude": 1.0,
                                             "freqency": 3.0}}, "mu": 0.1},
     "pe-check.refs.wr: freqency"),
    ("unicycle-compare", {"refs": {"wr": {"ampltude": 1.0}}}, "unicycle-compare.refs.wr: ampltude"),
    ("unicycle-compare", {"gains": {"a3": 1.0}}, "unicycle-compare.gains: a3"),
    ("unicycle-compare", {"refs": {"w_M": 5.0}}, "unicycle-compare.refs: w_M"),
    ("lyapunov-audit", {"grid_n": 1.5}, "lyapunov-audit.grid_n"),
    ("lyapunov-audit", {"margin_rows": "no"}, "lyapunov-audit.margin_rows"),
    ("example1", {"T": "0.19"}, "example1.T"),
    ("lyapunov-audit", {"T": "abc"}, "lyapunov-audit.T"),
    ("unicycle-compare", {"T": "abc"}, "unicycle-compare.T"),
    ("unicycle-compare", {"variants": "full"}, "unicycle-compare.variants"),
    ("unicycle-compare", {"initial_error": [1.0, 1.0]}, "unicycle-compare.initial_error"),
    ("example1", {"T_values": 0.1}, "example1.T_values"),
    ("consistency-sweep", {"k_set": 7}, "consistency-sweep.k_set"),
    ("cascade-theorem-demo", {"mu_grid": 0.1}, "cascade-theorem-demo.mu_grid"),
    ("consistency-sweep", {"n_samples": "x"}, "consistency-sweep.n_samples"),
    ("consistency-sweep", {"held_input": [0.5, "a"]}, "consistency-sweep.held_input[1]"),
    ("unicycle-compare", {"horizon_s": -1.0}, "unicycle-compare.horizon_s"),
    ("unicycle-compare", {"divergence_norm": -1.0}, "unicycle-compare.divergence_norm"),
    ("example1", {"n_states": 0}, "example1.n_states"),
    ("example1", {"table_steps": -1}, "example1.table_steps"),
    ("consistency-sweep", {"T_list": []}, "consistency-sweep.T_list"),
    ("consistency-sweep", {"n_samples": -5}, "consistency-sweep.n_samples"),
    ("consistency-sweep", {"k_set": [0, -7]}, "consistency-sweep.k_set[1]"),
    ("lyapunov-audit", {"grid_n": 0}, "lyapunov-audit.grid_n"),
    ("cascade-theorem-demo", {"theta_values": []}, "cascade-theorem-demo.theta_values"),
    ("cascade-theorem-demo", {"n_ball": -1}, "cascade-theorem-demo.n_ball"),
    ("pe-check", {"L": -1.0}, "pe-check.L"),
    ("cascade-theorem-demo", {"eta": 5.0},
     "cascade-theorem-demo.eta must be below cascade-theorem-demo.Delta"),
    ("consistency-sweep", {"T_list": [0.01, 0.01]},
     "consistency-sweep.T_list must hold distinct periods"),
    ("lyapunov-audit", {"regime": "bogus"}, "lyapunov-audit.regime must be 'demo' or 'validated'"),
    ("example1", {"T": True}, "example1.T"),
    ("unicycle-compare", {"gains": {"alpha_y": "x"}}, "unicycle-compare.gains.alpha_y"),
    ("consistency-sweep", {"euler_slope_window": [1.9]},
     "consistency-sweep.euler_slope_window must be a pair"),
    ("consistency-sweep", {"held_input": [0.5]}, "consistency-sweep.held_input must be a pair"),
    ("example1", {"T": -0.1}, "example1.T must be positive"),
    ("unicycle-compare", {"horizon_s": math.inf},
     "unicycle-compare.horizon_s must be a finite number"),
    ("pe-check", {"L": math.inf}, "pe-check.L must be a finite number"),
    ("lyapunov-audit", {"L_pe": math.inf}, "lyapunov-audit.L_pe must be a finite number"),
    ("example1", {"nonconv_floor": math.nan}, "example1.nonconv_floor must be a finite number"),
    ("unicycle-compare", {"horizon_s": 10 ** 400},
     "unicycle-compare.horizon_s must be a finite number"),
], ids=["compare-cos", "compare-rk4", "compare-T0", "compare-T-negative",
        "compare-T-above-T_max", "compare-negative-gain", "lyapunov-T0",
        "theorem-T0", "pe-T0", "pe-T-negative", "pe-frequency0",
        "pe-nested-typo", "compare-nested-typo", "compare-unknown-gain", "compare-w_M",
        "lyapunov-float-grid_n", "lyapunov-str-margin_rows", "example1-str-T",
        "lyapunov-T-abc", "compare-T-abc", "compare-str-variants", "compare-short-initial_error",
        "example1-scalar-T_values", "consistency-scalar-k_set", "theorem-scalar-mu_grid",
        "consistency-str-n_samples", "consistency-str-held_input",
        "compare-negative-horizon_s", "compare-negative-divergence_norm", "example1-n_states0",
        "example1-negative-table_steps", "consistency-empty-T_list",
        "consistency-negative-n_samples", "consistency-negative-k", "lyapunov-grid_n0",
        "theorem-empty-theta_values", "theorem-negative-n_ball", "pe-negative-L",
        "theorem-eta-not-below-Delta", "consistency-repeated-T", "lyapunov-unknown-regime",
        "example1-bool-T", "compare-str-alpha_y", "consistency-short-euler_slope_window",
        "consistency-short-held_input", "example1-negative-T", "compare-infinite-horizon_s",
        "pe-infinite-L", "lyapunov-infinite-L_pe", "example1-nan-nonconv_floor",
        "compare-int-beyond-float-horizon_s"])
def test_config_errors_are_exit_2(tmp_path, capsys, experiment, params, key):
    out = tmp_path / "out"
    code = main(["run", "--experiment", experiment,
                 "--config", write_config(tmp_path, params), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert key in err
    assert not out.exists()


def test_bad_command_line_values_are_exit_2(tmp_path, capsys):
    """Both are rejected before the experiment runs."""
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = write_config(tmp_path, FAST_EXAMPLE1)
    assert main(["run", "--experiment", "example1", "--config", cfg,
                 "--out", str(taken)]) == 2
    assert "--out" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--experiment", "example1", "--config", cfg,
                 "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment, params", [
    ("pe-check", {"refs": {"wr": {"kind": "const", "amplitude": 0.8}}, "mu": 0.6, "L": 1.0}),
    ("example1", FAST_EXAMPLE1),
    ("unicycle-compare", {"horizon_s": 1.0}),
    ("consistency-sweep", {"T_list": [0.003, 0.01, 0.03], "n_samples": 16, "k_set": [0, 7]}),
    ("lyapunov-audit", {"grid_n": 9, "radius": 2.0}),
    ("cascade-theorem-demo", {"T_list": [0.01, 0.02], "horizon_s": 20.0, "n_ball": 17,
                              "grid_n": 21}),
], ids=["pe-check", "example1", "unicycle-compare", "consistency-sweep", "lyapunov-audit",
        "cascade-theorem-demo"])
def test_rerun_is_byte_identical(tmp_path, capsys, experiment, params):
    """Two runs in one process write the same bytes and exit the same way,
    so no cache leaks from one run into the next."""
    cfg = write_config(tmp_path, params)
    args = ["run", "--experiment", experiment, "--config", cfg, "--seed", "4"]
    first = main(args + ["--out", str(tmp_path / "a")])
    assert first in (0, 1)
    assert main(args + ["--out", str(tmp_path / "b")]) == first
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_emit_report_handles_empty_tables(tmp_path):
    result = ExperimentResult("toy", 0, {"answer": 42},
                              {"empty": (["a", "b"], np.zeros((0, 2)))},
                              {"flat": (["x", "y"], np.array([[1.0, 2.0]])),
                               "ints": (["k", "n"], np.array([[1, -2], [0, 3]]))})
    written = emit_report(result, tmp_path / "r", "abcdef012345", 3)
    names = sorted(p.name for p in written)
    assert names == ["empty.csv", "flat.dat", "ints.dat", "metrics.json"]
    csv_lines = (tmp_path / "r" / "empty.csv").read_text().splitlines()
    assert csv_lines == ["# config=abcdef012345 seed=3", "a,b"]
    flat = (tmp_path / "r" / "flat.dat").read_text().splitlines()
    assert flat[-1] == "1.0 2.0"
    # an int column is written as a float
    ints = (tmp_path / "r" / "ints.dat").read_text().splitlines()
    assert ints[-2:] == ["1.0 -2.0", "0.0 3.0"]
    payload = json.loads((tmp_path / "r" / "metrics.json").read_text())
    assert payload["metrics"] == {"answer": 42}


def test_unicycle_compare_report_is_strict_json(tmp_path):
    """A diverging variant is scored up to its first divergent step only, so
    metrics.json holds no Infinity or NaN and the run still exits 1."""
    out = tmp_path / "out"
    assert main(["run", "--experiment", "unicycle-compare", "--out", str(out)]) == 1

    def reject(name):
        raise ValueError(f"non-finite constant {name} in metrics.json")

    payload = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
    scaled = payload["metrics"]["variants"]["scaled"]
    assert scaled["diverged"] is True
    assert scaled["first_divergent_step"] == 101
    assert scaled["final_norm"] <= payload["metrics"]["config"]["divergence_norm"]
    lines = (out / "trajectory_scaled.csv").read_text().splitlines()
    assert len(lines) == 2 + 101  # header, columns, steps 0..100


def test_cli_import_defers_scipy_submodules():
    """Starting the CLI loads no scipy module: the closed-form map computes
    its exponential in-module, and no package module imports scipy."""
    code = ("import sys, dtaudit.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=str(Path(dtaudit.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


REFUSE_SCIPY = """
import json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")

sys.meta_path.insert(0, RefuseScipy())
from dtaudit.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_every_experiment_runs_with_scipy_imports_refused(tmp_path):
    """All six experiments run in a fresh interpreter whose import system
    refuses scipy, each with the exit code its config has elsewhere here:
    unicycle-compare's 1 is the scaled variant's known divergence."""
    runs = [("example1", FAST_EXAMPLE1, 0), ("unicycle-compare", {}, 1),
            ("consistency-sweep", {}, 0), ("lyapunov-audit", {}, 0), ("pe-check", {}, 0),
            ("cascade-theorem-demo", {}, 0)]
    argvs = [["run", "--experiment", name, "--config",
              write_config(tmp_path, params, f"{name}.json"), "--out", str(tmp_path / name)]
             for name, params, _ in runs]
    env = dict(os.environ, PYTHONPATH=str(Path(dtaudit.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", REFUSE_SCIPY, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    assert json.loads(out.stdout.splitlines()[-1]) == [code for _, _, code in runs]


def test_case_constants_leave_scipy_optimize_unimported():
    """T3_star is solved in-module, so the constant chain loads no scipy.optimize."""
    code = ("import sys; from dtaudit import compute_case_constants, validated_gains, "
            "validated_references; compute_case_constants(validated_references(), "
            "validated_gains(), T_star=0.01, L_pe=2.0, grid_n=5); "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(dtaudit.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
