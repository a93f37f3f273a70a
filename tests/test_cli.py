"""Command-line contract: reports, digests, exit codes, determinism."""

import json

import numpy as np
import pytest

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
    cfg = write_config(tmp_path, {"wr": 0})
    out = tmp_path / "out"
    code = main(["run", "--experiment", "pe-check", "--config", cfg,
                 "--out", str(out)])
    assert code == 1
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["status"] == 1
    assert payload["seed"] == 0
    assert payload["config_hash"] == config_digest("pe-check", {"wr": 0}, 0)
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


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = write_config(tmp_path, {"wr": 0.8, "mu": 0.6, "L": 1.0})
    args = ["run", "--experiment", "pe-check", "--config", cfg, "--seed", "4"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    assert read_tree(tmp_path / "a") == read_tree(tmp_path / "b")


def test_worker_count_does_not_change_report_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_EXAMPLE1)
    base = ["run", "--experiment", "example1", "--config", cfg, "--seed", "2"]
    assert main(base + ["--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    assert main(base + ["--out", str(tmp_path / "pooled"), "--jobs", "4"]) == 0
    assert read_tree(tmp_path / "serial") == read_tree(tmp_path / "pooled")


def test_emit_report_handles_empty_tables(tmp_path):
    result = ExperimentResult("toy", 0, {"answer": 42},
                              {"empty": (["a", "b"], np.zeros((0, 2)))},
                              {"flat": (["x", "y"], np.array([[1.0, 2.0]]))})
    written = emit_report(result, tmp_path / "r", "abcdef012345", 3)
    names = sorted(p.name for p in written)
    assert names == ["empty.csv", "flat.dat", "metrics.json"]
    csv_lines = (tmp_path / "r" / "empty.csv").read_text().splitlines()
    assert csv_lines == ["# config=abcdef012345 seed=3", "a,b"]
    flat = (tmp_path / "r" / "flat.dat").read_text().splitlines()
    assert flat[-1] == "1.0 2.0"
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
