"""Registered experiments: configs, aliases, and reproducibility."""

import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dtaudit import (ConfigError, closed_loop_euler_cascade, experiments, list_experiments,
                     run_named, sample_ball, validated_gains, validated_references)
from dtaudit.cli import main
from dtaudit.verdict import _plain

EXAMPLE1_FAST = {
    "T": 0.19,
    "n_random_T": 2,
    "n_states": 5,
    "decay_horizon_s": 2.0,
    "nonconv_steps": 200,
    "table_steps": 50,
}


def test_registry_lists_six_experiments_sorted():
    names = list_experiments()
    assert names == ["cascade-theorem-demo", "consistency-sweep", "example1",
                     "lyapunov-audit", "pe-check", "unicycle-compare"]
    assert names == sorted(names)


def test_unknown_experiment_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown experiment"):
        run_named("example-2", {})


def test_inline_name_must_match_requested_experiment():
    with pytest.raises(ConfigError, match="pe-check"):
        run_named("example1", {"name": "pe-check"})
    # a matching inline name is just dropped
    res = run_named("pe-check", {"name": "pe-check", "wr": 0})
    assert res.status == 1


def test_unknown_option_is_named_in_the_error():
    with pytest.raises(ConfigError, match="bogus"):
        run_named("example1", {"bogus": 3})
    with pytest.raises(ConfigError, match="wrr"):
        run_named("pe-check", {"wrr": 0})


@pytest.mark.parametrize("name, defaults", [
    ("example1", experiments._EXAMPLE1_DEFAULTS),
    ("unicycle-compare", experiments._COMPARE_DEFAULTS),
    ("consistency-sweep", experiments._CONSISTENCY_DEFAULTS),
    ("lyapunov-audit", experiments._LYAP_DEFAULTS),
    ("pe-check", experiments._PE_DEFAULTS),
    ("cascade-theorem-demo", experiments._THEOREM_DEFAULTS),
])
def test_defaults_pass_their_own_parser_unchanged(name, defaults):
    """A tuple default types its elements like its first one, so every
    element of every default must have the first one's type."""
    merged = experiments._with_defaults(defaults, defaults, name)
    assert repr(merged) == repr(defaults)


def test_typed_parser_casts_ints_to_floats_but_never_bools():
    p = experiments._with_defaults({"T": 1, "T_list": [1, 0.5], "gains": {"a1": 2}},
                                   {"T": 0.5, "T_list": (0.1,), "gains": {"a1": 1.0, "a2": 3.0}},
                                   "toy")
    assert repr(p) == "{'T': 1.0, 'T_list': (1.0, 0.5), 'gains': {'a1': 2.0, 'a2': 3.0}}"
    for bad, where in (({"T": True}, "toy.T"), ({"n": 2.0}, "toy.n"), ({"n": False}, "toy.n"),
                       ({"on": 1}, "toy.on"), ({"gains": 1.0}, "toy.gains")):
        with pytest.raises(ConfigError, match=where):
            experiments._with_defaults(bad, {"T": 0.5, "n": 3, "on": True, "gains": {}}, "toy")


def test_example1_scalar_period_shorthand():
    res = run_named("example1", EXAMPLE1_FAST, seed=0)
    assert res.status == 0
    spectra = res.metrics["spectra"]
    assert len(spectra) == 1
    assert spectra[0]["T"] == 0.19
    assert res.metrics["euler_eig_deviation"] <= 1e-10
    assert res.metrics["exact_unit_circle_deviation"] <= 1e-6
    assert res.metrics["measured_sup_ratio"] <= res.metrics["envelope_b"] * (1 + 1e-6)
    assert res.metrics["nonconvergence_min_ratio"] >= 0.1
    assert set(res.tables) == {"trajectory_euler", "trajectory_exact"}
    assert "eigenvalues" in res.plots


def test_example1_rejects_period_outside_half():
    with pytest.raises(ConfigError, match="inside"):
        run_named("example1", {"T": 0.6})


def test_example1_same_seed_reproduces_metrics():
    a = run_named("example1", EXAMPLE1_FAST, seed=11)
    b = run_named("example1", EXAMPLE1_FAST, seed=11)
    assert json.dumps(_plain(a.metrics), sort_keys=True) == \
        json.dumps(_plain(b.metrics), sort_keys=True)
    for stem in a.tables:
        assert np.array_equal(a.tables[stem][1], b.tables[stem][1])


def test_pe_check_turn_rate_shorthand():
    res = run_named("pe-check", {"wr": 0})
    assert res.status == 1
    assert res.metrics["min_window_sum"] == 0.0
    assert res.metrics["verdict"]["kind"] == "falsified"
    res = run_named("pe-check", {"wr": 0.8, "mu": 0.6, "L": 1.0})
    assert res.status == 0
    assert res.metrics["min_window_sum"] >= 0.6


def test_pe_check_full_reference_description():
    res = run_named("pe-check", {"refs": {"vr": 1.0,
                                          "wr": {"kind": "sin", "amplitude": 20.0}}})
    assert res.status == 0
    assert "window_sums" in res.plots
    with pytest.raises(ConfigError, match="bad reference"):
        run_named("pe-check", {"refs": {"vr": 1.0,
                                        "wr": {"kind": "triangle", "amplitude": 1.0}}})


def test_pe_check_covers_the_whole_reference_period():
    """omega_r = sin(t/3) has period 6 pi; its weak windows lie past 2 pi."""
    res = run_named("pe-check", {"wr": {"kind": "sin", "amplitude": 1.0,
                                        "frequency": 1.0 / 3.0},
                                 "L": 2.0, "mu": 0.2})
    assert res.status == 1
    witness = res.metrics["verdict"]["witness"]
    assert witness["measured"] < 0.2
    assert witness["initial_state"][0] > 2.0 * math.pi
    assert res.metrics["min_window_sum"] == pytest.approx(0.0735, abs=1e-4)


def test_consistency_sweep_only_knows_the_unicycle_plant():
    with pytest.raises(ConfigError, match="unicycle"):
        run_named("consistency-sweep", {"plant": "pendulum"})


def test_consistency_sweep_trimmed_orders():
    res = run_named("consistency-sweep",
                    {"T_list": tuple(np.logspace(-2.5, -1.0, 4)),
                     "n_samples": 16, "k_set": (0, 7)})
    assert res.status == 0
    assert 1.85 <= res.metrics["euler_slope"] <= 2.15
    assert res.metrics["modified_euler_slope"] >= 1.9
    table = res.tables["consistency_euler"][1]
    # rows run largest period first, so the error column shrinks
    assert table[0, 1] > table[-1, 1]


def test_unicycle_compare_structure():
    res = run_named("unicycle-compare", {"horizon_s": 0.3})
    assert set(res.metrics["variants"]) == {"none", "scaled", "full"}
    for name, m in res.metrics["variants"].items():
        assert m["ise_position"] >= 0.0
        assert isinstance(m["diverged"], bool)
    assert "ise_scaled_below_none" in res.metrics
    assert "ise_full_below_none" in res.metrics
    assert set(res.tables) == {"trajectory_none", "trajectory_scaled", "trajectory_full"}
    assert set(res.plots) == {"errors_none", "errors_scaled", "errors_full"}
    with pytest.raises(ConfigError, match="bogus"):
        run_named("unicycle-compare", {"bogus": 1})
    with pytest.raises(ConfigError, match="variant"):
        run_named("unicycle-compare", {"variants": []})


def test_unicycle_compare_exact_proxy_plant_runs():
    """The integrated plant under held inputs: none and full track, and the
    run returns instead of failing on the single-row controller output."""
    res = run_named("unicycle-compare", {"plant": "exact-proxy", "horizon_s": 1.0})
    assert set(res.metrics["variants"]) == {"none", "scaled", "full"}
    assert not res.metrics["variants"]["none"]["diverged"]
    assert not res.metrics["variants"]["full"]["diverged"]
    assert len(res.tables["trajectory_full"][1]) == 101


def test_unicycle_compare_initial_error_past_divergence_norm(tmp_path):
    """An initial error already beyond divergence_norm scores every variant
    as diverged at step 0 with no rows, and the run exits 1 with a report
    that compares no integrated errors, since no variant has a scored row."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"initial_error": [1e7, 0.0, 0.0]}))
    out = tmp_path / "out"
    assert main(["run", "--experiment", "unicycle-compare", "--config", str(cfg),
                 "--out", str(out)]) == 1
    metrics = json.loads((out / "metrics.json").read_text())["metrics"]
    assert metrics["any_diverged"] and not metrics["all_settled"]
    for m in metrics["variants"].values():
        assert m["diverged"] and m["first_divergent_step"] == 0
        assert m["peak_v"] is None and m["final_norm"] is None
        assert m["settle_step_full"] is None
    assert (out / "trajectory_full.csv").read_text().count("\n") == 2  # header lines only
    assert not [key for key in metrics if key.startswith("ise_")]


def test_lyapunov_audit_demo_regime_reports_broken_constant():
    res = run_named("lyapunov-audit", {"regime": "demo", "grid_n": 9, "radius": 2.0})
    assert res.status == 1
    assert res.metrics["violated_flag"] == "c1"
    assert "chain" not in res.metrics


def test_lyapunov_audit_validated_regime_passes():
    res = run_named("lyapunov-audit", {"grid_n": 9, "radius": 2.0})
    assert res.status == 0
    assert res.metrics["chain"]["kind"] == "pass"
    assert res.metrics["definition_audit"]["kind"] == "pass"
    assert res.metrics["constants"]["flags"]["T_tilde"] is True
    assert "decrease_margins" in res.tables
    assert "decrease_profile" in res.plots
    # every profiled step keeps a nonnegative decrease margin
    prof = res.plots["decrease_profile"][1]
    assert np.all(prof[:, 2] >= -1e-9)


@pytest.fixture(scope="module")
def theorem_demo():
    return run_named("cascade-theorem-demo",
                     {"T_list": (0.01, 0.02), "horizon_s": 20.0,
                      "n_ball": 17, "grid_n": 21}, seed=0)


def test_theorem_demo_hypotheses_imply_conclusions(theorem_demo):
    res = theorem_demo
    assert res.status == 0
    m = res.metrics
    assert m["hypotheses_hold"] is True
    assert m["conclusions_hold"] is True
    assert m["doctored_falsified"] is True
    assert m["small_inputs"]["mu_star"] > 0.0
    for clause in ("driving_decay", "unforced_decay"):
        assert m[clause]["verdict"]["kind"] == "pass"
    assert m["interconnection"]["verdict"]["kind"] == "pass"
    assert m["interconnection"]["doctored_verdict"]["kind"] == "falsified"
    assert m["growth_certificate"]["verdict"]["kind"] == "pass"
    assert m["growth_certificate"]["summability"]["kind"] == "pass"
    assert m["cascade"]["verdict"]["kind"] == "pass"
    assert m["cascade"]["bounded"]["kind"] == "pass"


def test_theorem_demo_composed_envelope_dominates_fit(theorem_demo):
    rows = theorem_demo.plots["envelopes"][1]
    # columns: t, fitted cascade envelope, composed outer bound
    assert np.all(rows[:, 2] >= rows[:, 1] - 1e-9)
    assert theorem_demo.metrics["composed_bound_at_0"] >= 5.0


THEOREM_WORKLOAD = {"T_list": [0.01, 0.02], "horizon_s": 20.0, "n_ball": 17, "grid_n": 21}
# T outside T_list: the summability check rolls the driving grid out itself
THEOREM_FALLBACK = {"T": 0.01, "T_list": [0.02], "horizon_s": 10.0, "n_ball": 9, "grid_n": 11}


def test_theorem_demo_routes_one_stacked_rollout_per_period(monkeypatch):
    """The driving, unforced and cascade grids share each step, and the
    summability check reuses the driving run: the closed loop's f and g
    are called exactly this often."""
    calls = {"f": 0, "g": 0}
    build = experiments.closed_loop_euler_cascade

    def counted_build(*args):
        sysm = build(*args)

        def f(*a):
            calls["f"] += 1
            return sysm.f(*a)

        def g(*a):
            calls["g"] += 1
            return sysm.g(*a)

        return dataclasses.replace(sysm, f=f, g=g)

    monkeypatch.setattr(experiments, "closed_loop_euler_cascade", counted_build)
    assert run_named("cascade-theorem-demo", THEOREM_WORKLOAD).status == 0
    assert calls == {"f": 3632, "g": 3000}


def test_decay_records_hold_norms_not_whole_horizon_states():
    """Tooling guard: at the workload config the three decay grids keep
    about 7.7 MB of norms; one period's whole-horizon states alone would
    add about 15 MB, and the peak was about 22 MB when they were kept."""
    sysm = closed_loop_euler_cascade(validated_references(0.01), validated_gains("full"))
    grids = (sample_ball(2.0, 1, 17), sample_ball(5.0, 2, 17), sample_ball(5.0, 3, 17))
    tracemalloc.start()
    try:
        experiments._decay_records(sysm, *grids, THEOREM_WORKLOAD["T_list"],
                                   THEOREM_WORKLOAD["horizon_s"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14e6


# sha256 of every report file, recorded with Python 3.11 and numpy 2.4 on
# x86-64; a different numpy build may round differently
THEOREM_GOLDEN = [
    (THEOREM_WORKLOAD, 0, 0, {
        "envelopes.dat": "e077bb44eb9136b2b4552d9f17ba4a2bdc230375e71ae514efe7923d420430ff",
        "metrics.json": "7b048a847b1ea7f44405b73c697b8befec3a3275efbeb7d09075231c39482039"}),
    (THEOREM_WORKLOAD, 7, 0, {
        "envelopes.dat": "4bb03495b436c7dcb3c5a6b7c3da68ba0aec58687c78d8ceefa47ba5e65b268e",
        "metrics.json": "47470023cb1eb6b39b1225f39367be73bdeab8de40e17a469a420916f31bdb6e"}),
    (THEOREM_FALLBACK, 0, 1, {
        "envelopes.dat": "050338a3d740a374ac667157f5b5417e9ce08af30f37946ddc4d39342f3754eb",
        "metrics.json": "f428df118faa737b1dcfd171570ba72b50ec4d1c39e7b061cd3fff6097798769"}),
    (THEOREM_FALLBACK, 7, 1, {
        "envelopes.dat": "215acd58d261038ac61043e092a71de19f55e7d41efec33defc50c50a2590ae5",
        "metrics.json": "090afd10d7ee493ea600df674ce54689126b9b93257f3142b083e686f9418cdf"}),
]


EXAMPLE1_GOLDEN = [
    ({}, 0, 0, {
        "eigenvalues.dat": "65477689c7901799293560dfe4625138f31ca021c9ebd8925740bf27599b54b1",
        "metrics.json": "464f4913786fcb1bd93d980ae885ca63cb38c8c8396b490ba86892cec3f76046",
        "trajectory_euler.csv": "d878ac167319007637bc8b2e161c10aa6617a0f0afc36597c91922c43d7b5481",
        "trajectory_exact.csv": "7de2ad7d4ccf2925d3d16497c0e18642d6378bcfcf84f7b7e9d03944341bcb57"}),
    ({}, 7, 0, {
        "eigenvalues.dat": "df1a806d2fc85d1836e9cf690788eff673a2ea52123451eb2e25259abec5f366",
        "metrics.json": "c6329666bf8e1bf22eb31c2d99402b33ef5641b9da94d4a9bafecc129a96d854",
        "trajectory_euler.csv": "5c348ecf1b5dfee0f0e32bb7701e9d1e4442e9c47beb7efd1b3aa9a7c8ad0641",
        "trajectory_exact.csv": "625e3789758ae6884cb8e79de011c34a25e845ee4fefae9453255304d548102b"}),
]


def _report_digests(tmp_path, experiment, config, seed, code):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report"
    argv = ["run", "--experiment", experiment, "--config", str(cfg),
            "--out", str(out), "--seed", str(seed)]
    assert main(argv) == code
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("config, seed, code, digests", THEOREM_GOLDEN)
def test_theorem_demo_reports_match_golden_digests(tmp_path, config, seed, code, digests):
    assert _report_digests(tmp_path, "cascade-theorem-demo", config, seed, code) == digests


@pytest.mark.parametrize("config, seed, code, digests", EXAMPLE1_GOLDEN)
def test_example1_reports_match_golden_digests(tmp_path, config, seed, code, digests):
    assert _report_digests(tmp_path, "example1", config, seed, code) == digests
