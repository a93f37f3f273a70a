"""Registered experiments: configs, aliases, and reproducibility."""

import json
import math

import numpy as np
import pytest

from dtaudit import ConfigError, experiments, list_experiments, run_named
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
