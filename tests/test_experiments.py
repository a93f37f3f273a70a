"""Registered experiments: configs, aliases, and reproducibility."""

import collections
import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from dtaudit import (ConfigError, ParameterizedMap, audit_lyapunov, cascade,
                     closed_loop_euler_cascade, demo_references, experiments, list_experiments,
                     run_named, sample_ball, unicycle, validated_gains, validated_references)
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
    res = run_named("pe-check", {"name": "pe-check",
                                 "refs": {"wr": {"kind": "const", "amplitude": 0.0}}})
    assert res.status == 1


def test_unknown_option_is_named_in_the_error():
    with pytest.raises(ConfigError, match="bogus"):
        run_named("example1", {"bogus": 3})
    with pytest.raises(ConfigError, match="wrr"):
        run_named("pe-check", {"wrr": 0})
    # pe-check takes its reference only as `refs`
    with pytest.raises(ConfigError, match="pe-check: wr"):
        run_named("pe-check", {"wr": 0})
    with pytest.raises(ConfigError, match="pe-check: regime"):
        run_named("pe-check", {"regime": "demo"})


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


def test_every_range_names_an_option_and_known_words():
    """The one range table holds no dead entry: each key is an option of some
    experiment, at any depth, and each of its words is a range word."""
    options = set()

    def walk(defaults):
        for key, val in defaults.items():
            options.add(key)
            if isinstance(val, dict):
                walk(val)

    for defaults in (experiments._EXAMPLE1_DEFAULTS, experiments._COMPARE_DEFAULTS,
                     experiments._CONSISTENCY_DEFAULTS, experiments._LYAP_DEFAULTS,
                     experiments._PE_DEFAULTS, experiments._THEOREM_DEFAULTS):
        walk(defaults)
    assert set(experiments._RANGES) <= options
    for key, words in experiments._RANGES.items():
        assert set(words.split(", ")) <= set(experiments._LIMITS), key
    assert set(experiments._WHOLE) <= set(experiments._LIMITS)


def test_null_default_is_typed_as_a_float():
    """A null default takes a number as a float, so the config echo reads 2.0."""
    out = experiments.run_comparison_experiment({"gains": {"alpha_y": 2}})
    assert repr(out["config"]["gains"]["alpha_y"]) == "2.0"


def test_merged_config_shares_no_default_object():
    """The config a run hands back is its own: editing it changes neither
    the defaults nor the demo preset they are read from."""
    out = experiments.run_comparison_experiment({"horizon_s": 0.01})
    out["config"]["refs"]["wr"]["amplitude"] = 1.0
    out["config"]["gains"]["a1"] = 1.0
    assert experiments._COMPARE_DEFAULTS["refs"]["wr"]["amplitude"] == 20.0
    assert experiments._COMPARE_DEFAULTS["gains"]["a1"] == 10.0
    assert demo_references().w_M == 20.0


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


def test_pe_check_constant_turn_rate():
    res = run_named("pe-check", {"refs": {"wr": {"kind": "const", "amplitude": 0.0}}})
    assert res.status == 1
    assert res.metrics["min_window_sum"] == 0.0
    assert res.metrics["verdict"]["kind"] == "falsified"
    res = run_named("pe-check", {"refs": {"wr": {"kind": "const", "amplitude": 0.8}},
                                 "mu": 0.6, "L": 1.0})
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
    res = run_named("pe-check", {"refs": {"wr": {"kind": "sin", "amplitude": 1.0,
                                                 "frequency": 1.0 / 3.0}},
                                 "L": 2.0, "mu": 0.2})
    assert res.status == 1
    witness = res.metrics["verdict"]["witness"]
    assert witness["measured"] < 0.2
    assert witness["initial_state"][0] > 2.0 * math.pi
    assert res.metrics["min_window_sum"] == pytest.approx(0.0735, abs=1e-4)


def test_consistency_sweep_only_knows_the_unicycle_plant():
    with pytest.raises(ConfigError, match="plant"):
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


def test_lyapunov_audit_on_a_one_state_grid_has_no_pair_to_compare():
    """grid_n = 1 is in range; the Lipschitz check has no consecutive pair,
    so its worst ratio stays at 0.0 instead of reducing an empty array."""
    res = run_named("lyapunov-audit", {"grid_n": 1})
    assert res.status == 0
    assert res.metrics["definition_audit"]["kind"] == "pass"
    assert res.metrics["definition_audit"]["margins"]["lipschitz"] == 0.0


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


def _separate_lyapunov_audits(refs, gains, c, T, grid_n, radius):
    """The audits of `lyapunov-audit` as separate loops: the chain audit,
    the definition audit over the period and at the probe indices with
    margin rows, each stepping the unforced closed loop itself, and the
    decrease profile at every seventh k from `lyap_U` on the grid and on
    its one-step image."""
    chain = unicycle.audit_lyapunov_chain(refs, gains, c, T, grid_n=grid_n, radius=radius)
    sysm = closed_loop_euler_cascade(refs, gains)
    F = ParameterizedMap(2, sysm.T_max, lambda TT, k, x: sysm.f(TT, k, x, np.zeros((len(x), 1))),
                         sysm.period)
    cand = unicycle._lyap_U_candidate(refs, gains, c)
    X, Y = unicycle._chain_grid(grid_n, radius)
    pts = np.stack([X, Y], axis=-1)
    Delta = radius * math.sqrt(2.0) + 1.0
    definition = audit_lyapunov(cand, F, Delta, 0.0, [T], pts,
                                k_set=range(refs.period_steps(T) + 1))
    probe = audit_lyapunov(cand, F, Delta, 0.0, [T], pts, collect_margins=True)
    n2 = np.sum(pts ** 2, axis=-1)
    prof = [(k, k * T, float(np.min(-c.c3_tilde * n2 - (
                cand.eval(T, k + 1, F.step(T, k, pts)) - cand.eval(T, k, pts)) / T)))
            for k in range(0, refs.period_steps(T) + 1, 7)]
    return chain, definition, probe.margins.get("rows", []), prof


# c3_tilde = 0.009 breaks the U decrease at k = 223 but not at the probe
# indices 0, 1, 314 and 627, where it holds up to about 0.0099
@pytest.mark.parametrize("doctor, chain_kind, definition_kind, has_rows", [
    ({}, "pass", "pass", True),
    ({"c2": "half c1"}, "falsified", "falsified", False),
    ({"c3": 0.05, "c3_tilde": 1e3}, "falsified", "falsified", False),
    ({"c3_tilde": 0.009}, "falsified", "falsified", True),
])
def test_lyapunov_audit_pass_equals_the_separate_audits(doctor, chain_kind, definition_kind,
                                                        has_rows):
    """One pass gives the verdicts (kind, witness, detail, margins), margin
    rows and decrease profile of the separate audits, falsified or not."""
    T, grid_n, radius = 0.01, 9, 5.0
    refs, gains = unicycle._preset("validated", T)
    c = unicycle.compute_case_constants(refs, gains, T, 2.0, grid_n=grid_n, radius=radius)
    if doctor.get("c2") == "half c1":
        doctor = {"c2": 0.5 * c.c1}
    c = dataclasses.replace(c, **doctor)
    got = unicycle._audit_pass(refs, gains, c, T, grid_n, radius, True)
    want = _separate_lyapunov_audits(refs, gains, c, T, grid_n, radius)
    assert (got[0].kind, got[1].kind, len(got[2]) > 0) == (chain_kind, definition_kind,
                                                             has_rows)
    assert got[0] == want[0] and got[1] == want[1]
    assert got[0].to_json() == want[0].to_json() and got[1].to_json() == want[1].to_json()
    assert np.array_equal(experiments._rows(got[2]), experiments._rows(want[2]))
    assert got[3] == want[3]


def test_lyapunov_audit_steps_the_closed_loop_once_per_k_and_pass(monkeypatch):
    """The constants fit and the audits each make one pass over the 630
    indices of the period: every (k, grid state) pair of the 1,680-state
    grid is stepped exactly twice, 2,116,800 stepped pairs, where fitting,
    chain, definition audit, probes and profile stepping apart made 1,984
    per-k steps. A call may step a block of indices, with k a (B, 1)
    column against (B, rows, 2) states."""
    pairs = np.zeros(630, dtype=np.int64)

    def counted(build):
        def counted_build(*args):
            sysm = build(*args)

            def f(T, k, x, z):
                x = np.asarray(x)
                assert x.shape[-2:] == (1680, 2)
                np.add.at(pairs, np.broadcast_to(k, x.shape[:-1]).ravel(), 1)
                return sysm.f(T, k, x, z)

            return dataclasses.replace(sysm, f=f)
        return counted_build

    for module in (experiments, unicycle):
        monkeypatch.setattr(module, "closed_loop_euler_cascade",
                            counted(module.closed_loop_euler_cascade))
    assert run_named("lyapunov-audit", {}).status == 0
    assert pairs.sum() == 2 * 630 * 1680
    assert np.all(pairs == 2 * 1680)


def test_unicycle_compare_stops_stepping_a_diverged_variant(monkeypatch):
    """At defaults `scaled` diverges at step 101: its rollout ends with the
    chunk that holds that step, while the other variants run all 1,000."""
    calls = {}
    build = unicycle.closed_loop_euler_cascade

    def counted_build(refs, gains):
        sysm = build(refs, gains)

        def f(*a):
            calls[gains.use_correction] = calls.get(gains.use_correction, 0) + 1
            return sysm.f(*a)

        return dataclasses.replace(sysm, f=f)

    monkeypatch.setattr(unicycle, "closed_loop_euler_cascade", counted_build)
    res = run_named("unicycle-compare", {})
    assert res.metrics["variants"]["scaled"]["first_divergent_step"] == 101
    assert calls["none"] == calls["full"] == 1000
    assert calls["scaled"] <= cascade._CHUNK


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


@pytest.mark.parametrize("extra, status, fit, gain, summability", [
    ({"theta_values": [0.0]}, 0, "growth_certificate", "drift_gain", "pass"),
    ({"Delta_z": 1e-16}, 1, "interconnection", "gamma2_gain", "inconclusive"),
], ids=["theta-zero", "tiny-Delta_z"])
def test_theorem_demo_fits_a_zero_gain_when_no_sample_carries_an_input(extra, status, fit, gain,
                                                                       summability):
    """Where no sample has |z| above 1e-15, the drift-gain or coupling fit
    has no ratio to take: its gain is 0.0, not numpy's zero-size reduction
    error (a traceback with exit 1). With driving states of norm 1e-16 the
    summability tail is not negligible, so that claim is inconclusive."""
    res = run_named("cascade-theorem-demo", {**THEOREM_WORKLOAD, **extra})
    assert res.status == status
    assert res.metrics[fit][gain] == 0.0
    assert res.metrics["growth_certificate"]["summability"]["kind"] == summability


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
    assert calls == {"f": 3398, "g": 3000}


def test_example1_routes_one_staged_rollout_per_model(monkeypatch):
    """example1 steps every decay period's draws and the Euler table's row
    in one rollout, chunk by chunk: the Euler map is driven for 2,000
    sequential steps (the longest period's), where one rollout per period
    and one for the table made 4,191 step calls. The only other step calls
    are the spectrum's, one batched step of the basis per period."""
    calls = {"step": 0, "chunks": 0, "chunk_steps": 0}
    build = experiments.euler_map

    def counted_build(*args):
        pmap = build(*args)

        def step(*a):
            calls["step"] += 1
            return pmap.step(*a)

        def chunk(T, k, x, out):
            calls["chunks"] += 1
            calls["chunk_steps"] += len(out)
            return pmap.step.chunk(T, k, x, out)

        step.chunk = chunk
        return dataclasses.replace(pmap, step=step)

    def no_grid(*args, **kwargs):
        raise AssertionError("example1 called grid_rollouts")

    monkeypatch.setattr(experiments, "euler_map", counted_build)
    monkeypatch.setattr(experiments, "grid_rollouts", no_grid)
    assert run_named("example1", None, 0).status == 0
    assert calls == {"step": 4, "chunks": 22, "chunk_steps": 2000}


def test_lyapunov_audit_pass_keeps_blocks_small():
    """Tooling guard: the audit pass of `lyapunov-audit` at its defaults
    steps four step indices of the 1,680-state grid per block; its traced
    peak was 0.99 MB one index at a time and is about 1.7 MB in blocks."""
    T = 0.01
    refs, gains = unicycle._preset("validated", T)
    c = unicycle.compute_case_constants(refs, gains, T, 2.0)
    unicycle._audit_pass(refs, gains, c, T, 41, 5.0, True)
    tracemalloc.start()
    try:
        unicycle._audit_pass(refs, gains, c, T, 41, 5.0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


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


def test_decay_records_check_periods_against_the_closed_loop_T_max():
    """A decay period above the closed loop's T_max (about 0.2 on the
    validated loop) is rejected by `_schedule` before any map call."""
    sysm = closed_loop_euler_cascade(validated_references(0.01), validated_gains("full"))
    calls = []

    def counting(fn):
        return lambda T, *args: calls.append(T) or fn(T, *args)

    sysm = dataclasses.replace(sysm, f=counting(sysm.f), g=counting(sysm.g))
    grids = (sample_ball(2.0, 1, 3), sample_ball(5.0, 2, 3), sample_ball(5.0, 3, 3))
    with pytest.raises(ValueError, match="outside admissible range"):
        experiments._decay_records(sysm, *grids, [0.3], 0.6)
    assert calls == []


def test_example1_keeps_norms_not_whole_horizon_states():
    """Tooling guard: example1 takes its decay records' norms and its stall
    check's smallest norms chunk by chunk. With the stall check's
    10,001 x 16 x 2 states and each decay period's 2,001 x 100 x 2 states
    kept whole, a warm default run peaked at 10.8 MB of traced memory."""
    run_named("example1", None)
    tracemalloc.start()
    try:
        run_named("example1", None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def _chunk_counting(build, calls):
    """`build` whose closed loops count their f, g and chunk-stepper calls;
    the counting f and g carry the counting chunk stepper, so rollouts still
    step in chunks."""
    def counted_build(*args):
        sysm = build(*args)
        chunk = sysm.f.stacked_chunk

        def f(*a):
            calls["f"] += 1
            return sysm.f(*a)

        def g(*a):
            calls["g"] += 1
            return sysm.g(*a)

        def counted_chunk(T, k, Y, out):
            calls["chunks"] += 1
            calls["chunk_steps"] += len(out)
            return chunk(T, k, Y, out)

        f.stacked_chunk = g.stacked_chunk = counted_chunk
        return dataclasses.replace(sysm, f=f, g=g)
    return counted_build


def test_theorem_demo_and_compare_roll_the_closed_loop_out_in_chunks(monkeypatch):
    """The theorem demo's decay rollouts (2,000 and 1,000 steps) and
    `unicycle-compare`'s Euler variants (1,000 steps each, `scaled` only
    through its divergent first chunk) step the closed loop a chunk per
    call: no rollout calls `g`, and `f` is left to the one-step audits and
    the driven USC rollouts."""
    calls = collections.Counter()
    monkeypatch.setattr(experiments, "closed_loop_euler_cascade",
                        _chunk_counting(experiments.closed_loop_euler_cascade, calls))
    assert run_named("cascade-theorem-demo", THEOREM_WORKLOAD).status == 0
    assert calls == {"chunks": 16 + 8, "chunk_steps": 3000, "f": 3398 - 3000}
    calls.clear()
    monkeypatch.setattr(unicycle, "closed_loop_euler_cascade",
                        _chunk_counting(unicycle.closed_loop_euler_cascade, calls))
    res = run_named("unicycle-compare", {})
    assert res.metrics["variants"]["scaled"]["first_divergent_step"] == 101
    assert calls == {"chunks": 8 + 1 + 8, "chunk_steps": 1000 + (cascade._CHUNK - 1) + 1000}


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
    # the growth certificate passes and summability is inconclusive at this
    # horizon; the U candidate runs at T = 0.02, and at T = 0.005 its S(k)
    # table grows past k = 1,024
    ({"T": 0.02, "T_list": [0.02], "horizon_s": 10.0, "n_ball": 9, "grid_n": 11}, 0, 1, {
        "envelopes.dat": "bd3219aea441d4d307b130ac49f02f546c9a42151c895effc1b71200829dc3e2",
        "metrics.json": "5b59063685c3c115b6a5b8adee79fd58e51bb69237bdd90d61b98c98ff96527e"}),
    ({"T": 0.005, "T_list": [0.01], "horizon_s": 10.0, "n_ball": 9, "grid_n": 11}, 0, 1, {
        "envelopes.dat": "0126ea71bdd1dea488e937801b530eba658414e488f29b3545b37ec90af0ef90",
        "metrics.json": "8a4cf81edd284f1e39f044437c48f5db41fdfad841cfafdeb562227c42b9a82b"}),
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


# every unicycle experiment at its defaults and at a demo or user reference;
# each config's text is hashed into its report headers, so keep it as recorded
UNICYCLE_GOLDEN = [
    ("unicycle-compare", {}, 0, 1, {
        "errors_full.dat": "5fe5496bdc90dc675de4e5095654034f8b2a58c567b7a3879b2a7c8832633fa1",
        "errors_none.dat": "268bde5285970cf16b0f787682ab6d468d4e81e09b62b3e33c23bb3c30e61a78",
        "errors_scaled.dat": "5217c8e92ab051163d2990b882448de3cd524a251d90094c53e72d4df70a2696",
        "metrics.json": "d6b0d71bb8f244e28233bfe3162caf4ca4e1b5b45f75898a797a9a35cf5d7142",
        "trajectory_full.csv": "fd3e0dce0f3580cef67046d902bb63aa50717cc1f672de975fa8982cb1bb624b",
        "trajectory_none.csv": "57446e1986a90dc4914b023e0ffcf51a9f449cc5f5989e4234c3db657baa6c44",
        "trajectory_scaled.csv": "83eb653742d8ac9deaab355dde4615d1d6cb1ba1c0ba0e20538ecbda0c85570a"}),
    ("consistency-sweep", {}, 0, 0, {
        "consistency_euler.csv": "569f5db521be542724774f2e14df6c5fb390422c31bcdc4534cfcbd5214d6454",
        "consistency_euler.dat": "b045e8ee6acdd5d78876a54e125fc4e5874b23508d17e2a536bd734cc338f8c2",
        "consistency_modified_euler.csv": "333524bd1cce0b631d8f6aec96166d4042abdf8b42b7e34d71dfebb009a27012",
        "consistency_modified_euler.dat": "88c3b41a07503281468ffff43b755089988b14a45163993a3edd3651c8ee330b",
        "metrics.json": "539ba156b3b31d8ef88a8b779c811bf00540db0ea493dee68871c4518772f348"}),
    ("lyapunov-audit", {}, 0, 0, {
        "decrease_margins.csv": "82db2b584f8c768a7872bfe96c6258d84f67cdc0dc1cf537971b8ce485178e36",
        "decrease_profile.dat": "b755b24370ac3ea1fd3da416c223e6fc2e27dcb50a8d806dbeaed953ffddb45c",
        "metrics.json": "4971be69597674a9f01b353b2830ef1c6775fdec6bd9de87a30b136fd19e541a"}),
    ("pe-check", {}, 0, 0, {
        "metrics.json": "6ab0c00a4e553f4f91351175c484931822f1a1dda983a2f06f406ee77f4c871e",
        "window_sums.dat": "4d0f81926a4eb43e825eb0c14e4ae5b95a25c0e2bc51a2a67d76f4ba53907d25"}),
    ("lyapunov-audit", {"regime": "demo", "grid_n": 9, "radius": 2.0}, 0, 1, {
        "metrics.json": "fc877d551a067f98bf7bc73ff641ec38e06d7e0f51193f4ff46d53a31a25b128"}),
    ("consistency-sweep", {"regime": "demo"}, 0, 0, {
        "consistency_euler.csv": "5c77b3d598afc7326b1bd06ec7ac6a51af02ede795fd3dc6a79e21338c55222c",
        "consistency_euler.dat": "93e7fa8523d4a06fae50bf454c0064f3236ee2caba84e7e7a4dfd20042701311",
        "consistency_modified_euler.csv": "1de8e9b987fe3839b5c10c4e7b20a0d444e12ca2b60043c429f728a377e3ec6f",
        "consistency_modified_euler.dat": "9233b009558a3c5d528e60338ec0fec45e77d3cb4bbc100081ecbfe68ed6d937",
        "metrics.json": "b46bab5a4fec87c61c7f048564ea8f844bb23a63e91ed9d7330cb9907aa23640"}),
    ("pe-check", {"refs": {"vr": 1.0, "wr": {"kind": "sin", "amplitude": 1.0,
                                             "frequency": 0.3333333333333333}}}, 0, 1, {
        "metrics.json": "5b0c4ee971a65b2f6685fcd3ceff98ba6cd2b5918b6f17611c85630901bc4eec",
        "window_sums.dat": "099b587e00c697233418bad8e5490e2e0c49dddab54dcfb62563172d632fd835"}),
    ("unicycle-compare", {"refs": {"vr": 0.5, "wr": {"kind": "const", "amplitude": 0.3}}},
     0, 1, {
        "errors_full.dat": "7a076639da22e93d238b3f27c5a15312de23f32298301ac424c7bd9cf075e73e",
        "errors_none.dat": "b97c858ca16beb6e7a976f8b09b98c9bfd4ace481110b80010fc912ba1f0f7c7",
        "errors_scaled.dat": "b73bb2bf8db8186c65a4311e54b589cd68fd92cb64a8dd6742d0e1d3cf13054a",
        "metrics.json": "9fb84b76ceafd09fe334230f01415d3de1449160ca158bcb26ece9e3e7dd603a",
        "trajectory_full.csv": "fe3da957313b41cc79cd99a71349ee8b26078e1b0e79ba00ca4bf2f18287ddff",
        "trajectory_none.csv": "494213353b23efddcc4ec2439b411b185dbafadc070581132585e937370f8ce6",
        "trajectory_scaled.csv": "446e50dbf0709b1da59d5f02913f1fb83c2d00576394cb7172b40565f520ed85"}),
    ("lyapunov-audit", {"T": 0.02, "grid_n": 21}, 0, 0, {
        "decrease_margins.csv": "4f12ea1bd47886b334b8dcaa2e27d693eb15344d5efafc05d85b354c46948ef6",
        "decrease_profile.dat": "71eb70989d21fea1b377e32916173bfe98ad3a5b67e29f36bb48d098c61ba04b",
        "metrics.json": "4887defdec1dca640ac2e2e7fcf596d8bc938c019dae49cae5b56d8521ba4063"}),
    ("lyapunov-audit", {"margin_rows": False, "grid_n": 9}, 0, 0, {
        "decrease_profile.dat": "828bcd468afadc32c5db9aa729d30e45f6f4bb5bc9eec508c179b765d5cbba24",
        "metrics.json": "080a26080b26d793c75e6282e3e24376894323ba21c7ffba848040146641bf14"}),
    # `scaled` diverges at step 101
    ("unicycle-compare", {"plant": "exact-proxy", "horizon_s": 1.5}, 0, 1, {
        "errors_full.dat": "b7ed1cacedec04b05ef3da6b0dd8ac3144470e97afce8243022c57c8e304a4d6",
        "errors_none.dat": "17930edf450455161ed4677ab1a0258ea57c7d9079f83a5aebb02cbd8a7c9d69",
        "errors_scaled.dat": "959c6459a597d69ea144f1b57829a1be7ef270db86bb136a238fded9a0ad8815",
        "metrics.json": "24c6b3ba360d665b453222b6a3f5c09167d3253c1e0ed7012aa5596394612c2a",
        "trajectory_full.csv": "d8365eccfa9539d2cd774d9b827bd3446b70efcdde1d5e8cc7429572d1b2b080",
        "trajectory_none.csv": "6cccf83cfc56f2976b14cb0070a48e305162d60299dbe14ff9991c175ab01c65",
        "trajectory_scaled.csv": "dbf4aa67d6bc777e005bef53529310f09a833a67a1454f4016381edfaa305d57"}),
    # every variant diverges at step 0
    ("unicycle-compare", {"initial_error": [2e6, 0.0, 0.0]}, 0, 1, {
        "errors_full.dat": "e1756bada3449922ec60f8cd15d8f69ee497b7cbe5655fb69c769a2a68c5f469",
        "errors_none.dat": "e1756bada3449922ec60f8cd15d8f69ee497b7cbe5655fb69c769a2a68c5f469",
        "errors_scaled.dat": "e1756bada3449922ec60f8cd15d8f69ee497b7cbe5655fb69c769a2a68c5f469",
        "metrics.json": "cf3923417d25dd4a6f763d0176e9322795aa759b000aaa7d718785fc93e56b73",
        "trajectory_full.csv": "538d0a68478b9a96e66ddf199e09807e5bcbb878e8ee4093f4f22453412f6f17",
        "trajectory_none.csv": "538d0a68478b9a96e66ddf199e09807e5bcbb878e8ee4093f4f22453412f6f17",
        "trajectory_scaled.csv": "538d0a68478b9a96e66ddf199e09807e5bcbb878e8ee4093f4f22453412f6f17"}),
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


@pytest.mark.parametrize("experiment, config, seed, code, digests", UNICYCLE_GOLDEN)
def test_unicycle_reports_match_golden_digests(tmp_path, experiment, config, seed, code,
                                               digests):
    assert _report_digests(tmp_path, experiment, config, seed, code) == digests
