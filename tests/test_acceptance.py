"""End-to-end acceptance gate.

Each test pins one headline behavior of the toolkit at its stated
tolerance and runtime budget. One comparison-experiment expectation,
that every correction variant settles, does not hold at the published
operating point: the scaled variant (half the correction numerator, no
denominator) makes the x_e loop unstable and diverges. That test fails
by design and the README explains the measured behavior. The full
correction does improve the integrated squared error there.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from dtaudit import (
    Box,
    CertificateParams,
    ClassKFunction,
    LyapunovCandidate,
    audit_lyapunov_chain,
    build_ugb_certificate,
    check_interconnection_bound,
    check_pe,
    closed_loop_euler_cascade,
    compute_case_constants,
    consistency_order,
    demo_gains,
    demo_references,
    error_dynamics_field,
    euler_map,
    exact_proxy_map,
    lyap_U,
    modified_euler_map,
    run_named,
    sample_box,
    simulate_cascade,
    validated_gains,
    validated_references,
)
from dtaudit.cascade import CascadeSystem
from dtaudit.cli import config_digest, emit_report
from dtaudit.numerics import _k_probes
from dtaudit.unicycle import _chain_grid


@pytest.fixture(scope="module")
def example1_run():
    t0 = time.perf_counter()
    res = run_named("example1", {}, seed=0)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def compare_run():
    t0 = time.perf_counter()
    res = run_named("unicycle-compare", {}, seed=0)
    return res, time.perf_counter() - t0


@pytest.fixture(scope="module")
def validated_chain():
    refs = validated_references()
    gains = validated_gains("full")
    t0 = time.perf_counter()
    consts = compute_case_constants(refs, gains, T_star=0.01, L_pe=2.0)
    verdict = audit_lyapunov_chain(refs, gains, consts, T=0.01)
    return consts, verdict, time.perf_counter() - t0


@pytest.fixture(scope="module")
def theorem_demo_run():
    return run_named("cascade-theorem-demo",
                     {"T_list": (0.01, 0.02), "horizon_s": 20.0,
                      "n_ball": 17, "grid_n": 21}, seed=0)


# --- double-integrator counterexample ---------------------------------


def test_euler_eigenvalues_match_root_formula(example1_run):
    res, _ = example1_run
    spectra = res.metrics["spectra"]
    assert [row["T"] for row in spectra] == [0.01, 0.1, 0.19, 0.3]
    assert res.metrics["euler_eig_deviation"] <= 1e-10


def test_exact_model_keeps_unit_circle_mode(example1_run):
    res, _ = example1_run
    assert res.metrics["exact_unit_circle_deviation"] <= 1e-6


def test_single_envelope_covers_all_random_draws(example1_run):
    res, _ = example1_run
    b = res.metrics["envelope_b"]
    assert b > 0.0 and math.isfinite(b)
    assert res.metrics["envelope_rate"] == 0.5
    assert res.metrics["n_trajectories"] == 1000
    assert res.metrics["measured_sup_ratio"] <= b * (1.0 + 1e-6)


def test_exact_model_trajectories_stall_above_ten_percent(example1_run):
    res, _ = example1_run
    assert res.metrics["nonconvergence_min_ratio"] >= 0.1
    assert res.status == 0


def test_double_integrator_audit_runtime(example1_run):
    _, elapsed = example1_run
    assert elapsed < 10.0


# --- correction-variant comparison ------------------------------------


def test_all_correction_variants_settle_before_horizon(compare_run):
    res, _ = compare_run
    m = res.metrics
    outcomes = {name: (v["diverged"], v["settle_step_full"])
                for name, v in m["variants"].items()}
    assert m["any_diverged"] is False, f"(diverged, settle step): {outcomes}"
    assert m["all_settled"] is True, f"(diverged, settle step): {outcomes}"


def test_full_correction_improves_integrated_error(compare_run):
    res, _ = compare_run
    ise = {name: v["ise_position"] for name, v in res.metrics["variants"].items()}
    assert ise["full"] < ise["none"], f"measured ISE: {ise}"


def test_comparison_runtime(compare_run):
    _, elapsed = compare_run
    assert elapsed < 5.0


def test_heading_error_is_exactly_geometric_for_every_variant():
    """theta(k) = (1 - T a1)^k theta(0) to 1e-12 for every correction variant,
    on each step that starts from an expected heading above that tolerance.
    Later steps add nothing the tolerance can see, and the scaled variant's
    position part is unstable here, so a longer run ends in its divergence."""
    T, theta0, a1, tol = 0.01, 0.5, 10.0, 1e-12
    steps = int(math.log(tol / theta0) / math.log(1.0 - T * a1)) + 1
    k = np.arange(steps + 1)
    expected = (1.0 - T * a1) ** k * theta0
    assert expected[steps - 1] > tol >= expected[steps]
    for variant in ("none", "scaled", "full"):
        sysm = closed_loop_euler_cascade(demo_references(),
                                         demo_gains(0.01, variant))
        _, tz = simulate_cascade(sysm, T, 0, np.zeros(2), [theta0], steps)
        assert np.max(np.abs(tz[:, 0] - expected)) <= tol


# --- excitation audit ---------------------------------------------------


def test_excitation_audit_levels_and_runtime():
    t0 = time.perf_counter()
    strong = check_pe(demo_references(), L=math.pi, mu=600.0, T_list=[0.01])
    zero_refs = demo_references()
    zero_refs = type(zero_refs)(zero_refs.v_r, lambda t: 0.0 * np.asarray(t),
                                zero_refs.w_M)
    dead = check_pe(zero_refs, L=math.pi, mu=600.0, T_list=[0.01])
    elapsed = time.perf_counter() - t0
    assert strong.kind == "pass"
    assert strong.margins["min_window_sum"] == pytest.approx(628.3185246346573,
                                                             abs=1e-6)
    assert dead.kind == "falsified"
    assert elapsed < 1.0


# --- Lyapunov chain in the validated regime ----------------------------


def test_constant_chain_is_valid_and_decrease_holds_on_grid(validated_chain):
    consts, verdict, elapsed = validated_chain
    assert consts.all_valid
    assert verdict.kind == "pass"
    m = verdict.margins
    # zero violations: every pointwise margin stays on the right side
    assert m["V_decrease"] >= -1e-9
    assert m["W_decrease"] >= -1e-9
    assert m["U_decrease"] >= -1e-9
    assert m["V_lo"] >= consts.c1 - 1e-9
    assert m["V_hi"] <= consts.c2 + 1e-9
    assert elapsed < 30.0


# --- consistency orders -------------------------------------------------


def test_consistency_orders_on_tracking_error_dynamics():
    field = error_dynamics_field(demo_references())
    held = np.zeros(2)
    ref = exact_proxy_map(field, held, tol=1e-10)
    box = Box.centered(1.0, 3)
    T_list = [float(t) for t in np.logspace(-3.0, -1.0, 9)]
    k_set = (0, 7, 50, 157)
    t0 = time.perf_counter()
    euler_rep = consistency_order(ref, euler_map(field, held), box,
                                  k_set=k_set, T_list=T_list, n_samples=64)
    mod_rep = consistency_order(ref, modified_euler_map(field, held), box,
                                k_set=k_set, T_list=T_list, n_samples=64)
    elapsed = time.perf_counter() - t0
    assert euler_rep.slope == pytest.approx(2.0, abs=0.15)
    assert mod_rep.slope >= 1.9
    # frozen regression values for this exact sweep
    assert euler_rep.slope == pytest.approx(1.999958374143363, rel=1e-6)
    assert mod_rep.slope == pytest.approx(2.2976023520811504, rel=1e-6)
    assert elapsed < 30.0


# --- interconnection audit ----------------------------------------------


def _interconnection_fit(system, pts, T_list):
    """Smallest constants covering growth and drift on the sampled points."""
    X, Z = pts[:, :2], pts[:, 2:]
    xi = np.linalg.norm(pts, axis=1)
    xn = np.linalg.norm(X, axis=1)
    zn = np.linalg.norm(Z, axis=1)
    Z0 = np.zeros_like(Z)
    g1 = c = 0.0
    for T in T_list:
        for k in _k_probes(T, system.period):
            F = np.asarray(system.f(T, k, X, Z), dtype=float)
            F0 = np.asarray(system.f(T, k, X, Z0), dtype=float)
            keep = xi > 0
            g1 = max(g1, float(np.max(np.linalg.norm(F, axis=1)[keep] / xi[keep])))
            keep = zn > 1e-15
            gap = np.linalg.norm(F - F0, axis=1)[keep]
            c = max(c, float(np.max(gap / (T * (xn[keep] + 1.0) * zn[keep]))))
    return g1 * (1.0 + 1e-9), c * (1.0 + 1e-9)


def test_interconnection_bound_holds_with_reported_constant():
    sysm = closed_loop_euler_cascade(validated_references(), validated_gains("full"))
    dom = Box((-5.0, -5.0, -2.0), (5.0, 5.0, 2.0))
    T_list = [0.01, 0.02, 0.05]
    g1, c = _interconnection_fit(sysm, sample_box(dom, 2048), T_list)
    assert c == pytest.approx(0.9297508978985898, rel=1e-6)
    verdict = check_interconnection_bound(
        sysm, ClassKFunction.linear(g1), ClassKFunction.affine_capped(c, c),
        ClassKFunction.identity(), dom, T_list, n_samples=2048)
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio_interconnection"] <= 1.0 + 1e-9


def test_interconnection_bound_fails_without_period_factor():
    """Dividing the coupling by T breaks the audited drift clause."""
    sysm = closed_loop_euler_cascade(validated_references(), validated_gains("full"))
    dom = Box((-5.0, -5.0, -2.0), (5.0, 5.0, 2.0))
    T_list = [0.01, 0.02, 0.05]
    pts = sample_box(dom, 2048)
    _, c = _interconnection_fit(sysm, pts, T_list)

    def inflated(T, k, X, Z):
        Z = np.asarray(Z, dtype=float)
        base = np.asarray(sysm.f(T, k, X, np.zeros_like(Z)), dtype=float)
        return base + (np.asarray(sysm.f(T, k, X, Z), dtype=float) - base) / T

    doctored = CascadeSystem(2, 1, inflated, sysm.g, sysm.T_max, math.tau)
    g1d, _ = _interconnection_fit(doctored, pts, T_list)
    verdict = check_interconnection_bound(
        doctored, ClassKFunction.linear(g1d), ClassKFunction.affine_capped(c, c),
        ClassKFunction.identity(), dom, T_list, n_samples=2048)
    assert verdict.kind == "falsified"
    assert verdict.detail == "interconnection bound violated"
    w = verdict.witness
    assert w.measured > w.bound
    assert len(w.initial_state) == 3


# --- transformed-function certificate -----------------------------------


def test_certificate_budget_matches_closed_form_and_grid_is_clean(validated_chain):
    consts, _, _ = validated_chain
    refs = validated_references()
    gains = validated_gains("full")
    sysm = closed_loop_euler_cascade(refs, gains)
    T = 0.01
    X, Y = _chain_grid(41, 5.0)
    base = np.stack([X, Y], axis=-1)
    pts = np.concatenate([np.column_stack([base, np.full(len(base), th)])
                          for th in (-0.5, -0.25, 0.0, 0.25, 0.5)])
    k_hi = int(math.ceil(2.0 * math.pi / T))
    k_cert = sorted(set(range(0, k_hi + 1, 7)) | {k_hi})

    cand = LyapunovCandidate(
        eval=lambda TT, k, x: np.asarray(lyap_U(int(k), x, refs, gains, consts, TT),
                                         dtype=float),
        alpha1=ClassKFunction.power(consts.c1 / 2.0, 2.0),
        alpha2=ClassKFunction.power(consts.c2, 2.0),
        alpha3=ClassKFunction.power(consts.c3_tilde, 2.0),
        L_mod=ClassKFunction.linear(2.0 * (consts.c2 + consts.eps_small * consts.c3)))

    Xs, Zs = pts[:, :2], pts[:, 2:]
    zn = np.linalg.norm(Zs, axis=1)
    keep = zn > 1e-15
    d = 0.0
    for k in k_cert:
        v = np.asarray(lyap_U(k, Xs, refs, gains, consts, T), dtype=float)
        Fz = np.asarray(sysm.f(T, k, Xs, Zs), dtype=float)
        F0 = np.asarray(sysm.f(T, k, Xs, np.zeros_like(Zs)), dtype=float)
        drift = (np.asarray(lyap_U(k + 1, Fz, refs, gains, consts, T), dtype=float)
                 - np.asarray(lyap_U(k + 1, F0, refs, gains, consts, T), dtype=float))
        d = max(d, float(np.max(drift[keep] / (T * zn[keep] * (v[keep] + 1.0)))))
    d *= 1.0 + 1e-9

    params = CertificateParams(
        alpha1=ClassKFunction.power(consts.c1 / 2.0, 2.0),
        alpha2=ClassKFunction.power(consts.c2, 2.0), c=0.0,
        gamma1=ClassKFunction.linear(d), gamma2=ClassKFunction.linear(d),
        phi=ClassKFunction.identity())
    cert, verdict = build_ugb_certificate(cand, sysm, params, pts, [T], k_set=k_cert)

    rho = cert.rho_built
    for s in (0.0, 0.25, 0.5, 1.0, 2.0, math.e, 10.0, math.e ** 3):
        expected = s if s <= 1.0 else 1.0 + math.log(s)
        assert float(rho(s)) == pytest.approx(expected, abs=1e-8)
    assert verdict.kind == "pass"
    assert verdict.margins["transformed"] <= 1e-9
    assert cert.mu_fn.params["gain"] == pytest.approx(2.0 * d, rel=1e-12)


# --- determinism and the hypotheses-to-conclusion cross-check ------------


DETERMINISM_CONFIGS = {
    "example1": {"T": 0.19, "n_random_T": 2, "n_states": 5,
                 "decay_horizon_s": 2.0, "nonconv_steps": 200, "table_steps": 50},
    "unicycle-compare": {"horizon_s": 1.0},
    "consistency-sweep": {"T_list": [0.003, 0.01, 0.03], "n_samples": 16,
                          "k_set": [0, 7]},
    "lyapunov-audit": {"grid_n": 9, "radius": 2.0},
    "pe-check": {},
    "cascade-theorem-demo": {"T_list": [0.01], "horizon_s": 10.0, "n_ball": 9,
                             "grid_n": 13, "usc_x0_count": 2},
}


def _run_and_emit(name, params, seed, out_dir):
    res = run_named(name, params, seed=seed)
    emit_report(res, out_dir, config_digest(name, params, seed), seed)
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


def test_every_experiment_rerun_is_byte_identical(tmp_path):
    for name, params in DETERMINISM_CONFIGS.items():
        first = _run_and_emit(name, params, 3, tmp_path / name / "a")
        second = _run_and_emit(name, params, 3, tmp_path / name / "b")
        assert first == second, f"rerun of {name} changed bytes"
        assert "metrics.json" in first


def test_passing_hypotheses_imply_cascade_conclusions(theorem_demo_run):
    """Whenever every hypothesis audit passes, the fitted envelope and the
    boundedness audit on the cascade must pass as well."""
    m = theorem_demo_run.metrics
    assert m["hypotheses_hold"] is True
    assert m["conclusions_hold"] is True
    assert m["cascade"]["verdict"]["kind"] == "pass"
    assert m["cascade"]["bounded"]["kind"] == "pass"
    assert m["doctored_falsified"] is True
    assert theorem_demo_run.status == 0
