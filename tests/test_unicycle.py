"""Tracking case study: controller, excitation, and the constant chain."""

import collections
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaudit import (
    CaseStudyConstants,
    ControllerGains,
    CorrectionDomainError,
    PreconditionError,
    ReferenceSignal,
    audit_lyapunov_chain,
    check_pe,
    closed_loop_euler_cascade,
    compute_case_constants,
    controller_callable,
    demo_gains,
    demo_references,
    error_dynamics_field,
    euler_map,
    exact_proxy_map,
    experiments,
    lyap_U,
    lyap_V,
    lyap_V_bounds,
    lyap_W,
    lyap_W_bounds,
    pe_window_sums,
    redesign_correction,
    run_comparison_experiment,
    simulate_cascade,
    unicycle,
    validated_gains,
    validated_references,
)
from dtaudit.cascade import _stacked_step, rollout


def const_refs(vr, wr, w_M=None):
    return ReferenceSignal(lambda t: vr + 0.0 * np.asarray(t),
                           lambda t: wr + 0.0 * np.asarray(t),
                           max(abs(vr), abs(wr)) if w_M is None else w_M)


def test_gain_validation():
    with pytest.raises(ValueError):
        ControllerGains(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        ControllerGains(1.0, 1.0, 0.1, use_correction="half")


def test_error_field_substitutions():
    """Plug simple states into the vehicle-frame error dynamics."""
    field = error_dynamics_field(demo_references())
    # unit forward error, zero input: pulled toward the reference at speed v_r
    f = field(0.0, np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0]))
    assert f == pytest.approx([1.0, 0.0, 0.0])
    # quarter-turn heading error converts v_r into lateral drift
    f = field(0.0, np.array([0.0, 0.0, np.pi / 2]), np.array([0.0, 0.0]))
    assert f == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)
    # the heading channel only sees the turn-rate mismatch
    t = 0.4
    f = field(t, np.array([0.0, 0.0, 0.0]), np.array([0.0, 1.5]))
    assert f[2] == pytest.approx(20.0 * np.sin(t) - 1.5)


def test_tracking_controller_hand_values():
    ctrl = controller_callable(const_refs(1.0, 0.3), ControllerGains(10.0, 70.0, 0.1))
    v, w = ctrl(0.01, 0, np.array([1.0, 0.0, 0.0]))
    assert v == pytest.approx(71.0)
    assert w == pytest.approx(0.3)
    v, w = ctrl(0.01, 0, np.array([0.0, 0.0, 0.0]))
    assert v == pytest.approx(1.0)
    # heading feedback rides on top of the reference turn rate
    _, w = ctrl(0.01, 0, np.array([0.0, 0.0, 0.2]))
    assert w == pytest.approx(0.3 + 10.0 * 0.2)


def test_correction_vanishes_at_origin():
    refs = demo_references()
    gains = demo_gains(use_correction="full")
    assert redesign_correction(0, 0.0, 0.0, refs, gains, 0.01) == 0.0


def test_correction_hand_value_at_zero_turn_rate():
    """With omega_r = 0, V has no eps and the correction is a2^2 / (2(1 - a2 T))."""
    refs = const_refs(1.0, 0.0, w_M=1.0)
    gains = demo_gains(0.01, use_correction="full")
    got = redesign_correction(0, 1.0, 0.0, refs, gains, 0.01)
    assert got == pytest.approx(4900.0 / 0.6, rel=1e-12)


def test_correction_denominator_guard():
    refs = const_refs(1.0, 0.0, w_M=1.0)
    gains = ControllerGains(1.0, 100.0, 0.1, use_correction="full")
    with pytest.raises(CorrectionDomainError) as err:
        redesign_correction(3, 1.0, 1.0, refs, gains, 0.01)
    assert err.value.k == 3
    assert err.value.T == 0.01


def test_correction_domain_error_reports_the_offending_row_k():
    """With a per-row k only the row at k = 7 has a vanishing denominator:
    1 - a2 T = 0 and omega_r(7T) = 0, while omega_r(kT) is at least T away
    from zero at every other k."""
    T = 0.01
    refs = ReferenceSignal(lambda t: 1.0 + 0.0 * np.asarray(t),
                           lambda t: np.asarray(t) - 7 * T, 1.0)
    gains = ControllerGains(1.0, 100.0, 0.1, use_correction="full")
    k = np.array([2, 9, 7, 4])
    x_e, y_e = np.array([1.0, -1.0, 0.5, 2.0]), np.array([0.5, 1.0, -2.0, 1.0])
    with pytest.raises(CorrectionDomainError) as err:
        redesign_correction(k, x_e, y_e, refs, gains, T)
    assert err.value.k == 7
    assert err.value.T == T
    with pytest.raises(CorrectionDomainError) as err:
        controller_callable(refs, gains)(T, k, np.column_stack([x_e, y_e, y_e]))
    assert err.value.k == 7
    with pytest.raises(CorrectionDomainError) as err:
        redesign_correction(7, x_e[2], y_e[2], refs, gains, T)
    assert err.value.k == 7
    keep = k != 7
    got = redesign_correction(k[keep], x_e[keep], y_e[keep], refs, gains, T)
    want = [redesign_correction(int(kk), a, b, refs, gains, T)
            for kk, a, b in zip(k[keep], x_e[keep], y_e[keep])]
    assert np.array_equal(got, want)

    # the fused closed-loop step reports the same row, from its table, also
    # for a (B, 1) column of k against (B, rows, 2) states
    f = closed_loop_euler_cascade(refs, gains).f
    X, Z = np.column_stack([x_e, y_e]), y_e[:, None]
    for kk, XX, ZZ in ((k, X, Z), (7, X[2], Z[2]),
                       (k[:, None], np.broadcast_to(X, (4, 4, 2)), np.zeros((1, 1, 1)))):
        with pytest.raises(CorrectionDomainError) as err:
            f(T, kk, XX, ZZ)
        assert (err.value.k, err.value.T, err.value.den) == (7, T, 0.0)
        assert "k=7" in str(err.value)
    # k = 7 is in the table now, but rows that do not step it do not raise
    emap = euler_map(error_dynamics_field(refs), controller_callable(refs, gains))
    got = f(T, k[keep], X[keep], Z[keep])
    assert np.array_equal(got, emap.step(T, k[keep], np.column_stack([X, Z])[keep])[:, :2])
    assert np.array_equal(f(T, 2, X, Z), emap.step(T, 2, np.column_stack([X, Z]))[:, :2])

    # a chunked rollout reports the k, T and den of the step-by-step one,
    # and no row that died before it reached k = 7: the first row, started
    # at k = 5, overflows in its first step
    sysm = closed_loop_euler_cascade(refs, gains)
    chunked, per_step = _stacked_step(sysm), _stacked_step(replace(sysm, f=lambda *a: sysm.f(*a)))
    assert hasattr(chunked, "chunk") and not hasattr(per_step, "chunk")
    Y0 = np.array([[1e306, 1e306, 0.0], [1.0, 0.5, 0.1], [0.5, -1.0, 0.2]])
    runs = []
    for step in (chunked, per_step):
        with pytest.raises(CorrectionDomainError) as err:
            rollout(step, T, np.array([5, 3, 9]), Y0, 300)
        assert (err.value.k, err.value.T, err.value.den) == (7, T, 0.0)
        runs.append(rollout(step, T, np.array([5, 9]), Y0[[0, 2]], 300))
        assert runs[-1][1][0] == 1
    assert runs[0][0].tobytes() == runs[1][0].tobytes()


@settings(max_examples=50, deadline=None)
@given(x_e=st.floats(min_value=-5.0, max_value=5.0),
       y_e=st.floats(min_value=-5.0, max_value=5.0),
       k=st.integers(min_value=0, max_value=628))
def test_correction_dominated_by_linear_bound(x_e, y_e, k):
    refs = validated_references()
    gains = validated_gains()
    # |numerator| <= (a2^2 + w_M^2 + eps a2 w_M^2 + 2 a2 w_M + eps w_M^3) |x|
    # and the denominator is at least 2 (1 - a2 T), with eps = alpha_y + T
    T, w_M, a2 = 0.01, refs.w_M, gains.a2
    eps = gains.alpha_y + T
    K = (a2 * a2 + w_M * w_M + eps * a2 * w_M ** 2 + 2.0 * a2 * w_M
         + eps * w_M ** 3) / (2.0 * (1.0 - a2 * T))
    got = abs(redesign_correction(k, x_e, y_e, refs, gains, 0.01))
    assert got <= K * math.hypot(x_e, y_e) + 1e-9


@pytest.mark.parametrize("regime", ["demo", "validated"])
def test_full_correction_V_difference_matches_closed_form(regime):
    """At zero heading the full correction leaves, with w = omega_r(kT),
    w' = omega_r((k-1)T) and v_T the correction,
    V(k+1) - V(k) = x^2 (-2 a2 T + eps T w^2) - T alpha_y w^2 y^2
                    + x y (eps (w' - w) + eps a2 T w)
                    + T^2 v_T (eps w - 2 T w) y + T^4 v_T^2."""
    T = 0.01
    if regime == "demo":
        refs, gains = demo_references(), demo_gains(T, use_correction="full")
    else:
        refs, gains = validated_references(T), validated_gains("full")
    f = closed_loop_euler_cascade(refs, gains).f
    eps, a2 = gains.alpha_y + T, gains.a2
    rng = np.random.default_rng(11)
    for k in rng.integers(0, 629, size=25):
        X = rng.uniform(-5.0, 5.0, size=(200, 2))
        x, y = X[:, 0], X[:, 1]
        nxt = f(T, k, X, np.zeros((200, 1)))
        dV = (lyap_V(k + 1, nxt[:, 0], nxt[:, 1], refs, gains, T)
              - lyap_V(k, x, y, refs, gains, T))
        w, wp = float(refs.omega_r(k * T)), float(refs.omega_r((k - 1) * T))
        vth = redesign_correction(k, x, y, refs, gains, T)
        closed = (x * x * (-2.0 * a2 * T + eps * T * w * w)
                  - T * gains.alpha_y * w * w * y * y
                  + x * y * (eps * (wp - w) + eps * a2 * T * w)
                  + T * T * vth * (eps * w - 2.0 * T * w) * y
                  + T ** 4 * vth * vth)
        assert np.all(np.abs(dV - closed) <= 1e-12 * (x * x + y * y)), f"k={k}"


def test_pe_windows_zero_reference_falsified():
    refs = const_refs(1.0, 0.0, w_M=1.0)
    verdict = check_pe(refs, L=1.0, mu=0.1, T_list=[0.01])
    assert verdict.kind == "falsified"
    assert verdict.witness.measured == 0.0


def test_pe_constant_reference_meets_continuum_level():
    """A constant turn rate c accumulates c^2 L of energy in any L-window."""
    refs = const_refs(1.0, 0.7, w_M=1.0)
    verdict = check_pe(refs, L=1.0, mu=0.49, T_list=[0.01, 0.05])
    assert verdict.kind == "pass"
    assert verdict.margins["min_window_sum"] >= 0.49


def test_pe_demo_reference_frozen_minimum():
    """20 sin t over a half-period window: the discrete minimum sits at 628.3185."""
    refs = demo_references()
    verdict = check_pe(refs, L=np.pi, mu=600.0, T_list=[0.01])
    assert verdict.kind == "pass"
    assert verdict.margins["min_window_sum"] == pytest.approx(628.3185246346573,
                                                              abs=1e-9)
    tight = check_pe(refs, L=np.pi, mu=630.0, T_list=[0.01])
    assert tight.kind == "falsified"


def test_pe_window_sums_are_slowly_varying():
    refs = demo_references()
    T = 0.01
    sums = pe_window_sums(refs, T, np.pi, 700)
    assert np.all(np.abs(np.diff(sums)) <= T * refs.w_M ** 2 + 1e-12)


def test_pe_rejects_bad_parameters():
    refs = demo_references()
    with pytest.raises(ValueError):
        check_pe(refs, L=0.0, mu=0.1, T_list=[0.01])
    with pytest.raises(ValueError):
        check_pe(refs, L=1.0, mu=0.0, T_list=[0.01])


def test_exact_proxy_single_state_step_equals_its_batch_row():
    """The feedback returns one input row for a 1-d state, which the
    integrator lifts to a batch of one; the field broadcasts the heading
    column to the batch shape."""
    refs, gains = demo_references(), demo_gains(0.01, "full")
    pmap = exact_proxy_map(error_dynamics_field(refs), controller_callable(refs, gains))
    x = np.array([1.0, 1.0, 0.5])
    one = pmap.step(0.01, 3, x)
    assert one.shape == (3,)
    assert np.array_equal(one, pmap.step(0.01, 3, x[None, :])[0])


def _phi(a, t):
    """(e^{iat} - 1) / (ia), with its limit t at a = 0."""
    return t if a == 0.0 else (np.exp(1j * a * t) - 1.0) / (1j * a)


def test_exact_proxy_matches_the_closed_form_error_flow():
    """Under a held input (v, w) and constant references (v_r, w_r),
    z = x_e + i y_e solves z' = -iwz - v + v_r e^{i theta}, so
    z(t) = e^{-iwt} [z0 - v phi(w, t) + v_r e^{i theta0} phi(w_r, t)] and
    theta(t) = theta0 + (w_r - w) t: the SE(2) exponential in the error
    coordinates. The proxy meets it within its own tolerance."""
    X0 = np.random.default_rng(3).uniform(-2.0, 2.0, (32, 3))
    z0, th0 = X0[:, 0] + 1j * X0[:, 1], X0[:, 2]
    worst = 0.0
    for vr, wr in ((0.5, 0.3), (1.0, 0.0), (0.8, -1.2)):
        field = error_dynamics_field(const_refs(vr, wr))
        for v, w in ((0.5, 0.3), (0.4, 0.0), (1.2, -0.7)):
            pmap = exact_proxy_map(field, np.array([v, w]), tol=1e-12)
            for T in (0.001, 0.01, 0.1, 0.5):
                z = np.exp(-1j * w * T) * (z0 - v * _phi(w, T) + vr * np.exp(1j * th0) * _phi(wr, T))
                want = np.column_stack([z.real, z.imag, th0 + (wr - w) * T])
                for k in (0, 3):
                    worst = max(worst, float(np.max(np.abs(pmap(T, k, X0) - want))))
    assert worst <= 1e-12


def test_heading_recursion_is_exactly_geometric():
    refs = demo_references()
    gains = demo_gains()
    sysm = closed_loop_euler_cascade(refs, gains)
    T, theta0 = 0.01, 0.5
    _, tz = simulate_cascade(sysm, T, 0, np.zeros(2), [theta0], 2000)
    k = np.arange(2001)
    assert np.allclose(tz[:, 0], (1.0 - T * gains.a1) ** k * theta0, atol=1e-12)


def test_cascade_reproduces_composed_map_bitwise():
    """The cascade slices of the composed one-step map stay bit-identical."""
    refs = demo_references()
    gains = demo_gains()
    emap = euler_map(error_dynamics_field(refs), controller_callable(refs, gains))
    T = 0.005
    s = np.array([1.0, 1.0, 0.5])
    tx, tz = simulate_cascade(closed_loop_euler_cascade(refs, gains), T, 0,
                              s[:2], s[2:], 100)
    direct = [s]
    for k in range(100):
        s = np.asarray(emap.step(T, k, s), dtype=float)
        direct.append(s)
    direct = np.array(direct)
    assert np.array_equal(np.concatenate([tx, tz], axis=1), direct)


@pytest.mark.parametrize("regime", ["demo", "validated"])
@pytest.mark.parametrize("variant", ["none", "scaled", "full"])
def test_fused_step_equals_composed_map_bitwise(regime, variant):
    """The fused f and g equal the composed Euler map bit for bit, for an int
    and a per-row k, with two periods interleaved and k past the first table."""
    if regime == "demo":
        refs, gains = demo_references(), demo_gains(use_correction=variant)
    else:
        refs, gains = validated_references(), validated_gains(variant)
    sysm = closed_loop_euler_cascade(refs, gains)
    emap = euler_map(error_dynamics_field(refs), controller_callable(refs, gains))
    rng = np.random.default_rng(5)
    S = rng.uniform(-2.0, 2.0, size=(33, 3))
    for k in (3, 0, 63, 64, 1000, 17, 4097, 130):
        for T in (0.005, 0.0125):
            want = emap.step(T, k, S)
            assert np.array_equal(sysm.f(T, k, S[:, :2], S[:, 2:]), want[:, :2])
            assert np.array_equal(sysm.g(T, k, S[:, 2:]), want[:, 2:])
            assert np.array_equal(sysm.f(T, k, S[0, :2], S[0, 2:]), want[0, :2])
            ks = rng.integers(0, 2 * k + 2, size=len(S))
            want = emap.step(T, ks, S)
            assert np.array_equal(sysm.f(T, ks, S[:, :2], S[:, 2:]), want[:, :2])
            assert np.array_equal(sysm.g(T, ks, S[:, 2:]), want[:, 2:])
    # a trajectory, so the states are the ones the closed loop visits
    T, s = 0.01, S[:4]
    states = rollout(_stacked_step(sysm), T, np.array([0, 5, 90, 700]), s, 60)[0]
    for i in range(60):
        s = emap.step(T, np.array([0, 5, 90, 700]) + i, s)
        assert np.array_equal(states[i + 1], s)
    with pytest.raises(ValueError):
        sysm.f(T, -1, S[:, :2], S[:, 2:])
    with pytest.raises(ValueError):
        sysm.g(T, np.array([3, -2]), S[:2, 2:])


def test_fused_step_tables_shared_across_threads():
    """Threads that step one closed loop at growing k and two periods may
    build a table twice, but every result keeps the composed map's bits."""
    refs, gains = validated_references(), validated_gains("full")
    sysm = closed_loop_euler_cascade(refs, gains)
    emap = euler_map(error_dynamics_field(refs), controller_callable(refs, gains))
    S = np.random.default_rng(2).uniform(-2.0, 2.0, size=(16, 3))
    calls = [(T, np.arange(16) + 40 * i) for i in range(60) for T in (0.01, 0.02)]
    expected = {(T, k[0]): emap.step(T, k, S)[:, :2] for T, k in calls}

    def work(offset):
        order = calls[offset:] + calls[:offset]
        return [(T, k[0], sysm.f(T, k, S[:, :2], S[:, 2:])) for T, k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, 7 * j) for j in range(6)]
            results = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert len(result) == len(calls)
        for T, k0, got in result:
            assert np.array_equal(got, expected[(T, k0)])


def test_lyap_V_hand_value_and_bounds():
    refs = const_refs(0.5, 1.0)
    gains = ControllerGains(1.0, 5.0, 0.09)
    # eps = alpha_y + T = 0.1 and the lagged turn rate is 1
    assert lyap_V(5, 1.0, 1.0, refs, gains, 0.01) == pytest.approx(1.9)
    c1, c2, ok = lyap_V_bounds(validated_gains(), w_M=0.5, T_star=0.01)
    assert c1 == pytest.approx(0.9725)
    assert c2 == pytest.approx(1.0275)
    assert ok
    # the published demo gains break the sandwich outright
    c1, _, ok = lyap_V_bounds(demo_gains(0.01), w_M=20.0, T_star=0.01)
    assert c1 == pytest.approx(-19.0)
    assert not ok


def test_lyap_W_constant_rate_closed_form():
    """Constant omega_r = w gives W = -T y^2 w^2 / (1 - e^{-T})."""
    refs = const_refs(0.5, 2.0, w_M=2.0)
    got = lyap_W(0, 3.0, refs, T=0.1)
    assert got == pytest.approx(-3.6 / (1.0 - np.exp(-0.1)), rel=1e-9)
    assert got == pytest.approx(-37.829995, abs=1e-5)
    assert lyap_W(4, 0.0, refs, T=0.1) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        lyap_W(-1, 1.0, refs, T=0.1)


def test_lyap_W_bounds_formulas():
    mu, L, w_M = 0.1381124, 2.0, 0.5
    c3, c4, T3, T5 = lyap_W_bounds(mu, L, w_M)
    assert c3 == pytest.approx(0.5)
    assert c4 == pytest.approx(math.exp(-L) * mu / (1.0 - math.exp(-L)), rel=1e-12)
    # T3 solves t = 2 (1 - e^{-t})
    assert T3 / (1.0 - math.exp(-T3)) == pytest.approx(2.0, abs=1e-10)
    assert T5 == pytest.approx(c4 / 4.0)


@pytest.fixture(scope="module")
def validated_constants():
    return compute_case_constants(validated_references(), validated_gains(),
                                  T_star=0.01, L_pe=2.0)


def test_unused_period_bounds_are_pinned(validated_constants):
    """`compute_case_constants` discards T3_star and T5_star = c4 / 4. On the
    validated preset at L_pe = 2, T5_star lies below the audited T = 0.01;
    whether the chain needs T <= T5_star cannot be read from the abstract."""
    c = validated_constants
    assert (c.mu_pe, c.c4) == (0.13811236791693113, 0.021617022260932612)
    c3, c4, T3, T5 = lyap_W_bounds(c.mu_pe, c.L_pe, validated_references().w_M)
    assert (c3, c4) == (c.c3, c.c4)
    assert (T3, T5) == (1.59362426004004, 0.005404255565233153)
    assert T5 < c.T_star == 0.01


def test_case_constants_frozen_values(validated_constants):
    c = validated_constants
    assert c.c1 == pytest.approx(0.9725)
    assert c.c2 == pytest.approx(1.0275)
    assert c.alpha_x == pytest.approx(4.918050, abs=1e-5)
    assert c.mu_pe == pytest.approx(0.1381124, abs=1e-6)
    assert c.K1 == pytest.approx(5.339159e-2, rel=1e-4)
    assert c.K2 == pytest.approx(4.293644e-2, rel=1e-4)
    assert c.alpha_y_tilde == pytest.approx(1.080851e-2, rel=1e-5)
    assert c.eps_small == pytest.approx(0.1)
    assert c.c3_tilde == pytest.approx(5.404256e-4, rel=1e-5)
    assert c.T_tilde == pytest.approx(0.01)
    assert c.all_valid
    assert c.first_violated() is None


def test_case_constants_json_round_trip(validated_constants):
    blob = validated_constants.to_json()
    assert blob["c1"] == validated_constants.c1
    assert blob["flags"]["T_tilde"] is True
    assert set(blob["flags"]) == set(validated_constants.flags)


def test_case_constants_demo_regime_invalid():
    c = compute_case_constants(demo_references(), demo_gains(0.01),
                               T_star=0.01, L_pe=np.pi, grid_n=9, radius=2.0,
                               k_max=20)
    assert not c.all_valid
    assert c.first_violated() == "c1"
    with pytest.raises(PreconditionError, match="c1"):
        lyap_U(0, np.array([1.0, 1.0]), demo_references(), demo_gains(0.01), c, 0.01)
    with pytest.raises(PreconditionError, match="c1"):
        audit_lyapunov_chain(demo_references(), demo_gains(0.01), c, 0.01)


def test_chain_reads_omega_r_at_the_audited_period():
    """The constants and the chain audit step at their own T; the T the
    references were built with must not enter."""
    gains, T = validated_gains(), 0.02
    runs = []
    for T_refs in (T, 0.01):
        refs = validated_references(T_refs)
        c = compute_case_constants(refs, gains, T, 2.0, grid_n=11)
        runs.append((c.to_json(), audit_lyapunov_chain(refs, gains, c, T, grid_n=11).to_json()))
    assert runs[1] == runs[0]
    assert runs[0][0]["K1"] == 1e-9


def test_lyap_U_combines_V_and_W(validated_constants):
    refs = validated_references()
    gains = validated_gains()
    x = np.array([0.7, -0.4])
    got = lyap_U(11, x, refs, gains, validated_constants, 0.01)
    expected = (lyap_V(11, 0.7, -0.4, refs, gains, 0.01)
                + validated_constants.eps_small * lyap_W(11, -0.4, refs, 0.01))
    assert got == pytest.approx(expected, rel=1e-12)


def _direct_S(refs, T, k):
    """S(k) as one direct sum at k alone: N + 1 products, N set by the tail tolerance."""
    N = int(math.ceil(math.log(2.0 * refs.w_M * refs.w_M / unicycle._TAIL_TOL) / T))
    i = np.arange(k, k + N + 1)
    return np.sum(np.exp((k - i) * T) * np.asarray(refs.omega_r(i * T), dtype=float) ** 2)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 1500), st.sampled_from([0.005, 0.01, 0.02]),
                          st.sampled_from(["lyap_W", "candidate", "chain"])),
                min_size=1, max_size=8),
       st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
def test_every_reader_of_S_gets_the_direct_sum_to_the_bit(validated_constants, reads, x_e,
                                                           y_e):
    """lyap_W, the audited U candidate and the chain pass read S(k) from the
    reference's table; with k and T arriving in any order, so that the table
    grows in any pattern, each read has the bits of a direct sum at k alone."""
    refs, gains, c = validated_references(), validated_gains(), validated_constants
    cand = unicycle._lyap_U_candidate(refs, gains, c)
    x = np.array([[x_e, y_e], [y_e, -x_e], [0.0, 0.0]])
    for k, T, reader in reads:
        S = _direct_S(refs, T, k)
        if reader == "lyap_W":
            assert lyap_W(k, y_e, refs, T) == -T * S * y_e * y_e
        elif reader == "candidate":
            U = lyap_V(k, x[:, 0], x[:, 1], refs, gains, T) + c.eps_small * (
                -T * S * x[:, 1] * x[:, 1])
            assert np.array_equal(cand.eval(T, k, x), U)
        else:  # the last row of the last block of a pass over a one-point grid up to k
            block = collections.deque(unicycle._chain_pass(
                refs, gains, T, np.array([x_e]), np.array([y_e]), k), maxlen=1)[0]
            assert block[0][-1] == k and block[4][-1, 0] == T * S


def test_S_tables_shared_across_threads():
    """Threads that read S(k) of one reference at growing k and two periods
    may sum a range twice, but every read keeps the direct sum's bits."""
    refs = validated_references()
    calls = [(T, 40 * i) for i in range(60) for T in (0.01, 0.02)]
    expected = {(T, k): -T * _direct_S(refs, T, k) for T, k in calls}

    def work(offset):
        order = calls[offset:] + calls[:offset]
        return [(T, k, lyap_W(k, 1.0, refs, T)) for T, k in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, 7 * j) for j in range(6)]
            results = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert len(result) == len(calls)
        for T, k, got in result:
            assert got == expected[(T, k)]


def test_constants_audit_and_lyap_W_sum_each_S_once():
    """Tooling guard: on one reference and period, the constant fit, the
    chain audit and 630 lyap_W calls sum each S(k) once, in one call of
    omega_r on an array longer than the N + 1 products of one S(k)."""
    base, gains, T = validated_references(), validated_gains(), 0.01
    N = int(math.ceil(math.log(2.0 * base.w_M * base.w_M / unicycle._TAIL_TOL) / T))
    lengths = []

    def omega_r(t):
        if np.ndim(t) and np.size(t) > N:
            lengths.append(np.size(t))
        return base.omega_r(t)

    refs = replace(base, omega_r=omega_r)
    c = compute_case_constants(refs, gains, T, 2.0, grid_n=11)
    assert audit_lyapunov_chain(refs, gains, c, T, grid_n=11).kind == "pass"
    for k in range(630):
        lyap_W(k, 1.0, refs, T)
    assert lengths == [refs.period_steps(T) + 2 + N]


def test_lyap_U_candidate_keeps_the_flag_check(validated_constants):
    c = replace(validated_constants, flags=dict(validated_constants.flags, c1=False))
    cand = unicycle._lyap_U_candidate(validated_references(), validated_gains(), c)
    with pytest.raises(PreconditionError, match="c1"):
        cand.eval(0.01, 0, np.array([[1.0, 1.0]]))


def test_chain_audit_passes_on_coarse_grid(validated_constants):
    verdict = audit_lyapunov_chain(validated_references(), validated_gains(),
                                   validated_constants, T=0.01,
                                   grid_n=9, radius=2.0, k_max=50)
    assert verdict.kind == "pass"
    m = verdict.margins
    assert set(m) == {"V_decrease", "W_decrease", "U_decrease", "V_lo", "V_hi",
                      "U_lo", "U_hi", "W_sandwich_lo", "W_sandwich_hi"}
    assert m["V_lo"] >= validated_constants.c1 - 1e-9
    assert m["V_hi"] <= validated_constants.c2 + 1e-9
    assert m["W_sandwich_lo"] >= validated_constants.c4 - 1e-9
    assert m["W_sandwich_hi"] <= validated_constants.c3 + 1e-9
    assert m["U_decrease"] >= -1e-9


def test_chain_margins_are_lyap_U_and_lyap_W_to_the_bit(validated_constants):
    """The audit's U is lyap_U and its weight T S(k) is -lyap_W(k, 1)."""
    refs, gains, c = validated_references(), validated_gains(), validated_constants
    m = audit_lyapunov_chain(refs, gains, c, T=0.01, grid_n=9, radius=2.0,
                             k_max=50).margins
    g = np.linspace(-2.0, 2.0, 9)
    pts = np.array([(x, y) for x in g for y in g if (x, y) != (0.0, 0.0)])
    n2 = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    ratios = [lyap_U(k, pts, refs, gains, c, 0.01) / n2 for k in range(51)]
    assert m["U_lo"] == min(float(np.min(r)) for r in ratios)
    assert m["U_hi"] == max(float(np.max(r)) for r in ratios)
    weights = [-lyap_W(k, 1.0, refs, 0.01) for k in range(51)]
    assert m["W_sandwich_lo"] == min(weights)
    assert m["W_sandwich_hi"] == max(weights)


def test_chain_audit_reports_the_failed_W_sandwich_side(validated_constants):
    c = validated_constants
    args = (validated_references(), validated_gains())
    kwargs = dict(T=0.01, grid_n=5, radius=2.0, k_max=3)
    upper = audit_lyapunov_chain(*args, replace(c, c3=0.5 * c.c4), **kwargs)
    lower = audit_lyapunov_chain(*args, replace(c, c4=2.0 * c.c3), **kwargs)
    assert upper.detail == lower.detail == "W sandwich violated"
    assert upper.witness.bound == 0.5 * c.c4 < upper.witness.measured
    assert lower.witness.bound == 2.0 * c.c3 > lower.witness.measured


def test_comparison_zero_initial_error_stays_at_rest():
    out = run_comparison_experiment({"horizon_s": 0.5,
                                     "initial_error": (0.0, 0.0, 0.0)})
    for variant in ("none", "scaled", "full"):
        metrics = out["variants"][variant]["metrics"]
        assert metrics["ise_position"] == 0.0
        assert metrics["final_norm"] == 0.0
        assert metrics["settle_step_position"] == 0
        assert not metrics["diverged"]
        # perfect tracking still spends the reference velocity
        assert metrics["peak_v"] == pytest.approx(1.0)


def test_comparison_heading_column_shared_across_variants():
    """The correction only enters v, so theta is bitwise identical per variant."""
    out = run_comparison_experiment({"horizon_s": 1.0})
    rows = {v: out["variants"][v]["rows"] for v in ("none", "scaled", "full")}
    theta_none = rows["none"][:, 4]
    assert np.array_equal(rows["full"][:, 4], theta_none)
    assert np.array_equal(rows["scaled"][:, 4], theta_none)
    # |theta| falls by at least half every 7 steps: 0.9^7 < 0.5
    live = np.abs(theta_none) > 1e-12
    ratio = np.abs(theta_none[7:]) / np.abs(theta_none[:-7])
    assert np.all(ratio[live[:-7]] <= 0.5)


def test_comparison_rejects_unknown_plant():
    with pytest.raises(ValueError, match="plant"):
        run_comparison_experiment({"plant": "rk4", "horizon_s": 0.1})



def test_chain_audit_names_the_earlier_of_two_failing_checks(validated_constants):
    c = validated_constants
    args = (validated_references(), validated_gains())
    kwargs = dict(T=0.01, grid_n=5, radius=2.0, k_max=3)
    # c2 below c1: the V and U upper sandwiches fail
    verdict = audit_lyapunov_chain(*args, replace(c, c2=0.5 * c.c1), **kwargs)
    assert verdict.detail == "V upper sandwich violated"
    # c3 below every weight and a steep U rate: the W sandwich and U decrease fail
    verdict = audit_lyapunov_chain(*args, replace(c, c3=0.05, c3_tilde=1e3), **kwargs)
    assert verdict.detail == "W sandwich violated"


def test_chain_audit_names_the_smaller_k(validated_constants):
    """T S(k) grows over k = 0..3 (0.1000, 0.1010, 0.1020, 0.1030), so
    c3 = 0.1025 breaks the W sandwich at k = 3 only, while a steep U rate
    breaks the U decrease at every k: the k = 0 U decrease is named."""
    c = replace(validated_constants, c3=0.1025, c3_tilde=1e3)
    verdict = audit_lyapunov_chain(validated_references(), validated_gains(), c,
                                   T=0.01, grid_n=5, radius=2.0, k_max=3)
    assert verdict.detail == "U decrease violated"
    assert verdict.witness.k == 0
    c = replace(validated_constants, c3=0.1025)
    verdict = audit_lyapunov_chain(validated_references(), validated_gains(), c,
                                   T=0.01, grid_n=5, radius=2.0, k_max=3)
    assert verdict.detail == "W sandwich violated"
    assert verdict.witness.k == 3


def test_K1_grid_artifact_is_pinned(validated_constants):
    """The fitted K1 is a property of the fitting grid (README, "Known
    findings"): the grid-41 constants pass the chain audit on their own
    grid and are falsified on the 81 x 81 grid of the same box, and at
    grid_n 51 the fit gives K1 = 0.2225, for which the T_tilde flag fails."""
    refs, gains, c = validated_references(), validated_gains(), validated_constants
    assert audit_lyapunov_chain(refs, gains, c, 0.01).kind == "pass"
    verdict = audit_lyapunov_chain(refs, gains, c, 0.01, grid_n=81)
    assert verdict.to_json() == {
        "kind": "falsified", "detail": "V decrease violated", "margins": {},
        "witness": {"T": 0.01, "k0": 86, "initial_state": [-0.125, -5.0], "k": 86,
                    "measured": -0.42135405450522967, "bound": -0.4224416362933345}}
    res = experiments.run_named("lyapunov-audit", {"grid_n": 51})
    assert (res.status, res.metrics["violated_flag"]) == (1, "T_tilde")
    assert res.metrics["constants"]["K1"] == pytest.approx(0.2225, abs=5e-5)


@pytest.mark.parametrize("T, TK1, U_excess", [(0.01, 0.0029258, -0.005682),
                                               (0.002, 0.0031400, -0.005564)])
def test_direction_sweep_pins_K1_and_the_U_decrease(T, TK1, U_excess):
    """Over 3,600 unit directions and every k of the period, the V-decrease
    remainder T K1 does not shrink with T (so no T-uniform K1 exists), while
    U = V + eps_small W still decreases at rate c3_tilde with the grid-41
    constants of that T: max(dU/T + c3_tilde |e|^2) stays below -0.0055."""
    refs, gains = unicycle._preset("validated", T)
    c = compute_case_constants(refs, gains, T, 2.0)
    th = np.arange(3600) * (math.tau / 3600)
    X, Y = np.cos(th), np.sin(th)
    TK1_req = U_req = -math.inf
    for block in unicycle._chain_pass(refs, gains, T, X, Y, refs.period_steps(T)):
        _, w, V, Vn, _, _, _ = block
        TK1_req = max(TK1_req, float(((Vn - V) / T + c.alpha_x * X * X
                                      + gains.alpha_y * w * w * Y * Y).max()))
        U_req = max(U_req, float((unicycle._U_step(block, c.eps_small)[1] / T).max()))
    U_req += c.c3_tilde
    assert (TK1_req, U_req) == (pytest.approx(TK1, abs=5e-8), pytest.approx(U_excess, abs=5e-7))
    assert TK1_req > 0.0025 and U_req <= -0.0055


def _per_k_chain_rows(refs, gains, T, X, Y, k_hi):
    """The chain pass one k at a time from public calls: (k, omega_r(kT),
    V, Vn, T S(k), W, Wn) with the full-correction closed loop's step."""
    f = closed_loop_euler_cascade(refs, replace(gains, use_correction="full")).f
    pts = np.stack([X, Y], axis=-1)
    for k in range(k_hi + 1):
        out = f(T, k, pts, np.zeros((len(X), 1)))
        Xn, Yn = out[:, 0], out[:, 1]
        yield (k, float(refs.omega_r(k * T)), lyap_V(k, X, Y, refs, gains, T),
               lyap_V(k + 1, Xn, Yn, refs, gains, T), -lyap_W(k, 1.0, refs, T),
               lyap_W(k, Y, refs, T), lyap_W(k + 1, Yn, refs, T))


@settings(max_examples=20, deadline=None)
@given(grid_n=st.integers(2, 25), k_max=st.integers(0, 80),
       T=st.sampled_from([0.01, 0.02]))
def test_chain_blocks_equal_the_per_k_pass_to_the_bit(grid_n, k_max, T):
    """Every block row of the chain pass has the bits of the per-k oracle,
    for k_max of 0, of a block's multiple and of neither, and the blocks
    cover k = 0..k_max once, in order."""
    refs, gains = validated_references(), validated_gains()
    X, Y = unicycle._chain_grid(grid_n, 2.0)
    rows = [row for ks, w, V, Vn, TS, W, Wn in unicycle._chain_pass(refs, gains, T, X, Y, k_max)
            for row in zip(ks.tolist(), w[:, 0].tolist(), V, Vn, TS[:, 0].tolist(), W, Wn)]
    want = list(_per_k_chain_rows(refs, gains, T, X, Y, k_max))
    assert [r[0] for r in rows] == list(range(k_max + 1))
    for got, exp in zip(rows, want):
        assert got[:2] == exp[:2] and got[4] == exp[4]
        for a, b in zip(got[2:4] + got[5:], exp[2:4] + exp[5:]):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("doctor, detail, k", [
    ({}, None, None),
    ({"c3_tilde": 0.009}, "U decrease violated", 223),
    ({"c3": 0.1025}, "W sandwich violated", 3),
    # the U decrease, last in the check order, fails at k = 0 before the W sandwich
    ({"c3": 0.1025, "c3_tilde": 1e3}, "U decrease violated", 0),
])
def test_chain_audit_is_the_same_one_k_per_block(monkeypatch, validated_constants, doctor,
                                                 detail, k):
    """With one step index per block the chain audit gives the verdict,
    witness and margins of the default blocks, also where a check first
    fails in the middle of a block (k = 223 on the 9 x 9 grid, in the block
    of 102 indices from k = 204)."""
    refs, gains = validated_references(), validated_gains()
    c = replace(compute_case_constants(refs, gains, 0.01, 2.0, grid_n=9), **doctor)
    default = audit_lyapunov_chain(refs, gains, c, 0.01, grid_n=9).to_json()
    monkeypatch.setattr(unicycle, "_BLOCK", 1)
    assert audit_lyapunov_chain(refs, gains, c, 0.01, grid_n=9).to_json() == default
    assert default["detail"] == (detail or "Lyapunov chain holds on the grid")
    assert default.get("witness", {}).get("k") == k
