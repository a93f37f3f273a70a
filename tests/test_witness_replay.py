"""Every audit kind falsifies a known-bad input, and its witness replays:
`measured` is re-derived to the bit from (T, k0, initial_state, k) with
public calls, outside the audit that reported it. Fitted gains are also
re-audited on samples they were not fitted on."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dtaudit import (Box, CascadeSystem, CertificateParams, ClassKFunction,
                     KLBound, ParameterizedMap, audit_lyapunov, audit_lyapunov_chain,
                     build_ugb_certificate, check_interconnection_bound, check_summability,
                     closed_loop_euler_cascade, compute_case_constants, experiments,
                     fit_kl_envelope, horizon_index, lyap_U, lyap_W, run_named, sample_ball,
                     simulate_driven, unicycle, usc_probe)
from dtaudit.cascade import _stacked_step, grid_rollouts, rollout
from dtaudit.experiments import _refs_from_spec
from dtaudit.stability import boundedness_escape, spuas_escape
from dtaudit.verdict import _SLACK, Witness, _first_violation

T = 0.01
# the theorem demo at the configuration of its acceptance tests
THEOREM_CONFIG = {"T_list": [0.01, 0.02], "horizon_s": 20.0, "n_ball": 17, "grid_n": 21}


@pytest.fixture(scope="module")
def validated():
    refs, gains = unicycle._preset("validated", T)
    return refs, gains, compute_case_constants(refs, gains, T, 2.0)


def _unforced(sysm, TT, k, x):
    """The closed loop's (x_e, y_e) step at zero heading error."""
    return sysm.f(TT, k, x, np.zeros((len(x), 1)))


def _assert_witness(verdict, detail, k, initial_state, measured, bound):
    w = verdict.witness
    assert (verdict.kind, verdict.detail) == ("falsified", detail)
    assert (w.T, w.k0, w.k, w.initial_state) == (T, k, k, initial_state)
    assert (w.measured, w.bound) == (measured, bound)
    return w, np.array([w.initial_state])


def test_first_violation_reads_a_leading_step_axis():
    """With masks of two or more dimensions the witness is at the first
    leading index at which any check fails, in the first check failing
    there; with 1-d masks it is in the first failing check."""
    at = lambda idx: Witness.of(T, 0, np.atleast_1d(idx), 0, 0.0, 0.0)
    a, b = np.ones((3, 4), dtype=bool), np.ones((3, 2, 2), dtype=bool)
    a[2, 0] = b[1, 1, 0] = b[2, 0, 0] = False
    got = _first_violation((a, at, "a"), (b, at, "b"))
    assert (got.detail, got.witness.initial_state) == ("b", (1.0, 1.0, 0.0))
    got = _first_violation((a[1:, 0], at, "a"), (b[:, 1, 0], at, "b"))
    assert (got.detail, got.witness.initial_state) == ("a", (1.0,))
    assert _first_violation((a[:2], at, "a"), (b[0], at, "b")) is None


def test_chain_U_decrease_witness_replays(validated):
    refs, gains, c = validated
    c = replace(c, c3_tilde=0.009)
    verdict = audit_lyapunov_chain(refs, gains, c, T, grid_n=9, radius=5.0)
    w, x = _assert_witness(verdict, "U decrease violated", 223, (0.0, -5.0),
                           -0.224510067940642, -0.22499999999999998)
    f = closed_loop_euler_cascade(refs, replace(gains, use_correction="full"))
    U = lambda k, y: lyap_U(k, y, refs, gains, c, w.T)[0]
    assert (U(w.k + 1, _unforced(f, w.T, w.k, x)) - U(w.k, x)) / w.T == w.measured
    assert -c.c3_tilde * float(np.sum(x ** 2)) == w.bound


def test_chain_W_sandwich_witness_replays(validated):
    """The W sandwich c4 <= T S(k) <= c3 does not depend on the state; its
    witness names the grid's first state."""
    refs, gains, c = validated
    verdict = audit_lyapunov_chain(refs, gains, replace(c, c3=0.1025), T, grid_n=9, radius=5.0)
    w, _ = _assert_witness(verdict, "W sandwich violated", 3, (-5.0, -5.0),
                           0.10304418841630993, 0.1025)
    assert -lyap_W(w.k, 1.0, refs, w.T) == w.measured  # T S(k)


def test_definition_audit_decrease_witness_replays(validated):
    """`audit_lyapunov` on the U candidate over every k of the period finds
    the chain's U-decrease witness, unscaled by T."""
    refs, gains, c = validated
    c = replace(c, c3_tilde=0.009)
    cand = unicycle._lyap_U_candidate(refs, gains, c)
    sysm = closed_loop_euler_cascade(refs, gains)
    F = ParameterizedMap(2, sysm.T_max, lambda TT, k, x: _unforced(sysm, TT, k, x), sysm.period)
    X, Y = unicycle._chain_grid(9, 5.0)
    verdict = audit_lyapunov(cand, F, 5.0 * math.sqrt(2.0) + 1.0, 0.0, [T],
                             np.stack([X, Y], axis=-1), k_set=range(refs.period_steps(T) + 1))
    w, x = _assert_witness(verdict, "decrease condition violated", 223, (0.0, -5.0),
                           -0.00224510067940642, -0.00225)
    assert (cand.eval(w.T, w.k + 1, F.step(w.T, w.k, x)) - cand.eval(w.T, w.k, x))[0] == w.measured


def test_certificate_input_drift_witness_replays():
    """The theorem demo's growth certificate with its gains at half the
    drift gain d it fits at this configuration."""
    refs, gains = unicycle._preset("validated", T)
    c = compute_case_constants(refs, gains, T, 2.0, grid_n=21)
    sysm = closed_loop_euler_cascade(refs, gains)
    X, Y = unicycle._chain_grid(21, 5.0)
    pts = np.concatenate([np.column_stack([X, Y, np.full(len(X), th)])
                          for th in (-0.5, -0.25, 0.0, 0.25, 0.5)])
    k_hi = refs.period_steps(T)
    half_d = ClassKFunction.linear(0.5136296728043365 / 2.0)
    params = CertificateParams(ClassKFunction.power(c.c1 / 2.0, 2.0),
                               ClassKFunction.power(c.c2, 2.0), 0.0, half_d, half_d,
                               ClassKFunction.identity())
    _, verdict = build_ugb_certificate(unicycle._lyap_U_candidate(refs, gains, c), sysm, params,
                                       pts, [T], k_set=sorted({*range(0, k_hi + 1, 7), k_hi}))
    w, xz = _assert_witness(verdict, "input-drift bound violated", 0, (-2.5, -2.5, -0.5),
                            0.01770492559384884, 0.017259160752221874)
    x, z = xz[:, :2], xz[:, 2:]
    U = lambda y: lyap_U(w.k + 1, y, refs, gains, c, w.T)[0]
    assert U(sysm.f(w.T, w.k, x, z)) - U(sysm.f(w.T, w.k, x, np.zeros_like(z))) == w.measured


def test_doctored_interconnection_witness_replays():
    """The theorem demo divides the closed loop's input response by T and
    reports the worst row of the falsified interconnection bound."""
    res = run_named("cascade-theorem-demo", THEOREM_CONFIG)
    verdict = res.metrics["interconnection"]["doctored_verdict"]
    assert (verdict["kind"], verdict["detail"]) == ("falsified", "interconnection bound violated")
    assert verdict["witness"] == {"T": T, "k0": 0, "initial_state": [-5.0, -5.0, 2.0], "k": 0,
                                  "measured": 14.965377243892062, "bound": 0.15008165090164594}
    refs, gains = unicycle._preset("validated", T)
    sysm = closed_loop_euler_cascade(refs, gains)

    def inflated(TT, k, x, z):
        base = sysm.f(TT, k, x, np.zeros_like(z))
        return base + (sysm.f(TT, k, x, z) - base) / TT

    x, z = np.array([[-5.0, -5.0]]), np.array([[2.0]])
    gap = inflated(T, 0, x, z) - inflated(T, 0, x, np.zeros_like(z))
    assert float(np.linalg.norm(gap, axis=1)[0]) == verdict["witness"]["measured"]


# the interconnection gains the theorem demo fits at its default config, on
# 2,048 Sobol points of this box at the probe indices of each period
HELD_OUT_GAINS = (1.0002946169981626, 0.9297508978985854)
HELD_OUT_BOX = Box((-5.0, -5.0, -2.0), (5.0, 5.0, 2.0))


@pytest.mark.parametrize("T_list, n_samples, every_k, detail, witness", [
    ([0.01, 0.02, 0.05], 16384, False, "interconnection bound violated",
     (0.01, 0, (-4.9481201171875, -4.8443603515625, 1.199951171875),
      0.08865883057290799, 0.08841256687744424)),
    ([0.01], 2048, True, None, None),
    ([0.02], 2048, True, None, None),
    ([0.05], 2048, True, "growth bound violated",
     (0.05, 10, (-0.0634765625, -3.8134765625, -0.115234375),
      3.816882177312702, 3.8168694222709774)),
], ids=["16384-points", "every-k-T0.01", "every-k-T0.02", "every-k-T0.05"])
def test_theorem_interconnection_gains_on_a_held_out_sample(T_list, n_samples, every_k,
                                                            detail, witness):
    """The default-config gains pass on the sample they were fitted on; on
    a denser Sobol sample, or at every k < floor(2 pi / T), these outcomes
    are pinned, and each falsification's witness replays to the bit."""
    refs, gains = unicycle._preset("validated", T)
    sysm = closed_loop_euler_cascade(refs, gains)
    g1, c = HELD_OUT_GAINS
    gamma1, gamma2 = ClassKFunction.linear(g1), ClassKFunction.affine_capped(c, c)
    k_set = range(int(math.tau // T_list[0])) if every_k else None
    verdict = check_interconnection_bound(sysm, gamma1, gamma2, ClassKFunction.identity(),
                                          HELD_OUT_BOX, T_list, n_samples=n_samples, k_set=k_set)
    if detail is None:
        assert verdict.kind == "pass"
        return
    w = verdict.witness
    assert (verdict.kind, verdict.detail) == ("falsified", detail)
    assert (w.T, w.k0, w.initial_state, w.measured, w.bound) == witness
    assert w.k == w.k0
    xz = np.array([w.initial_state])
    x, z = xz[:, :2], xz[:, 2:]
    F = sysm.f(w.T, w.k, x, z)
    if detail == "growth bound violated":
        assert float(np.linalg.norm(F, axis=1)[0]) == w.measured
        assert float(gamma1(np.linalg.norm(xz, axis=1))[0]) == w.bound
    else:
        gap = F - sysm.f(w.T, w.k, x, np.zeros_like(z))
        assert float(np.linalg.norm(gap, axis=1)[0]) == w.measured
        xn, zn = np.linalg.norm(x, axis=1), np.linalg.norm(z, axis=1)
        assert float((w.T * gamma2(xn) * zn)[0]) == w.bound


ESCAPED = "trajectory norm escaped the claimed bound"

# the drift gain d of the growth certificate and the gain kappa of the
# boundedness check that the theorem demo fits at its default config
HELD_OUT_D = 0.5199979273954476
HELD_OUT_KAPPA = 1.0177814700915897


def _certificate_points(X, Y, thetas):
    base = np.stack([X, Y], axis=-1)
    return np.concatenate([np.column_stack([base, np.full(len(base), th)]) for th in thetas])


@pytest.mark.parametrize("sample, every_k, witness", [
    ("fit", False, None),
    ("fit", True, (185, (-0.25, -1.0, -0.25), 0.0026482994325665032, 0.0026482953063069288)),
    ("theta-midpoints", False,
     (154, (-0.25, -1.0, -0.375), 0.0039658228053267575, 0.003964984201464627)),
    ("staggered", False,
     (147, (-0.125, -1.125, -0.25), 0.0029298882358099743, 0.0029291728432249463)),
], ids=["fit-sample", "every-k", "theta-midpoints", "staggered-grid"])
def test_theorem_drift_gain_on_a_held_out_sample(validated, sample, every_k, witness):
    """The default-config drift gain d passes on the sample it was fitted
    on: the 41-grid at five headings and every seventh k of a period. At
    every k of the period, at the midpoints of those headings, or on the
    staggered grid (the 41-grid's cell midpoints), the input-drift bound is
    falsified; each witness replays to the bit."""
    refs, gains, c = validated
    sysm = closed_loop_euler_cascade(refs, gains)
    cand = unicycle._lyap_U_candidate(refs, gains, c)
    X, Y = unicycle._chain_grid(41, 5.0)
    thetas = (-0.5, -0.25, 0.0, 0.25, 0.5)
    if sample == "theta-midpoints":
        thetas = (-0.375, -0.125, 0.125, 0.375)
    elif sample == "staggered":
        X, Y = (a.ravel() for a in np.meshgrid(*[np.linspace(-4.875, 4.875, 40)] * 2,
                                               indexing="ij"))
    k_hi = refs.period_steps(T)
    k_set = range(k_hi + 1) if every_k else sorted({*range(0, k_hi + 1, 7), k_hi})
    d = ClassKFunction.linear(HELD_OUT_D)
    params = CertificateParams(cand.alpha1, cand.alpha2, 0.0, d, d, ClassKFunction.identity())
    _, verdict = build_ugb_certificate(cand, sysm, params, _certificate_points(X, Y, thetas),
                                       [T], k_set=k_set)
    if witness is None:
        assert verdict.kind == "pass"
        return
    w, xz = _assert_witness(verdict, "input-drift bound violated", *witness)
    x, z = xz[:, :2], xz[:, 2:]
    U = lambda y: lyap_U(w.k + 1, y, refs, gains, c, w.T)[0]
    assert U(sysm.f(w.T, w.k, x, z)) - U(sysm.f(w.T, w.k, x, np.zeros_like(z))) == w.measured
    dz = d(np.linalg.norm(z, axis=1))
    assert float((w.T * dz * cand.eval(w.T, w.k, x) + w.T * dz)[0]) == w.bound


@pytest.mark.parametrize("n_ball, witness", [
    (33, None),
    (65, (0, (-0.46875, -1.40625, -0.78125), 112, 1.7057315384544731, 1.7053891121688247)),
], ids=["demo-records", "65-points"])
def test_theorem_kappa_gain_on_a_held_out_sample(n_ball, witness):
    """The default-config kappa passes on the demo's cascade records (33
    points of the ball); on 65 points at the same periods and start
    indices the norm bound is falsified, and the witness replays to the bit."""
    refs, gains = unicycle._preset("validated", T)
    sysm = closed_loop_euler_cascade(refs, gains)
    kappa = ClassKFunction.linear(HELD_OUT_KAPPA)
    runs = grid_rollouts(_stacked_step(sysm), sample_ball(5.0, 3, n_ball), [0.01, 0.02, 0.05],
                         40.0, period=sysm.period)
    verdict = boundedness_escape(runs, kappa, 0.0)
    if witness is None:
        assert verdict.kind == "pass"
        return
    w = verdict.witness
    assert (verdict.kind, verdict.detail) == ("falsified", ESCAPED)
    assert (w.T, w.k0, w.initial_state, w.k, w.measured, w.bound) == (T, *witness)
    states, _ = rollout(_stacked_step(sysm), w.T, w.k0, np.array([w.initial_state]), w.k - w.k0)
    assert float(np.linalg.norm(states[-1, 0])) == w.measured
    assert float(kappa(np.linalg.norm(w.initial_state))) == w.bound


def test_held_out_gains_are_the_theorem_demos_default_fit():
    res = run_named("cascade-theorem-demo", {})
    inter = res.metrics["interconnection"]
    assert (inter["gamma1_gain"], inter["gamma2_gain"]) == HELD_OUT_GAINS
    assert inter["verdict"]["kind"] == "pass"
    growth = res.metrics["growth_certificate"]
    assert (growth["drift_gain"], growth["verdict"]["kind"]) == (HELD_OUT_D, "pass")
    cascade = res.metrics["cascade"]
    assert (cascade["kappa_gain"], cascade["bounded"]["kind"]) == (HELD_OUT_KAPPA, "pass")


@pytest.mark.parametrize("shrunk, witness", [
    ("M", (0, (0.3125, -4.6875), 1, 4.69686566170169, 4.696725206025708)),
    ("lam", (0, (0.0, 5.0), 3208, 2.282859769992275, 2.282599681749898)),
], ids=["M", "lam"])
def test_shrunken_decay_envelope_witness_replays(shrunk, witness):
    """The envelope fitted to the unforced closed loop (the theorem demo's
    unforced grid) passes on its records; with M one grid step smaller, or
    lam a quarter larger, the decay envelope is falsified."""
    refs, gains = unicycle._preset("validated", T)
    sysm = closed_loop_euler_cascade(refs, gains)
    unforced = lambda TT, k, x: _unforced(sysm, TT, k, x)
    runs = list(grid_rollouts(unforced, sample_ball(5.0, 2, 33), [0.01, 0.02, 0.05], 40.0,
                              period=sysm.period))
    beta = fit_kl_envelope(runs)
    assert spuas_escape(runs, beta, 0.0).kind == "pass"
    M, lam = beta.params["M"], beta.params["lam"]
    shrunken = KLBound.exponential(*((M / 1.25, lam) if shrunk == "M" else (M, 1.25 * lam)))
    verdict = spuas_escape(runs, shrunken, 0.0)
    w = verdict.witness
    assert (verdict.kind, verdict.detail) == ("falsified", ESCAPED)
    assert (w.T, w.k0, w.initial_state, w.k, w.measured, w.bound) == (T, *witness)
    states, _ = rollout(unforced, w.T, w.k0, np.array([w.initial_state]), w.k - w.k0)
    assert float(np.linalg.norm(states[-1, 0])) == w.measured
    assert float(shrunken(float(np.linalg.norm(w.initial_state)), (w.k - w.k0) * w.T)) == w.bound


def test_summability_tail_overrun_witness_replays():
    """T sum of 0.9^k is 10. A budget 3e-9 short of it holds the partial sum
    of 200 terms (10 - 7.06e-9) but not that sum plus its geometric tail,
    so the check is falsified through the tail; a trajectory settling on a
    nonzero floor has no visibly decaying tail and is inconclusive."""
    shrink = lambda TT, k, z: 0.9 * z
    runs = list(grid_rollouts(shrink, [[1.0]], [1.0], 199.0, k0_set=[0]))
    mu = ClassKFunction.identity()
    verdict = check_summability(runs, mu, ClassKFunction.linear(10.0 - 3e-9))
    w = verdict.witness
    assert (verdict.kind, verdict.detail) == (
        "falsified", "partial sum plus tail exceeds the budget on trajectory 0")
    assert (w.T, w.k0, w.initial_state, w.k) == (1.0, 0, (1.0,), 199)
    assert (w.measured, w.bound) == (10.000000000000009, 9.999999997)
    states, _ = rollout(shrink, w.T, w.k0, np.array([w.initial_state]), w.k - w.k0)
    terms = np.asarray(mu(np.linalg.norm(states[:, 0], axis=1)))
    m = len(terms) // 3  # the last third of the terms fits the tail
    a0, a1 = terms[-m], terms[-1]
    r = (a1 / a0) ** (1.0 / (m - 1))
    assert float(w.T * np.cumsum(terms)[-1]) + w.T * a1 * r / (1.0 - r) == w.measured

    settle = lambda TT, k, z: 0.5 * z + 0.05  # to the floor 0.1
    runs = list(grid_rollouts(settle, [[1.0]], [1.0], 199.0, k0_set=[0]))
    verdict = check_summability(runs, mu, ClassKFunction.linear(1000.0))
    assert (verdict.kind, verdict.detail) == (
        "inconclusive", "tail of trajectory 0 is not visibly decaying")


def test_summability_sums_each_record_at_its_own_period():
    """T sum of 0.5^k is 2T: 0.02 at T = 0.01 holds the budget 0.03, and
    0.04 at T = 0.02 does not. Each record is summed at its own period, so
    trajectory 1 overruns at k = 2 (0.02 * 1.75), and its witness replays."""
    half = lambda TT, k, z: 0.5 * z
    runs = list(grid_rollouts(half, [[1.0]], [0.01, 0.02], 1.0, k0_set=[0]))
    mu = ClassKFunction.identity()
    verdict = check_summability(runs, mu, ClassKFunction.linear(0.03))
    w = verdict.witness
    assert (verdict.kind, verdict.detail) == (
        "falsified", "partial sum exceeds the budget on trajectory 1")
    assert (w.T, w.k0, w.initial_state, w.k, w.measured, w.bound) == (0.02, 0, (1.0,), 2,
                                                                      0.035, 0.03)
    states, _ = rollout(half, w.T, w.k0, np.array([w.initial_state]), w.k - w.k0)
    terms = np.asarray(mu(np.linalg.norm(states[:, 0], axis=1)))
    assert float((w.T * np.cumsum(terms))[-1]) == w.measured


def test_pe_window_witness_replays():
    """omega_r = 20 sin(t/3) has too little energy in the window [0, pi]
    for mu = 600: `pe-check` exits 1, and the window sum replays."""
    spec = {"vr": 1.0, "wr": {"kind": "sin", "amplitude": 20.0, "frequency": 1.0 / 3.0}}
    res = run_named("pe-check", {"refs": spec})
    verdict = res.metrics["verdict"]
    assert res.status == 1
    assert (verdict["kind"], verdict["detail"]) == (
        "falsified", "excitation window below the required level")
    assert verdict["witness"] == {"T": T, "k0": 0, "initial_state": [0.0], "k": 0,
                                  "measured": 369.53330302296695, "bound": 600.0}
    refs = _refs_from_spec(spec)
    w2 = np.asarray(refs.omega_r(np.arange(horizon_index(math.pi, T) + 1) * T)) ** 2
    assert T * np.cumsum(w2)[-1] == verdict["witness"]["measured"]


@pytest.mark.parametrize("gain", [100.0, 0.1])
def test_usc_probe_breaks_a_large_input_gain_and_its_failing_row_replays(gain):
    """The USC probe at the theorem demo's settings (its mu grid, eta, eps,
    horizon and initial states) on x(k+1) = x + T (-x + gain z): with input
    gain 100 no mu of the grid holds, with 0.1 the largest does. The
    probe's first row after the zero-input reference, from its first
    initial state under the constant input mu at the smallest mu,
    re-simulated alone, leaves eps in the first case and not in the second."""
    d = experiments._THEOREM_DEFAULTS
    driven = CascadeSystem(2, 1, lambda TT, k, x, z: x + TT * (-x + gain * z),
                           lambda TT, k, z: z, T_max=1.0)
    mu_grid, eps, L = d["mu_grid"], d["eps"], d["usc_L"]
    mu_star = usc_probe(driven, d["Delta"], d["eta"], eps, L, [T], mu_grid,
                        x0_count=d["usc_x0_count"])
    assert mu_star == (0.0 if gain > 1.0 else max(mu_grid))

    ell = horizon_index(L, T)
    x0 = sample_ball(d["eta"], 2, d["usc_x0_count"])[0]
    unforced = simulate_driven(driven, T, 0, x0, np.zeros((ell, 1)))
    forced = simulate_driven(driven, T, 0, x0,
                             np.full((ell, 1), min(mu_grid)))
    deviation = float(np.max(np.linalg.norm(forced - unforced, axis=1)))
    assert (deviation > eps + _SLACK) == (gain > 1.0)
