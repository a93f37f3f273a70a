"""Every one-step audit kind falsifies a known-bad input, and its witness
replays: `measured` is re-derived to the bit from (T, k, initial_state)
with public calls, outside the audit that reported it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dtaudit import (CertificateParams, ClassKFunction, ParameterizedMap, audit_lyapunov,
                     audit_lyapunov_chain, build_ugb_certificate, closed_loop_euler_cascade,
                     compute_case_constants, lyap_U, lyap_W, run_named, unicycle)
from dtaudit.verdict import Witness, _first_violation

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
