"""Comparison-function algebra: shifts, composition, envelope fitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtaudit import (
    ClassKFunction,
    EnvelopeFalsified,
    HorizonIndex,
    KLBound,
    Trajectory,
    fit_kl_envelope,
    horizon_index,
    kl_compose,
    kl_shift,
)


# --- horizon index ------------------------------------------------------


def test_horizon_index_floor_cases():
    assert horizon_index(1.0, 0.3) == 3
    assert horizon_index(2.0, 0.01) == 200
    assert horizon_index(0.5, 0.7) == 0


def test_horizon_index_rejects_nonpositive():
    with pytest.raises(ValueError):
        horizon_index(0.0, 0.1)
    with pytest.raises(ValueError):
        horizon_index(1.0, -0.1)


@given(st.floats(0.01, 50.0), st.floats(0.001, 5.0))
def test_horizon_index_bracket(L, T):
    ell = horizon_index(L, T)
    # ell*T <= L < (ell+1)*T, up to the one-ulp nudge for exact multiples
    assert ell * T <= L * (1.0 + 1e-9)
    assert L < (ell + 1) * T * (1.0 + 1e-9)


def test_horizon_index_dataclass_mirror():
    h = HorizonIndex.of(2.0, 0.01)
    assert (h.L, h.T, h.value) == (2.0, 0.01, 200)


# --- class-K functions ----------------------------------------------------


def test_class_k_shapes():
    lin = ClassKFunction.linear(2.0)
    pw = ClassKFunction.power(3.0, 2.0)
    aff = ClassKFunction.affine_capped(1.0, 2.0, cap=5.0)
    assert lin(2.0) == 4.0
    assert pw(2.0) == 12.0
    assert aff(1.0) == 3.0
    assert aff(100.0) == 5.0  # cap
    assert lin.is_class_k and pw.is_class_k
    assert not aff.is_class_k  # offset makes it class-N only
    assert lin.k_infinity and not aff.k_infinity


def test_zero_gain_is_not_class_k():
    z = ClassKFunction.zero()
    assert z(3.0) == 0.0
    assert not z.is_class_k


@given(st.floats(0.1, 10.0), st.floats(0.2, 3.0), st.floats(0.0, 100.0))
def test_power_inverse_round_trip(gain, exponent, s):
    f = ClassKFunction.power(gain, exponent)
    assert f.inverse(f(s)) == pytest.approx(s, rel=1e-9, abs=1e-9)


def test_tabulated_inverse_clamps_and_flags():
    f = ClassKFunction.tabulated([0.0, 1.0, 2.0], [0.0, 3.0, 5.0])
    assert f(0.5) == pytest.approx(1.5)
    x, flag = f.inverse(10.0, with_flag=True)
    assert x == 2.0 and flag


@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_class_k_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    for f in (ClassKFunction.linear(1.5), ClassKFunction.power(2.0, 0.7),
              ClassKFunction.affine_capped(0.0, 1.0, cap=8.0)):
        assert f(lo) <= f(hi) + 1e-12


def test_class_k_json_round_trip():
    for f in (ClassKFunction.linear(2.5), ClassKFunction.power(1.0, 2.0),
              ClassKFunction.affine_capped(0.5, 2.0, cap=9.0),
              ClassKFunction.tabulated([0.0, 1.0], [0.0, 4.0])):
        g = ClassKFunction.from_json(f.to_json())
        xs = np.linspace(0.0, 3.0, 7)
        assert np.allclose(f(xs), g(xs))


# --- KL bounds and shifting ------------------------------------------------


def test_kl_shift_exponential_identity():
    beta = KLBound.exponential(1.0, 1.0)  # s * e^{-t}
    tilde = kl_shift(beta, 1.0)
    assert tilde.params["M"] == pytest.approx(math.e)
    s, t = np.meshgrid(np.linspace(0.0, 5.0, 50), np.linspace(0.0, 5.0, 50))
    np.testing.assert_allclose(beta(s, t), tilde(s, t + 1.0), rtol=1e-12)


def test_kl_shift_zero_is_identity():
    beta = KLBound.exponential(2.0, 3.0)
    assert kl_shift(beta, 0.0) is beta


def test_kl_shift_point_check():
    beta = KLBound.exponential(1.0, 1.0)
    tilde = kl_shift(beta, 2.0)
    assert tilde(1.0, 2.0) >= beta(1.0, 0.0) - 1e-12
    assert tilde(1.0, 2.0) == pytest.approx(1.0)


@given(st.floats(1.0, 50.0), st.floats(0.01, 5.0), st.floats(0.0, 4.0))
def test_kl_shift_dominates_on_grid(M, lam, c):
    beta = KLBound.exponential(M, lam)
    tilde = kl_shift(beta, c)
    s, t = np.meshgrid(np.linspace(0.0, 10.0, 50), np.linspace(0.0, 10.0, 50))
    assert np.all(beta(s, t) <= tilde(s, t + c) * (1.0 + 1e-12) + 1e-12)


def test_kl_bound_rejects_bad_exponential():
    with pytest.raises(ValueError):
        KLBound.exponential(0.5, 1.0)
    with pytest.raises(ValueError):
        KLBound.exponential(1.0, 0.0)


def test_kl_bound_json_round_trip():
    beta = kl_compose(KLBound.exponential(2.0, 1.0), KLBound.exponential(1.0, 0.5),
                      KLBound.exponential(3.0, 2.0), ClassKFunction.linear(0.7), c=0.3)
    again = KLBound.from_json(beta.to_json())
    s, t = np.meshgrid(np.linspace(0.0, 4.0, 9), np.linspace(0.0, 4.0, 9))
    np.testing.assert_allclose(beta(s, t), again(s, t))


# --- composition ----------------------------------------------------------


def test_kl_compose_hand_value():
    # all three bounds s*e^{-t}, gamma identity, at (1, 0):
    # 4*(2*1 + 2*1) + 4*1 + 2*1 = 22
    e = KLBound.exponential(1.0, 1.0)
    beta = kl_compose(e, e, e, ClassKFunction.identity())
    assert beta(1.0, 0.0) == pytest.approx(22.0)


def test_kl_compose_zero_gain():
    # gamma = 0 kills the coupling terms: 4*2 + 0 + 2 = 10
    e = KLBound.exponential(1.0, 1.0)
    beta = kl_compose(e, e, e, ClassKFunction.zero())
    assert beta(1.0, 0.0) == pytest.approx(10.0)


def test_kl_compose_global_form():
    # unscaled variant: 1*(1+1) + 1 + 1 = 4
    e = KLBound.exponential(1.0, 1.0)
    beta = kl_compose(e, e, e, ClassKFunction.identity(), global_form=True)
    assert beta(1.0, 0.0) == pytest.approx(4.0)


def test_kl_compose_zero_at_zero():
    e = KLBound.exponential(2.0, 0.5)
    beta = kl_compose(e, e, e, ClassKFunction.linear(3.0), c=1.0)
    for t in (0.0, 1.0, 10.0):
        assert beta(0.0, t) == 0.0


def test_kl_compose_monotone_sampled():
    e = KLBound.exponential(2.0, 1.0)
    beta = kl_compose(e, e, e, ClassKFunction.identity())
    s = np.linspace(0.0, 3.0, 25)
    t = np.linspace(0.0, 6.0, 25)
    for tv in t:
        vals = beta(s, np.full_like(s, tv))
        assert np.all(np.diff(vals) >= -1e-12)
    for sv in s:
        vals = beta(np.full_like(t, sv), t)
        assert np.all(np.diff(vals) <= 1e-12)


# --- envelope fitting -------------------------------------------------------


def test_fit_envelope_zero_trajectory():
    traj = Trajectory(0.1, 0, np.zeros((20, 1)))
    beta = fit_kl_envelope([traj])
    assert beta.params["M"] == 1.0


def test_fit_envelope_geometric_decay():
    # norms 0.9^k at T=1 admit lam up to -ln(0.9) = 0.10536; the log grid
    # point just below is 0.1
    states = (0.9 ** np.arange(60))[:, None]
    beta = fit_kl_envelope([Trajectory(1.0, 0, states)])
    assert beta.params["M"] == 1.0
    assert beta.params["lam"] == pytest.approx(0.1, abs=1e-12)
    assert beta.params["lam"] <= -math.log(0.9) + 1e-12


def test_fit_envelope_divergent_witness():
    states = (1.1 ** np.arange(150))[:, None]
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope([Trajectory(1.0, 0, states)])
    traj_id, k = err.value.witness
    assert traj_id == 0
    assert k > 50  # growth only beats the loosest envelope at large k


def test_fit_envelope_loosest_witness_maps_back_to_trajectory_and_index():
    """The witness names the first sample beating the loosest envelope,
    counted past skipped zero-start trajectories and offset by k0."""
    T, nu, slack = 0.5, 0.0, 1e-9
    trajs = [Trajectory(T, 3, (0.8 ** np.arange(40))[:, None]),
             Trajectory(T, 9, np.zeros((25, 1))),
             Trajectory(T, 11, (1.3 ** np.arange(120))[:, None])]
    M_max, lam_min = 1.25 ** 42, 1e-4
    expect = None
    for ti, traj in enumerate(trajs):
        s0 = traj.norms[0]
        for k, n in enumerate(traj.norms):
            if expect is None and s0 > 0 and n > nu + slack and (
                    math.log(n - slack) - math.log(s0) + lam_min * k * T - math.log(M_max) > 1e-12):
                expect = (ti, traj.k0 + k)
    assert expect is not None and expect[0] == 2
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope(trajs)
    assert err.value.witness == expect
    assert all(type(v) is int for v in err.value.witness)


def test_fit_envelope_zero_start_witness():
    """A trajectory leaving zero is falsified at its first nonzero index."""
    states = np.zeros((10, 1))
    states[4:] = 0.5
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope([Trajectory(0.1, 0, np.ones((5, 1))), Trajectory(0.1, 7, states)])
    assert err.value.witness == (1, 11)


@settings(deadline=None, max_examples=40)
@given(st.floats(0.3, 0.99), st.floats(0.1, 10.0), st.integers(20, 80))
def test_fit_envelope_sound(rate, scale, n):
    """Any accepted envelope dominates every sample it was fitted on."""
    T = 0.25
    norms = scale * rate ** np.arange(n)
    traj = Trajectory(T, 0, norms[:, None])
    beta = fit_kl_envelope([traj])
    M, lam = beta.params["M"], beta.params["lam"]
    bound = M * norms[0] * np.exp(-lam * np.arange(n) * T)
    assert np.all(norms <= bound + 1e-9)


def test_fit_envelope_truncation_level():
    # samples below nu are exempt from the decay requirement
    norms = np.concatenate([0.5 ** np.arange(10), np.full(30, 1e-4)])
    beta = fit_kl_envelope([Trajectory(0.5, 0, norms[:, None])], nu=1e-3)
    M, lam = beta.params["M"], beta.params["lam"]
    k = np.arange(len(norms))
    bound = np.maximum(M * norms[0] * np.exp(-lam * k * 0.5), 1e-3)
    assert np.all(norms <= bound + 1e-9)
