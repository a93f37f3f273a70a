"""Cascade simulation and the structural-hypothesis audits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtaudit import (
    Box,
    CascadeSystem,
    ClassKFunction,
    DivergenceError,
    InputSequence,
    Trajectory,
    check_interconnection_bound,
    closed_loop_euler_cascade,
    estimate_usc_constants,
    simulate_cascade,
    simulate_driven,
    usc_probe,
    validated_gains,
    validated_references,
)
from dtaudit.cascade import _k_probes, _probe_inputs, rollout
from dtaudit.numerics import horizon_index


def linear_cascade(a=1.0, b=1.0):
    """x(k+1) = (1 - aT) x + bT z, z(k+1) = (1 - T) z."""
    f = lambda T, k, x, z: (1.0 - a * T) * np.asarray(x, dtype=float) \
        + b * T * np.asarray(z, dtype=float)
    g = lambda T, k, z: (1.0 - T) * np.asarray(z, dtype=float)
    return CascadeSystem(1, 1, f, g, 1.0)


# --- simulation -------------------------------------------------------------


def test_simulate_cascade_hand_iteration():
    tx, tz = simulate_cascade(linear_cascade(), 0.5, 0, [1.0], [1.0], 2)
    np.testing.assert_allclose(tz.states[:, 0], [1.0, 0.5, 0.25])
    np.testing.assert_allclose(tx.states[:, 0], [1.0, 1.0, 0.75])


def test_simulate_cascade_equilibrium():
    tx, tz = simulate_cascade(linear_cascade(), 0.5, 0, [0.0], [0.0], 5)
    assert np.all(tx.states == 0.0) and np.all(tz.states == 0.0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_simulate_cascade_divergence_reports_first_bad_index():
    blow = CascadeSystem(1, 1,
                         lambda T, k, x, z: np.asarray(x, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float) * 1e200,
                         1.0)
    with pytest.raises(DivergenceError) as err:
        simulate_cascade(blow, 0.5, 0, [1.0], [1.0], 10)
    assert err.value.k == 2  # 1e200 is finite, 1e400 is not


def _squaring_cascade():
    """Row-independent driven map whose rows with |x0| >= 2 overflow."""

    def f(T, k, x, z):
        x, z = np.asarray(x, dtype=float), np.asarray(z, dtype=float)
        x0, x1 = x[..., 0], x[..., 1]
        return np.stack([0.5 * x0 * x0 - 0.3 * x1 + z[..., 0],
                         0.9 * x1 + T * math.sin(k) * z[..., 0]], axis=-1)

    return CascadeSystem(2, 1, f, lambda T, k, z: np.asarray(z, dtype=float), 1.0)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 64), st.integers(0, 30), st.integers(0, 1000), st.integers(0, 2**32 - 1))
def test_rollout_equals_per_row_loop_bit_for_bit(batch, steps, k0, seed):
    """Batched rollout against the per-row loop, including rows that overflow."""
    rng = np.random.default_rng(seed)
    sysm, T = _squaring_cascade(), 0.1
    X0 = rng.uniform(-3.0, 3.0, size=(batch, 2))
    U = rng.uniform(-1.0, 1.0, size=(steps, batch, 1))
    states, first_bad = rollout(sysm.f, T, k0, X0, steps, U)
    assert states.shape == (steps + 1, batch, 2) and first_bad.shape == (batch,)
    for j in range(batch):
        _check_row(sysm, T, k0, X0[j], U[:, j], states[:, j], first_bad[j])


def _check_row(sysm, T, k0, x0, u, row_states, row_bad):
    """One rollout row against a single-row loop and against `simulate_driven`."""
    steps = len(u)
    x, expect, bad = x0, [x0], -1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            x = sysm.f(T, k0 + i, x, u[i])
            expect.append(x)
            if not np.all(np.isfinite(x)):
                bad = i + 1
                break
    assert row_bad == bad
    n = len(expect)
    assert np.array_equal(row_states[:n], np.array(expect), equal_nan=True)
    assert np.all(np.isnan(row_states[n:]))
    omega = InputSequence(k0, u) if steps else InputSequence(k0, np.zeros((0, 1)))
    if bad < 0:
        with np.errstate(over="ignore"):  # the norms of huge finite states overflow
            traj = simulate_driven(sysm, T, k0, x0, omega, steps=steps)
        assert np.array_equal(traj.states, row_states)
    else:
        with pytest.raises(DivergenceError) as err:
            simulate_driven(sysm, T, k0, x0, omega, steps=steps)
        assert err.value.k == k0 + row_bad


def test_rollout_rejects_mismatched_inputs():
    with pytest.raises(ValueError, match="inputs"):
        rollout(linear_cascade().f, 0.1, 0, np.zeros((3, 1)), 4, np.zeros((4, 2, 1)))


def test_simulate_driven_zero_input_matches_unforced_cascade():
    sysm = linear_cascade()
    steps = 20
    via_cascade, _ = simulate_cascade(sysm, 0.25, 3, [0.8], [0.0], steps)
    via_driven = simulate_driven(sysm, 0.25, 3, [0.8],
                                 InputSequence(3, np.zeros((steps, 1))))
    assert np.array_equal(via_cascade.states, via_driven.states)


def test_simulate_driven_geometric_series():
    # constant unit input at T=0.5: x(k) = 1 - 0.5^k
    sysm = linear_cascade()
    traj = simulate_driven(sysm, 0.5, 0, [0.0], InputSequence(0, np.ones((8, 1))))
    np.testing.assert_allclose(traj.states[:, 0], 1.0 - 0.5 ** np.arange(9))


def test_simulate_driven_zero_steps():
    traj = simulate_driven(linear_cascade(), 0.5, 0, [0.7],
                           InputSequence(0, np.zeros((0, 1))), steps=0)
    assert len(traj) == 1
    np.testing.assert_allclose(traj.states, [[0.7]])


def test_simulate_driven_rejects_short_input():
    with pytest.raises(ValueError):
        simulate_driven(linear_cascade(), 0.5, 0, [1.0],
                        InputSequence(0, np.zeros((3, 1))), steps=5)


def test_input_sequence_caches_sup_norm():
    omega = InputSequence(2, [[3.0], [-4.0], [1.0]])
    assert omega.sup_norm == 4.0
    np.testing.assert_allclose(omega.at(3), [-4.0])
    with pytest.raises(IndexError):
        omega.at(5)


def test_trajectory_requires_initial_state():
    with pytest.raises(ValueError):
        Trajectory(0.1, 0, np.zeros((0, 2)))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 5))
def test_semigroup_property_bit_exact(m, n, k0):
    """m+n steps equal n steps restarted from the m-step state, bit for bit."""
    wobble = CascadeSystem(
        1, 1,
        lambda T, k, x, z: np.asarray(x, dtype=float) * (1.0 - T)
        + T * np.sin(k * T) * np.asarray(z, dtype=float),
        lambda T, k, z: (1.0 - 0.5 * T) * np.asarray(z, dtype=float),
        1.0)
    full_x, full_z = simulate_cascade(wobble, 0.3, k0, [1.1], [0.9], m + n)
    mid_x, mid_z = simulate_cascade(wobble, 0.3, k0, [1.1], [0.9], m)
    tail_x, tail_z = simulate_cascade(wobble, 0.3, k0 + m,
                                      mid_x.states[-1], mid_z.states[-1], n)
    assert np.array_equal(full_x.states[m:], tail_x.states)
    assert np.array_equal(full_z.states[m:], tail_z.states)


def test_driven_reproduces_cascade_bit_exact():
    sysm = linear_cascade(a=2.0, b=0.7)
    tx, tz = simulate_cascade(sysm, 0.2, 1, [1.5], [-0.4], 30)
    redo = simulate_driven(sysm, 0.2, 1, [1.5], InputSequence(1, tz.states[:-1]))
    assert np.array_equal(redo.states, tx.states)


# --- interconnection bounds ---------------------------------------------------


def test_interconnection_bound_exact_equality():
    # f = x + Tz: the coupling gap is exactly T|z|
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: np.asarray(x, dtype=float)
                         + T * np.asarray(z, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    verdict = check_interconnection_bound(
        sysm, ClassKFunction.linear(2.0), ClassKFunction.affine_capped(1.0, 0.0),
        ClassKFunction.identity(), Box.centered(1.0, 2), [0.1, 0.01], n_samples=128)
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio_interconnection"] == pytest.approx(1.0)


def test_interconnection_bound_monotone_in_gains():
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: np.asarray(x, dtype=float)
                         + T * np.asarray(z, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    looser = check_interconnection_bound(
        sysm, ClassKFunction.linear(4.0), ClassKFunction.affine_capped(2.0, 1.0),
        ClassKFunction.linear(2.0), Box.centered(1.0, 2), [0.1, 0.01], n_samples=128)
    assert looser.kind == "pass"


def test_interconnection_bound_missing_period_factor_falsifies():
    # f = x + z: the gap is |z|, which beats T*gamma2*gamma3 for small T
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: np.asarray(x, dtype=float)
                         + np.asarray(z, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    verdict = check_interconnection_bound(
        sysm, ClassKFunction.linear(2.0), ClassKFunction.affine_capped(1.0, 0.0),
        ClassKFunction.identity(), Box.centered(1.0, 2), [0.01], n_samples=128)
    assert verdict.kind == "falsified"
    assert "interconnection" in verdict.detail
    assert verdict.witness is not None and verdict.witness.T == 0.01


# --- two-sided continuity constants -------------------------------------------


def test_usc_constants_linear_coupling():
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: np.asarray(x, dtype=float)
                         + T * np.asarray(z, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    K, verdict = estimate_usc_constants(sysm, 1.0, 1.0, [0.1, 0.01], samples=32)
    assert verdict.kind == "pass"
    assert K == pytest.approx(1.0, rel=1e-9)


def test_usc_constants_decoupled_system():
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: np.asarray(x, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    K, verdict = estimate_usc_constants(sysm, 1.0, 1.0, [0.1, 0.01], samples=32)
    assert verdict.kind == "pass"
    assert K == 0.0


# --- uniform semiglobal continuity probe ---------------------------------------


def test_usc_probe_input_independent_system():
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: (1.0 - T) * np.asarray(x, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    mu = usc_probe(sysm, 2.0, 1.0, 0.1, 2.0, [0.05], [0.5, 1.0, 5.0], x0_count=8)
    assert mu == 5.0


def test_usc_probe_contraction_threshold():
    # deviation of x(k+1) = (1-T)x + Tz from the unforced run converges to
    # mu*(1 - (1-T)^k), so the threshold for eps = 0.1 sits just above 0.1
    sysm = linear_cascade()
    mu = usc_probe(sysm, 2.0, 1.0, 0.1, 2.0, [0.05], [0.05, 0.1, 0.2], x0_count=8)
    assert mu == 0.1


def test_usc_probe_expanding_factor_four_of_proposition():
    """Expanding dynamics: the passing mu brackets eps/(e^{KL} - 1)."""
    K, L, eps = 1.0, 1.0, 0.1
    sysm = CascadeSystem(1, 1,
                         lambda T, k, x, z: (1.0 + K * T) * np.asarray(x, dtype=float)
                         + T * np.asarray(z, dtype=float),
                         lambda T, k, z: np.asarray(z, dtype=float), 1.0)
    mu_prop = eps / (math.exp(K * L) - 1.0)  # 0.0581977
    assert usc_probe(sysm, 2.0, 1.0, eps, L, [0.01], [mu_prop], x0_count=8) == mu_prop
    assert usc_probe(sysm, 2.0, 1.0, eps, L, [0.01], [4.0 * mu_prop], x0_count=8) == 0.0


def _usc_per_row(sys, eta, eps, L, T_list, mu_grid, x0_count):
    """The probe as a loop of single-row simulations, in its decision order."""
    from dtaudit._sampling import sample_ball
    x0s = sample_ball(eta, sys.dim_x, x0_count)
    for mu in sorted(mu_grid, reverse=True):
        holds = True
        for T in sorted(T_list):
            ell = horizon_index(L, T)
            for k0 in _k_probes(T):
                for x0 in x0s:
                    ref = simulate_driven(sys, T, k0, x0,
                                          InputSequence(k0, np.zeros((ell, sys.dim_z))), ell)
                    for vals in _probe_inputs(sys.dim_z, mu, ell):
                        try:
                            drv = simulate_driven(sys, T, k0, x0, InputSequence(k0, vals), ell)
                        except DivergenceError:
                            holds = False
                            break
                        if np.max(np.linalg.norm(drv.states - ref.states, axis=1)) > eps + 1e-9:
                            holds = False
                            break
                    if not holds:
                        break
                if not holds:
                    break
            if not holds:
                break
        if holds:
            return mu
    return 0.0


def test_usc_probe_batched_matches_per_row_loop():
    sysm = closed_loop_euler_cascade(validated_references(), validated_gains("full"))
    grid = [0.4, 0.2, 0.1, 0.05, 0.02]
    args = (2.0, 0.3, 1.0, [0.01, 0.02], grid)
    mu = usc_probe(sysm, 5.0, *args, x0_count=4)
    assert mu == _usc_per_row(sysm, *args, x0_count=4)
    assert grid[-1] < mu < grid[0]  # the grid brackets the threshold


def test_usc_probe_diverging_reference_raises_like_per_row_loop():
    blow = _squaring_cascade()
    args = (2.5, 0.5, 2.0, [0.1], [0.1])
    with pytest.raises(DivergenceError) as loop:
        _usc_per_row(blow, *args, x0_count=8)
    with pytest.raises(DivergenceError) as batched:
        usc_probe(blow, 3.0, *args, x0_count=8)
    assert batched.value.k == loop.value.k


def test_usc_deviation_bound_from_constant():
    """Measured deviations obey the exponential-in-K bound."""
    sysm = linear_cascade()
    K, _ = estimate_usc_constants(sysm, 1.0, 1.0, [0.1], samples=32)
    T, steps, mu = 0.1, 40, 0.05
    ref = simulate_driven(sysm, T, 0, [0.9], InputSequence(0, np.zeros((steps, 1))))
    drv = simulate_driven(sysm, T, 0, [0.9], InputSequence(0, np.full((steps, 1), mu)))
    dev = np.linalg.norm(drv.states - ref.states, axis=1)
    k = np.arange(steps + 1)
    assert np.all(dev <= (np.exp(K * T * k) - 1.0) * mu + 1e-9)
