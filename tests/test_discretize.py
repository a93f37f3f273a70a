"""Model families: Euler, modified Euler, exact proxy, consistency orders."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtaudit import (
    Box,
    ConsistencyReport,
    VectorField,
    consistency_order,
    discretize,
    euler_map,
    exact_proxy_map,
    linear_exact_map,
    modified_euler_map,
)
from dtaudit.cascade import rollout


def double_integrator():
    return VectorField(2, 1, lambda t, x, u: np.stack(
        [np.asarray(x, dtype=float)[..., 1],
         np.asarray(x, dtype=float)[..., 1] * 0.0 + np.asarray(u, dtype=float)[..., 0]],
        axis=-1))


def example1_feedback():
    # u(x) = -(x1 + 2 x2) / T closes the loop at period scale
    def ctrl(T, k, x):
        x = np.asarray(x, dtype=float)
        return (-(x[..., 0] + 2.0 * x[..., 1]) / T)[..., None]
    return ctrl


def map_matrix(pmap, T, k=0):
    """Linear one-step map reconstructed column by column."""
    base = np.asarray(pmap.step(T, k, np.zeros(pmap.dim)), dtype=float)
    cols = [np.asarray(pmap.step(T, k, e), dtype=float) - base for e in np.eye(pmap.dim)]
    return np.column_stack(cols)


# --- Euler ----------------------------------------------------------------


def test_euler_hand_value():
    emap = euler_map(double_integrator(), np.array([3.0]))
    np.testing.assert_allclose(emap.step(0.1, 0, [1.0, 2.0]), [1.2, 2.3])


def test_euler_preserves_equilibrium():
    emap = euler_map(double_integrator(), np.array([0.0]))
    np.testing.assert_allclose(emap.step(0.3, 5, [0.0, 0.0]), [0.0, 0.0])


def test_euler_closed_loop_matrix_and_eigs():
    emap = euler_map(double_integrator(), example1_feedback())
    for T in (0.01, 0.1, 0.19, 0.3):
        A = map_matrix(emap, T)
        np.testing.assert_allclose(A, [[1.0, T], [-1.0, -1.0]], atol=1e-12)
        eig = np.sort(np.linalg.eigvals(A).real)
        r = math.sqrt(1.0 - T)
        np.testing.assert_allclose(eig, [-r, r], atol=1e-10)


def test_map_rejects_bad_period_and_index():
    emap = euler_map(double_integrator(), T_max=1.0)
    with pytest.raises(ValueError, match=r"T=2.0 outside admissible range \(0, 1.0\]"):
        emap(2.0, 0, [0.0, 0.0])
    with pytest.raises(ValueError):
        emap(0.5, -1, [0.0, 0.0])


def test_map_checks_each_entry_of_a_per_row_period():
    """The checked call takes a per-row T like `.step` does, and names the
    first entry outside (0, T_max]: NaN, zero, negative or too large."""
    emap = euler_map(double_integrator(), example1_feedback(), T_max=0.5)
    T, x = np.array([0.1, 0.2, 0.5]), np.ones((3, 2))
    assert np.array_equal(emap(T, 0, x), emap.step(T, 0, x))
    for bad in (math.nan, 0.0, -0.1, 0.6):
        with pytest.raises(ValueError, match=rf"T={bad} outside admissible range \(0, 0.5\]"):
            emap(np.array([0.1, bad, 0.2]), 0, x)


def test_model_maps_inherit_the_field_period():
    f = VectorField(1, 0, lambda t, x, u: np.sin(t) * np.asarray(x, dtype=float), math.tau)
    for build in (euler_map, modified_euler_map, exact_proxy_map):
        assert build(f).period == math.tau
    assert euler_map(double_integrator()).period is None


# --- modified Euler ---------------------------------------------------------


def test_modified_euler_time_dependent_integral():
    # scalar f = sin(t) * x from x=1 over [0, 0.1]: 1 + (1 - cos 0.1)
    f = VectorField(1, 0, lambda t, x, u: np.sin(t) * np.asarray(x, dtype=float))
    mmap = modified_euler_map(f)
    got = float(np.asarray(mmap.step(0.1, 0, [1.0]))[0])
    assert got == pytest.approx(1.0 + (1.0 - math.cos(0.1)), abs=1e-10)


def test_modified_euler_zero_state_linear_field():
    f = VectorField(1, 0, lambda t, x, u: np.sin(t) * np.asarray(x, dtype=float))
    mmap = modified_euler_map(f)
    assert float(np.asarray(mmap.step(0.2, 3, [0.0]))[0]) == 0.0


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 0.5), st.integers(0, 9))
def test_modified_euler_matches_euler_when_time_invariant(seed, T, k):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((3, 3))
    f = VectorField(3, 0, lambda t, x, u: np.asarray(x, dtype=float) @ A.T)
    x = rng.standard_normal(3)
    e = np.asarray(euler_map(f).step(T, k, x), dtype=float)
    m = np.asarray(modified_euler_map(f).step(T, k, x), dtype=float)
    assert np.max(np.abs(e - m)) <= 1e-12 * max(1.0, float(np.max(np.abs(e))))


# --- exact proxy ------------------------------------------------------------


def test_exact_proxy_double_integrator_closed_form():
    # held u=1 from rest: (0.5*T^2, T)
    xmap = exact_proxy_map(double_integrator(), np.array([1.0]))
    np.testing.assert_allclose(xmap.step(0.5, 0, [0.0, 0.0]), [0.125, 0.5], atol=1e-10)


def test_exact_proxy_scalar_exponential():
    f = VectorField(1, 0, lambda t, x, u: -np.asarray(x, dtype=float))
    xmap = exact_proxy_map(f)
    got = float(np.asarray(xmap.step(1.0, 0, [1.0]))[0])
    assert got == pytest.approx(math.exp(-1.0), abs=1e-9)


def test_exact_proxy_closed_loop_matrix():
    # with u = -(x1 + 2 x2)/T held over the interval the sampled map is
    # [[1 - T/2, 0], [-1, -1]]; one eigenvalue sits on the unit circle
    xmap = exact_proxy_map(double_integrator(), example1_feedback())
    for T in (0.01, 0.1, 0.3):
        A = map_matrix(xmap, T)
        np.testing.assert_allclose(A, [[1.0 - T / 2.0, 0.0], [-1.0, -1.0]], atol=1e-8)
        moduli = np.abs(np.linalg.eigvals(A))
        assert np.min(np.abs(moduli - 1.0)) <= 1e-6


def test_exact_proxy_tolerance_halving():
    field = double_integrator()
    tight = exact_proxy_map(field, np.array([0.7]), tol=1e-9)
    loose = exact_proxy_map(field, np.array([0.7]), tol=1e-8)
    for T in (0.05, 0.31):
        a = np.asarray(tight.step(T, 2, [0.4, -1.2]), dtype=float)
        b = np.asarray(loose.step(T, 2, [0.4, -1.2]), dtype=float)
        assert np.max(np.abs(a - b)) < 10.0 * 1e-8


# --- closed-form linear map ---------------------------------------------------


def example1_exact_map():
    return linear_exact_map([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                            lambda T: np.array([[-1.0, -2.0]]) / T)


def test_linear_exact_scalar_exponential():
    xmap = linear_exact_map([[-1.0]], [[1.0]], lambda T: np.zeros((1, 1)))
    for T in (0.01, 0.5, 1.0, 2.0):
        got = float(np.asarray(xmap.step(T, 3, [1.0]))[0])
        assert abs(got - math.exp(-T)) <= 1e-15


def test_linear_exact_closed_loop_matrix():
    # x1' = x2, x2' = u, u = -(x1 + 2 x2)/T held: [[1 - T/2, 0], [-1, -1]]
    xmap = example1_exact_map()
    for T in (0.01, 0.1, 0.19, 0.3):
        A = map_matrix(xmap, T)
        np.testing.assert_allclose(A, [[1.0 - T / 2.0, 0.0], [-1.0, -1.0]], rtol=0, atol=1e-14)
        moduli = np.abs(np.linalg.eigvals(A))
        assert np.min(np.abs(moduli - 1.0)) <= 1e-14


@pytest.mark.parametrize("theta", [0.1, 1.0, 3.0])
def test_linear_exact_rotation_takes_the_scaled_series(theta):
    """[[0, theta], [-theta, 0]] is not nilpotent; its exponential is the
    rotation [[cos, sin], [-sin, cos]]."""
    xmap = linear_exact_map([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [0.0]], lambda T: np.zeros((1, 2)))
    c, s = math.cos(theta), math.sin(theta)
    np.testing.assert_allclose(map_matrix(xmap, theta), [[c, s], [-s, c]], rtol=0, atol=1e-14)


@given(st.lists(st.sampled_from([0.01, 0.03, 0.1, 0.19, 0.3, 0.37, 0.45, 0.499]),
                min_size=1, max_size=16),
       st.integers(0, 2 ** 31 - 1), st.integers(-3, 4))
def test_linear_exact_per_row_periods_equal_per_period_steps(Ts, seed, scale):
    """A (rows,) T steps each row as a float T does, alone or with the
    other rows of its period, bit for bit."""
    xmap = example1_exact_map()
    T = np.array(Ts)
    X = np.random.default_rng(seed).standard_normal((len(T), 2)) * 10.0 ** scale
    got = xmap.step(T, 0, X)
    for i, t in enumerate(Ts):
        assert np.array_equal(got[i], xmap.step(t, 0, X[i]))
    for t in set(Ts):
        assert np.array_equal(got[T == t], xmap.step(t, 0, X[T == t]))


def test_linear_exact_batches_rows_and_rejects_bad_shapes():
    xmap = example1_exact_map()
    X = np.array([[1.0, 0.3], [0.0, 1.0], [-2.0, 0.5]])
    rows = np.stack([xmap.step(0.19, 0, x) for x in X])
    np.testing.assert_array_equal(xmap.step(0.19, 0, X), rows)
    with pytest.raises(ValueError):
        linear_exact_map(np.eye(2), [[1.0]], lambda T: np.zeros((1, 2)))
    bad_gain = linear_exact_map(np.eye(2), [[0.0], [1.0]], lambda T: np.zeros((2, 2)))
    with pytest.raises(ValueError):
        bad_gain.step(0.1, 0, [1.0, 0.0])


def _time_varying_field():
    """A field whose explicit time dependence makes RK45 and Simpson work."""
    return VectorField(2, 1, lambda t, x, u: np.stack(
        [np.asarray(x, dtype=float)[..., 1] + np.sin(t),
         np.cos(3.0 * t) * np.asarray(x, dtype=float)[..., 0] + np.asarray(u, dtype=float)[..., 0]],
        axis=-1), period=2.0 * math.pi)


@pytest.mark.parametrize("make", [euler_map, modified_euler_map, exact_proxy_map])
@pytest.mark.parametrize("per_row_k", [False, True])
def test_model_maps_step_per_row_periods_as_their_float_groups(make, per_row_k):
    """A (rows,) T is stepped one group of equal (T, k) at a time where the
    batch shares a time grid (RK45, Simpson), and row by row in the Euler
    step: every row gets the bits of its own group stepped alone, with the
    group's T a float."""
    pmap = make(_time_varying_field(), example1_feedback())
    rng = np.random.default_rng(5)
    T = rng.choice([0.02, 0.1, 0.3], size=12)
    k = rng.choice([0, 3, 40], size=12) if per_row_k else 7
    X = rng.standard_normal((12, 2))
    got = pmap.step(T, k, X)
    ks = np.broadcast_to(k, T.shape)
    for TT, kk in {(float(a), int(b)) for a, b in zip(T, ks)}:
        rows = (T == TT) & (ks == kk)
        assert got[rows].tobytes() == np.asarray(pmap.step(TT, kk, X[rows])).tobytes()


def test_exact_proxy_global_error_against_closed_form():
    """The RK45 proxy at tol 1e-10 tracks the closed form over thousands of
    steps from the four stall states of example1 (measured: 7.4e-13)."""
    proxy = exact_proxy_map(double_integrator(), example1_feedback(), tol=1e-10)
    exact = example1_exact_map()
    x0 = np.array([[1.0, 0.3], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    for T in (0.01, 0.1, 0.19, 0.3):
        got = rollout(proxy.step, T, 0, x0, 1500)[0]
        want = rollout(exact.step, T, 0, x0, 1500)[0]
        assert np.max(np.abs(got - want)) <= 1e-10


# --- consistency ------------------------------------------------------------


def test_consistency_identical_maps():
    emap = euler_map(double_integrator(), np.array([1.0]))
    rep = consistency_order(emap, emap, Box.centered(1.0, 2), T_list=[0.1, 0.05, 0.01],
                            n_samples=32)
    assert all(e == 0.0 for e in rep.max_errors)
    assert rep.slope is None


def test_consistency_euler_vs_exact_double_integrator():
    """Held |u|=1 gives a one-step gap of exactly 0.5 T^2."""
    field = double_integrator()
    held = np.array([1.0])
    rep = consistency_order(exact_proxy_map(field, held), euler_map(field, held),
                            Box.centered(1.0, 2), k_set=[0, 3], T_list=[0.1, 0.05, 0.01],
                            n_samples=64)
    for T, err in zip(rep.T_samples, rep.max_errors):
        assert err == pytest.approx(0.5 * T * T, rel=1e-6)
    assert rep.slope == pytest.approx(2.0, abs=1e-6)


def test_consistency_report_invariants():
    with pytest.raises(ValueError):
        ConsistencyReport((0.01, 0.1), (0.0, 0.0), None)
    with pytest.raises(ValueError):
        ConsistencyReport((0.1, 0.01), (-1.0, 0.0), None)


def test_consistency_rejects_empty_domain():
    # an empty domain cannot even be constructed; that is the domain error
    with pytest.raises(ValueError):
        Box((1.0, 1.0), (0.0, 0.0))
    emap = euler_map(double_integrator(), np.array([1.0]))
    with pytest.raises(ValueError):
        consistency_order(emap, emap, Box.centered(1.0, 2), T_list=[])


@pytest.mark.parametrize("k_set", [[], (), range(0), [0, -1]],
                         ids=["list", "tuple", "range", "negative"])
def test_consistency_rejects_an_empty_or_negative_index_set(k_set):
    """No index means no gap measured: an empty k_set is an error, not a
    report of zero errors, and it is raised before any map call."""
    emap = euler_map(double_integrator(), np.array([1.0]))
    calls = []

    def counted(T, k, x):
        calls.append(k)
        return emap(T, k, x)

    counting = replace(emap, step=counted)
    with pytest.raises(ValueError, match="k_set must be a nonempty set of nonnegative indices"):
        consistency_order(counting, counting, Box.centered(1.0, 2), k_set=k_set,
                          T_list=[0.01, 0.02])
    assert calls == []


def test_consistency_order_steps_the_pairs_its_schedule_admitted(monkeypatch):
    """Tooling guard: `_schedule` checks the periods and indices once, so
    the sweep steps the maps without re-checking each period. Calling the
    maps instead made 8 period checks in this 2-period, 2-index, 2-map
    sweep."""
    calls = []
    check = discretize._check_period
    monkeypatch.setattr(discretize, "_check_period",
                        lambda T, T_max: calls.append(T) or check(T, T_max))
    emap = euler_map(double_integrator(), np.array([1.0]))
    consistency_order(emap, emap, Box.centered(1.0, 2), k_set=[0, 3], T_list=[0.1, 0.05],
                      n_samples=16)
    assert calls == []
    emap(0.1, 0, np.zeros(2))  # a map call is still checked, and counted here
    assert calls == [0.1]
