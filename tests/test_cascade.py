"""Cascade simulation and the structural-hypothesis audits."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dtaudit import (
    Box,
    CascadeSystem,
    ClassKFunction,
    DivergenceError,
    Trajectory,
    VectorField,
    check_interconnection_bound,
    closed_loop_euler_cascade,
    controller_callable,
    demo_gains,
    demo_references,
    error_dynamics_field,
    euler_map,
    exact_proxy_map,
    experiments,
    linear_exact_map,
    modified_euler_map,
    simulate_cascade,
    simulate_driven,
    unicycle,
    usc_probe,
    validated_gains,
    validated_references,
)
from dtaudit.cascade import (_CHUNK, _k_probes, _probe_inputs, _rollout_chunks, _stacked_step,
                             grid_rollouts, rollout)
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
    np.testing.assert_allclose(tz[:, 0], [1.0, 0.5, 0.25])
    np.testing.assert_allclose(tx[:, 0], [1.0, 1.0, 0.75])


def test_simulate_cascade_equilibrium():
    tx, tz = simulate_cascade(linear_cascade(), 0.5, 0, [0.0], [0.0], 5)
    assert np.all(tx == 0.0) and np.all(tz == 0.0)


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
                         0.9 * x1 + T * np.sin(k) * z[..., 0]], axis=-1)

    return CascadeSystem(2, 1, f, lambda T, k, z: np.asarray(z, dtype=float), 1.0, math.tau)


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
    omega = u
    if bad < 0:
        with np.errstate(over="ignore"):  # the norms of huge finite states overflow
            states = simulate_driven(sysm, T, k0, x0, omega, steps=steps)
        assert np.array_equal(states, row_states)
    else:
        with pytest.raises(DivergenceError) as err:
            simulate_driven(sysm, T, k0, x0, omega, steps=steps)
        assert err.value.k == k0 + row_bad


def test_rollout_rejects_mismatched_inputs():
    with pytest.raises(ValueError, match="inputs"):
        rollout(linear_cascade().f, 0.1, 0, np.zeros((3, 1)), 4, np.zeros((4, 2, 1)))
    with pytest.raises(ValueError, match="k0"):
        rollout(linear_cascade().f, 0.1, np.zeros(2, dtype=int), np.zeros((3, 1)), 4)
    with pytest.raises(ValueError, match="per-row T"):
        rollout(linear_cascade().f, np.full(2, 0.1), 0, np.zeros((3, 1)), 4)


def test_rollout_keeps_each_live_rows_period_after_another_row_overflows():
    """A per-row T is sliced with the live rows: the step multiplies each
    row by its own T, so a row stepped with a neighbour's T would show."""
    T = np.array([2.0, 1e200, 3.0, 0.5])

    def step(T, k, Y):
        assert T.shape == (len(Y),)
        return Y * T[:, None]

    states, first_bad = rollout(step, T, 0, np.ones((4, 1)), 6)
    assert first_bad.tolist() == [-1, 2, -1, -1]
    i = np.arange(7)
    assert np.array_equal(states[:, [0, 2, 3], 0], np.column_stack([2.0 ** i, 3.0 ** i, 0.5 ** i]))
    assert np.isnan(states[3:, 1]).all()


# --- per-row start indices ------------------------------------------------------


def _regime(name, T):
    """References and full-correction gains; the demo regime's |omega_r| = 20
    is where numpy's array cube and Python's float cube part ways."""
    if name == "demo":
        return demo_references(), demo_gains(T, "full")
    return validated_references(T), validated_gains("full")


def _assert_stacked_equals_per_k0(step, T, k0s, Y0, steps):
    """One rollout with per-row k0 against one rollout per k0, bit for bit."""
    n = len(Y0)
    states, first_bad = rollout(step, T, np.repeat(k0s, n), np.tile(Y0, (len(k0s), 1)), steps)
    for i, k0 in enumerate(k0s):
        want, want_bad = rollout(step, T, k0, Y0, steps)
        assert np.array_equal(states[:, i * n:(i + 1) * n], want, equal_nan=True)
        assert np.array_equal(first_bad[i * n:(i + 1) * n], want_bad)
    return first_bad


@pytest.mark.parametrize("regime", ["validated", "demo"])
def test_stacked_rollout_equals_per_k0_rollouts_unicycle(regime):
    T = 0.01
    sysm = closed_loop_euler_cascade(*_regime(regime, T))
    step = _stacked_step(sysm)
    Y0 = np.random.default_rng(5).uniform(-5.0, 5.0, size=(12, 3))
    _assert_stacked_equals_per_k0(step, T, _k_probes(T, sysm.period), Y0, 300)
    # grid_rollouts yields the same slices, in k0 order
    got = list(grid_rollouts(step, Y0, [T], 300 * T, period=sysm.period))
    assert [(run.T, run.k0) for run in got] == [(T, k0) for k0 in _k_probes(T, sysm.period)]
    for run in got:
        want = rollout(step, T, run.k0, Y0, 300)[0]
        assert np.array_equal(run.x0, want[0])
        assert np.array_equal(run.norms, np.linalg.norm(want, axis=-1), equal_nan=True)


def _assert_same_records(got, want):
    assert [(run.T, run.k0) for run in got] == [(run.T, run.k0) for run in want]
    for a, b in zip(got, want):
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.norms, b.norms, equal_nan=True)


@pytest.mark.parametrize("regime", ["validated", "demo"])
def test_stacked_decay_grids_equal_separate_rollouts(regime):
    """The theorem demo's one stacked rollout per period: driving rows
    (0, 0, z), unforced rows (x, 0) and cascade rows (x, z) give the records
    of the driving map g, of f at z = 0 and of the cascade, each rolled out
    alone, bit for bit."""
    T_list, horizon = [0.01, 0.02], 3.0
    sysm = closed_loop_euler_cascade(*_regime(regime, 0.01))
    rng = np.random.default_rng(8)
    z_grid = rng.uniform(-2.0, 2.0, size=(5, 1))
    x_grid = rng.uniform(-5.0, 5.0, size=(6, 2))
    grid = rng.uniform(-5.0, 5.0, size=(7, 3))
    nz, nx = len(z_grid), len(x_grid)
    rows = np.concatenate([np.column_stack([np.zeros((nz, 2)), z_grid]),
                           np.column_stack([x_grid, np.zeros((nx, 1))]), grid])
    # the unforced rows keep z = 0 in every (T, k0) block of the stacked rollout
    for T in T_list:
        k0s = _k_probes(T, sysm.period)
        states = rollout(_stacked_step(sysm), T, np.repeat(k0s, len(rows)),
                         np.tile(rows, (len(k0s), 1)), horizon_index(horizon, T))[0]
        for b in range(len(k0s)):
            assert np.all(states[:, b * len(rows) + nz:b * len(rows) + nz + nx, 2] == 0.0)

    def alone(step, Y0):
        return list(grid_rollouts(step, Y0, T_list, horizon, period=sysm.period))

    unforced = lambda T, k, x: sysm.f(T, k, x, np.zeros((len(x), 1)))
    want = (alone(sysm.g, z_grid), alone(unforced, x_grid), alone(_stacked_step(sysm), grid))
    parts = ((slice(nz), slice(2, None)), (slice(nz, nz + nx), slice(2)),
             (slice(nz + nx, None), slice(None)))
    stacked = list(grid_rollouts(_stacked_step(sysm), rows, T_list, horizon,
                                 period=sysm.period, parts=parts))
    for p, records in enumerate(want):
        _assert_same_records(stacked[p::3], records)
    # the demo's records are these
    for got, records in zip(experiments._decay_records(sysm, z_grid, x_grid, grid, T_list,
                                                       horizon), want):
        _assert_same_records(got, records)


def test_stacked_rollout_equals_per_k0_rollouts_with_overflowing_rows():
    step = _stacked_step(_squaring_cascade())
    Y0 = np.column_stack([np.linspace(-3.0, 3.0, 13), np.linspace(1.0, -1.0, 13),
                          np.linspace(-0.5, 0.5, 13)])
    first_bad = _assert_stacked_equals_per_k0(step, 0.1, [0, 1, 31, 62], Y0, 40)
    assert np.any(first_bad > 0) and np.any(first_bad < 0)


def _assert_array_k_equals_int_k(call, k, *rows):
    """call(k, *rows) with an array k against call(kk, *rows of kk) per distinct kk."""
    out = np.asarray(call(k, *rows))
    for kk in np.unique(k).tolist():
        sel = k == kk
        assert np.array_equal(out[sel], np.asarray(call(kk, *(r[sel] for r in rows))))


# --- chunked stepping -----------------------------------------------------------

# rows whose column 0 turns inf at these steps: before, at and after each
# chunk boundary, and past every horizon below
_DEATHS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK]
_HORIZONS = [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


def _dying_rows():
    """Rows of `_doubling_step`: one per death step, then two that never die."""
    return np.column_stack([[math.ldexp(1.0, 1024 - s) for s in _DEATHS] + [1.0, -3.0],
                            np.linspace(-1.0, 1.0, len(_DEATHS) + 2)])


def _doubling_step(T, k, Y, U=None):
    """Column 0 doubles, so 2**(1024 - s) turns inf at step s; column 1 adds
    k * T (and the input). A non-finite input raises: a row stepped after it
    died fails the test."""
    if not np.isfinite(Y).all():
        raise AssertionError("a non-finite row was stepped")
    nxt = Y[:, 1] + k * T
    return np.column_stack([2.0 * Y[:, 0], nxt if U is None else nxt + U[:, 0]])


def _row_by_row(step, T, k0, Y0, steps, U):
    """Reference rollout: each row stepped alone until it turns non-finite."""
    states = np.full((steps + 1, *Y0.shape), np.nan)
    first_bad = np.full(len(Y0), -1)
    for r in range(len(Y0)):
        y = states[0, r] = Y0[r]
        for i in range(steps):
            with np.errstate(over="ignore"):
                y = states[i + 1, r] = step(T[r], k0[r] + i, y[None], U[i, r][None])[0]
            if not np.isfinite(y).all():
                first_bad[r] = i + 1
                break
    return states, first_bad


@pytest.mark.parametrize("steps", _HORIZONS)
def test_rollout_chunks_equal_one_rollout(steps):
    """The chunks of `_rollout_chunks` laid end to end are the states of
    each row stepped alone, with the same first non-finite steps, for
    per-row k0, T and inputs, and `rollout` collects them; once every row
    has died the chunks stop, the rest reading NaN."""
    rng = np.random.default_rng(steps)
    # the first three rows are all dead by state _CHUNK + 1, so a chunk
    # after the one holding it is never made
    for Y0, length in ((_dying_rows(), steps + 1),
                       (_dying_rows()[:3], min(steps + 1, 2 * _CHUNK))):
        n = len(Y0)
        k0 = rng.integers(0, 50, size=n)
        T = rng.uniform(0.1, 0.9, size=n)
        U = rng.uniform(-1.0, 1.0, size=(steps, n, 1))
        want, want_bad = _row_by_row(_doubling_step, T, k0, Y0, steps, U)
        chunks = list(_rollout_chunks(_doubling_step, T, k0, Y0, steps, U))
        assert [i0 for i0, _, _, _ in chunks] == list(range(0, length, _CHUNK))
        assert sum(len(states) for _, states, _, _ in chunks) == length
        got = np.full((length, *Y0.shape), np.nan)
        for i0, states, rows, _ in chunks:
            # the rows of a chunk are those live when it began
            assert np.array_equal(rows, np.flatnonzero((want_bad < 0) | (want_bad >= i0)))
            got[i0:i0 + len(states), rows] = states
        assert np.array_equal(got, want[:length], equal_nan=True)
        assert np.isnan(want[length:]).all()
        assert np.array_equal(chunks[-1][3], want_bad)
        states, first_bad = rollout(_doubling_step, T, k0, Y0, steps, U)
        assert np.array_equal(states, want, equal_nan=True)
        assert np.array_equal(first_bad, want_bad)


@pytest.mark.parametrize("steps", _HORIZONS)
def test_chunked_records_equal_records_of_one_rollout(steps):
    """`grid_rollouts` records, stepped in chunks, equal `Trajectory` records
    of one whole-horizon rollout per start index, part by part."""
    T, k0s, Y0 = 0.5, [0, 3, 40], _dying_rows()
    parts = ((slice(None), slice(None)), (slice(2), slice(1, None)),
             (slice(1, None), slice(1)))
    got = list(grid_rollouts(_doubling_step, Y0, [T], steps * T, k0_set=k0s, parts=parts))
    want = []
    for k0 in k0s:
        states, first_bad = rollout(_doubling_step, T, k0, Y0, steps)
        want += [Trajectory.of_states(T, k0, states[:, rs, cs]) for rs, cs in parts]
    assert sorted(set(first_bad[first_bad >= 0])) == [s for s in _DEATHS if s <= steps]
    _assert_same_records(got, want)
    for run in got:
        assert run.norms.flags.c_contiguous and run.norms.base is None
    # the default part is every row and column
    _assert_same_records(list(grid_rollouts(_doubling_step, Y0, [T], steps * T, k0_set=k0s)),
                         want[0::3])


# --- chunk steppers -------------------------------------------------------------


def _doubling_chunk(T, k, Y, out):
    """len(out) steps of `_doubling_step` in one call into `out`, dead rows
    stepped on."""
    for i in range(len(out)):
        Y = out[i] = np.column_stack([2.0 * Y[:, 0], Y[:, 1] + (k + i) * T])
    return out


def _chunked_doubling_step(T, k, Y):
    return _doubling_step(T, k, Y)


_chunked_doubling_step.chunk = _doubling_chunk


def _per_step(step):
    """The step without its chunk stepper."""
    return lambda T, k, Y: step(T, k, Y)


def _assert_same_rollout(got, want):
    """Two `rollout` results are equal bit for bit, NaNs included."""
    assert got[0].shape == want[0].shape
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("steps", _HORIZONS)
def test_chunk_stepper_chunks_equal_the_step_by_step_chunks(steps):
    """A step's chunk stepper makes the chunks the step-by-step loop makes:
    the same starts, states, NaNs after each row's death and first
    non-finite steps, for per-row k0 and T, deaths on both sides of chunk
    boundaries, and the early stop once every row has died."""
    rng = np.random.default_rng(steps)
    for Y0 in (_dying_rows(), _dying_rows()[:3]):
        k0 = rng.integers(0, 50, size=len(Y0))
        T = rng.uniform(0.1, 0.9, size=len(Y0))
        got = list(_rollout_chunks(_chunked_doubling_step, T, k0, Y0, steps))
        want = list(_rollout_chunks(_doubling_step, T, k0, Y0, steps))
        assert [i0 for i0, _, _, _ in got] == [i0 for i0, _, _, _ in want]
        for (_, a, rows_a, bad_a), (_, b, rows_b, bad_b) in zip(got, want):
            assert a.tobytes() == b.tobytes()
            assert np.array_equal(rows_a, rows_b)
        assert np.array_equal(bad_a, bad_b)
        _assert_same_rollout(rollout(_chunked_doubling_step, T, k0, Y0, steps),
                             rollout(_doubling_step, T, k0, Y0, steps))


def test_chunk_stepper_is_not_used_with_inputs():
    """A driven rollout steps one step at a time: the chunk stepper cannot
    take inputs."""
    def step(T, k, Y, U):
        return Y + U

    step.chunk = lambda *args: pytest.fail("chunk stepper called with inputs")
    states, _ = rollout(step, 0.1, 0, np.zeros((2, 1)), 3, np.ones((3, 2, 1)))
    assert np.array_equal(states[:, :, 0], [[0, 0], [1, 1], [2, 2], [3, 3]])


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 3 * _CHUNK + 2), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_linear_exact_chunk_path_equals_the_step_path(steps, per_row_T, seed):
    """`linear_exact_map` steps a chunk per call with the bits of one call
    per step, for a float or a per-row T, with rows that overflow inside a
    chunk, at a chunk boundary or never."""
    rng = np.random.default_rng(seed)
    # every state grows by at least 10^0.17 per step
    pmap = linear_exact_map([[8.0, 1.0], [0.0, 8.0]], [[0.0], [1.0]], lambda T: [[0.0, 0.0]])
    assert hasattr(pmap.step, "chunk")
    rows = 12
    T = rng.uniform(0.05, 1.0, size=rows) if per_row_T else float(rng.uniform(0.05, 1.0))
    Y0 = rng.standard_normal((rows, 2)) * 10.0 ** rng.uniform(0.0, 300.0, size=(rows, 1))
    Y0[0] = [1e306, -1e306]  # overflows within 12 steps
    Y0[1] = -0.0  # both sums start at +0.0, so this row reads +0.0 after step 0
    got = rollout(pmap.step, T, 0, Y0, steps)
    _assert_same_rollout(got, rollout(_per_step(pmap.step), T, 0, Y0, steps))
    assert got[1][0] >= 0 or steps < 12
    assert not np.signbit(got[0][1:, 1]).any()


def test_first_chunk_is_filled_in_place():
    """Tooling guard: the first chunk of a chunk-stepped rollout is one
    array, the initial states in its row 0 and the chunk stepper's states
    written after them. For 4,096 rows of `linear_exact_map` it peaks at
    about 1.14 chunk-sizes of traced memory; made apart and copied into a
    NaN-filled chunk, it peaked at 2.02."""
    pmap = linear_exact_map([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                            lambda T: [[-1.0 / T, -2.0 / T]])
    Y0 = np.random.default_rng(0).standard_normal((4096, 2))
    size = _CHUNK * Y0.nbytes
    pmap.step(0.19, 0, Y0[:1])  # Phi(T) is formed before tracing
    tracemalloc.start()
    try:
        i0, states, rows, _ = next(_rollout_chunks(pmap.step, 0.19, 0, Y0, 2 * _CHUNK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert i0 == 0 and states.nbytes == size and len(rows) == len(Y0)
    assert np.array_equal(states[0], Y0)
    assert peak < 1.3 * size


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 3 * _CHUNK + 2), st.booleans(), st.integers(0, 2 ** 31 - 1))
def test_euler_chunk_path_equals_the_step_path(steps, per_row_T, seed):
    """`euler_map` steps a chunk per call with the bits of one call per
    step, for a float or a per-row T read by the field and the controller,
    per-row start indices read by the field, and rows that overflow inside
    a chunk, at a chunk boundary or never."""
    rng = np.random.default_rng(seed)
    field = VectorField(2, 1, lambda t, x, u: np.stack(
        [x[..., 1] + np.sin(t), 2.0 * x[..., 0] + u[..., 0]], axis=-1))
    # the closed loop grows by at least a factor 3 per step
    emap = euler_map(field, lambda T, k, x: ((x[..., 0] + 2.0 * x[..., 1]) / T)[..., None])
    assert hasattr(emap.step, "chunk")
    rows = 12
    T = rng.uniform(0.05, 1.0, size=rows) if per_row_T else float(rng.uniform(0.05, 1.0))
    k0 = rng.integers(0, 50, size=rows)
    Y0 = rng.standard_normal((rows, 2)) * 10.0 ** rng.uniform(0.0, 300.0, size=(rows, 1))
    Y0[0] = [1e306, -1e306]  # overflows within 12 steps
    got = rollout(emap.step, T, k0, Y0, steps)
    _assert_same_rollout(got, rollout(_per_step(emap.step), T, k0, Y0, steps))
    assert got[1][0] >= 0 or steps < 12


# --- per-row step counts ---------------------------------------------------------

_ROW_K0 = 10_000  # row r starts at index r * _ROW_K0 + a small offset


def _count_guarded(step, k0, counts):
    """`step`, and its chunk stepper if it has one, failing the test when
    handed a row (read off its step index) at or past its own count."""
    counts = np.asarray(counts)

    def past(k, n):
        r = k // _ROW_K0
        return (k - k0[r] + n > counts[r]).any()

    def guarded(T, k, Y):
        if past(k, 1):
            pytest.fail("a row was stepped past its count")
        return step(T, k, Y)

    if hasattr(step, "chunk"):
        def chunk(T, k, Y, out):
            if past(k, len(out)):
                pytest.fail("a row was chunk-stepped past its count")
            return step.chunk(T, k, Y, out)
        guarded.chunk = chunk
    return guarded


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(0, 3 * _CHUNK + 2), min_size=1, max_size=len(_DEATHS) + 2),
       st.booleans(), st.integers(0, 2 ** 31 - 1))
@example([3 * _CHUNK, 2 * _CHUNK, 5, 0, 2 * _CHUNK + 2, 3 * _CHUNK + 2, _CHUNK, 2 * _CHUNK],
         True, 0)
@example([3 * _CHUNK, 2 * _CHUNK, 5, 0, 2 * _CHUNK + 2, 3 * _CHUNK + 2, _CHUNK, 2 * _CHUNK],
         False, 0)
def test_rollout_chunks_step_each_row_alone_for_its_own_count(counts, chunked, seed):
    """Each row's states from `_rollout_chunks` with per-row step counts,
    laid end to end, are those of the row rolled out alone for its own
    count, bit for bit, with its first non-finite step, for a chunk-stepping
    and a per-step map. No row is stepped past its count or after it died
    (`_doubling_step` raises on a non-finite row); a row that dies chunks
    before its count keeps its first non-finite step and reads NaN to it."""
    rng = np.random.default_rng(seed)
    Y0 = _dying_rows()[:len(counts)]  # row r < 6 turns inf at step _DEATHS[r]
    T = rng.uniform(0.1, 0.9, size=len(counts))
    k0 = _ROW_K0 * np.arange(len(counts)) + rng.integers(0, 50, size=len(counts))
    base = _chunked_doubling_step if chunked else _doubling_step
    step = _count_guarded(base, k0, counts)
    got = [np.full((c + 1, 2), np.nan) for c in counts]
    for i0, states, rows, first_bad in _rollout_chunks(step, T, k0, Y0, counts):
        for j, r in enumerate(rows.tolist()):
            got[r][i0:i0 + len(states)] = states[:, j]
    for r, c in enumerate(counts):
        alone, bad = rollout(base, T[r], k0[r], Y0[r], c)
        assert got[r].tobytes() == alone[:, 0].tobytes()
        assert first_bad[r] == bad[0]
    if counts[0] == 3 * _CHUNK and counts[1] == 2 * _CHUNK:  # the explicit examples
        # row 0 died at state _CHUNK - 1, long before its count 3 * _CHUNK
        assert first_bad[0] == _DEATHS[0] and np.isnan(got[0][_DEATHS[0] + 1:]).all()


def test_closed_loop_maps_name_their_float_T():
    """The closed loop's per-period tables take a float T: its f, g and
    chunk stepper reject a per-row array with a ValueError that says so."""
    sysm = closed_loop_euler_cascade(validated_references(), validated_gains())
    T, Y = np.full(2, 0.01), np.zeros((2, 3))
    for call in (lambda: sysm.f(T, 0, Y[:, :2], Y[:, 2:]), lambda: sysm.g(T, 0, Y[:, 2:]),
                 lambda: sysm.f.stacked_chunk(T, 0, Y, np.empty((3, 2, 3)))):
        with pytest.raises(ValueError, match="float T"):
            call()


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["none", "scaled", "full"]), st.sampled_from(["demo", "validated"]),
       st.booleans(), st.integers(0, 2 * _CHUNK + 3), st.integers(0, 2 ** 31 - 1))
def test_unicycle_chunk_path_equals_the_step_path(variant, preset, per_row_k0, steps, seed):
    """The closed loop's stacked (x, z) step makes a chunk per call with the
    bits of `f` and `g` called once per step, for every correction variant
    of both presets, an int or per-row k0 and horizons across chunk
    boundaries, with rows that diverge. Each path builds its own system,
    so their reference tables grow differently."""
    rng = np.random.default_rng(seed)
    T = float(rng.uniform(0.002, 0.0125))
    rows = 9
    Y0 = rng.uniform(-2.0, 2.0, size=(rows, 3))
    # the demo preset's `scaled` variant diverges, so these rows overflow
    # at steps all over a chunk there; the last one overflows in step 0
    Y0[:4, :2] *= 10.0 ** rng.uniform(200.0, 308.0, size=(4, 1))
    Y0[4, :2] = [1.7e308, -1.7e308]
    k0 = rng.integers(0, 800, size=rows) if per_row_k0 else int(rng.integers(0, 800))

    def stacked():
        step = _stacked_step(closed_loop_euler_cascade(*unicycle._preset(preset, T, variant)))
        assert hasattr(step, "chunk")
        return step

    got = rollout(stacked(), T, k0, Y0, steps)
    _assert_same_rollout(got, rollout(_per_step(stacked()), T, k0, Y0, steps))
    assert got[1][4] == (1 if steps else -1)


def test_a_replaced_step_f_or_g_is_what_a_rollout_steps():
    """A map or cascade whose `step`, `f` or `g` was replaced through
    `dataclasses.replace` rolls out through its own functions, one call per
    step, so wrappers see every step."""
    pmap = linear_exact_map([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                            lambda T: [[-1.0 / T, -2.0 / T]])
    calls = []
    counted = replace(pmap, step=lambda T, k, x: calls.append(k) or pmap.step(T, k, x))
    assert np.array_equal(rollout(counted.step, 0.19, 0, [1.0, 0.3], 300)[0],
                          rollout(pmap.step, 0.19, 0, [1.0, 0.3], 300)[0])
    assert calls == list(range(300))

    sysm = closed_loop_euler_cascade(validated_references(), validated_gains())
    assert hasattr(_stacked_step(sysm), "chunk")
    for name in ("f", "g"):
        calls, fn = [], getattr(sysm, name)

        def wrapped(T, k, *args, fn=fn, calls=calls):
            calls.append(k)
            return fn(T, k, *args)

        step = _stacked_step(replace(sysm, **{name: wrapped}))
        assert not hasattr(step, "chunk")
        got = rollout(step, 0.01, 5, [1.0, -0.5, 0.3], 300)
        _assert_same_rollout(got, rollout(_stacked_step(sysm), 0.01, 5, [1.0, -0.5, 0.3], 300))
        assert calls == list(range(5, 305))


@pytest.mark.parametrize("regime", ["validated", "demo"])
def test_array_k_equals_int_k_for_unicycle_maps(regime):
    T = 0.01
    refs, gains = _regime(regime, T)
    rng = np.random.default_rng(11)
    k = rng.permutation(np.repeat(np.arange(0, 629, 5), 2))  # two rows per k
    S = rng.uniform(-5.0, 5.0, size=(len(k), 3))
    U = rng.uniform(-5.0, 5.0, size=(len(k), 2))
    sysm = closed_loop_euler_cascade(refs, gains)
    ctrl = controller_callable(refs, gains)
    field = error_dynamics_field(refs)
    _assert_array_k_equals_int_k(lambda kk, X, Z: sysm.f(T, kk, X, Z), k, S[:, :2], S[:, 2:])
    _assert_array_k_equals_int_k(lambda kk, Z: sysm.g(T, kk, Z), k, S[:, 2:])
    _assert_array_k_equals_int_k(lambda kk, X: ctrl(T, kk, X), k, S)
    _assert_array_k_equals_int_k(lambda kk, X, V: field.rhs(kk * T, X, V), k, S, U)
    for pmap in (exact_proxy_map(field, ctrl), modified_euler_map(field, ctrl)):
        _assert_array_k_equals_int_k(lambda kk, X: pmap.step(T, kk, X), k, S)


def test_simulate_driven_zero_input_matches_unforced_cascade():
    sysm = linear_cascade()
    steps = 20
    via_cascade, _ = simulate_cascade(sysm, 0.25, 3, [0.8], [0.0], steps)
    via_driven = simulate_driven(sysm, 0.25, 3, [0.8],
                                 np.zeros((steps, 1)))
    assert np.array_equal(via_cascade, via_driven)


def test_simulate_driven_geometric_series():
    # constant unit input at T=0.5: x(k) = 1 - 0.5^k
    sysm = linear_cascade()
    states = simulate_driven(sysm, 0.5, 0, [0.0], np.ones((8, 1)))
    np.testing.assert_allclose(states[:, 0], 1.0 - 0.5 ** np.arange(9))


def test_simulate_driven_zero_steps():
    states = simulate_driven(linear_cascade(), 0.5, 0, [0.7],
                             np.zeros((0, 1)), steps=0)
    assert states.shape == (1, 1)
    np.testing.assert_allclose(states, [[0.7]])


def test_simulate_driven_rejects_short_input():
    with pytest.raises(ValueError):
        simulate_driven(linear_cascade(), 0.5, 0, [1.0],
                        np.zeros((3, 1)), steps=5)


@pytest.mark.parametrize("inputs, steps", [
    (np.zeros(4), None),  # (n,) samples, not (n, dim_z)
    (np.zeros((4, 2)), None),  # one input column too many
    (np.zeros((4, 1)), -1),
    (np.zeros((4, 1)), 5),  # more steps than samples
])
def test_simulate_driven_takes_k0_aligned_samples_and_steps_within_them(inputs, steps):
    with pytest.raises(ValueError):
        simulate_driven(linear_cascade(), 0.5, 3, [1.0], inputs, steps)


def test_trajectory_requires_initial_state():
    with pytest.raises(ValueError):
        Trajectory.of_states(0.1, 0, np.zeros((0, 3, 2)))
    with pytest.raises(ValueError):  # one (steps+1, dim) row is not a record
        Trajectory.of_states(0.1, 0, np.zeros((5, 2)))
    run = Trajectory.of_states(0.1, 0, np.full((5, 3, 2), 3.0))
    assert run.norms.shape == (5, 3) and np.all(run.norms == math.hypot(3.0, 3.0))
    # a record keeps the initial states and the norms, not the states
    assert not hasattr(run, "states")
    assert run.x0.shape == (3, 2) and np.all(run.x0 == 3.0)


@pytest.mark.parametrize("x0, norms", [
    (np.zeros((3, 2)), np.zeros((0, 3))),  # no initial step
    (np.zeros((3, 2)), np.zeros(5)),  # norms of one row, not a record
    (np.zeros((2, 2)), np.zeros((5, 3))),  # two initial states for three rows
])
def test_trajectory_checks_the_shapes_of_its_fields(x0, norms):
    with pytest.raises(ValueError, match="norms"):
        Trajectory(0.1, 0, x0, norms)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 5))
def test_semigroup_property_bit_exact(m, n, k0):
    """m+n steps equal n steps restarted from the m-step state, bit for bit."""
    wobble = CascadeSystem(
        1, 1,
        lambda T, k, x, z: np.asarray(x, dtype=float) * (1.0 - T)
        + T * np.sin(k * T) * np.asarray(z, dtype=float),
        lambda T, k, z: (1.0 - 0.5 * T) * np.asarray(z, dtype=float),
        1.0, math.tau)
    full_x, full_z = simulate_cascade(wobble, 0.3, k0, [1.1], [0.9], m + n)
    mid_x, mid_z = simulate_cascade(wobble, 0.3, k0, [1.1], [0.9], m)
    tail_x, tail_z = simulate_cascade(wobble, 0.3, k0 + m, mid_x[-1], mid_z[-1], n)
    assert np.array_equal(full_x[m:], tail_x)
    assert np.array_equal(full_z[m:], tail_z)


def test_driven_reproduces_cascade_bit_exact():
    sysm = linear_cascade(a=2.0, b=0.7)
    tx, tz = simulate_cascade(sysm, 0.2, 1, [1.5], [-0.4], 30)
    redo = simulate_driven(sysm, 0.2, 1, [1.5], tz[:-1])
    assert np.array_equal(redo, tx)


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


def test_interconnection_bound_default_probes_span_the_declared_period():
    """A coupling that breaks the drift bound only at k = floor(3 pi / T) = 94:
    the default start indices of a 6 pi-periodic system reach it (P // 2 of
    P = 188), those of a 2 pi-periodic one (0, 1, 31, 61) do not."""
    T = 0.1
    k_bad = math.floor(3.0 * math.pi / T)
    f = lambda T, k, x, z: np.asarray(x, dtype=float) \
        + (T if k != k_bad else 1.0) * np.asarray(z, dtype=float)
    g = lambda T, k, z: np.asarray(z, dtype=float)
    args = (ClassKFunction.linear(4.0), ClassKFunction.affine_capped(1.0, 0.0),
            ClassKFunction.identity(), Box.centered(1.0, 2), [T])
    slow = CascadeSystem(1, 1, f, g, 1.0, 6.0 * math.pi)
    verdict = check_interconnection_bound(slow, *args, n_samples=128)
    assert verdict.kind == "falsified"
    assert verdict.detail == "interconnection bound violated"
    assert verdict.witness.k == k_bad == 94
    fast = CascadeSystem(1, 1, f, g, 1.0, math.tau)
    assert check_interconnection_bound(fast, *args, n_samples=128).kind == "pass"


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
            for k0 in _k_probes(T, sys.period):
                for x0 in x0s:
                    ref = simulate_driven(sys, T, k0, x0,
                                          np.zeros((ell, sys.dim_z)), ell)
                    for vals in _probe_inputs(sys.dim_z, mu, ell):
                        try:
                            drv = simulate_driven(sys, T, k0, x0, vals, ell)
                        except DivergenceError:
                            holds = False
                            break
                        if np.max(np.linalg.norm(drv - ref, axis=1)) > eps + 1e-9:
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


@pytest.mark.parametrize("grid", [[0.2, -1.0], [-1.0, 0.2], [0.2, 0.0],
                                  [math.nan], [math.nan, 0.2], [0.2, math.nan]])
def test_usc_probe_checks_the_whole_mu_grid_before_probing(grid):
    """A bad grid value is an error even where a larger value passes first.
    A NaN is not positive: unchecked, [nan] read as "every mu failed" (0.0)
    and [nan, 0.2] as 0.2."""
    sysm = closed_loop_euler_cascade(validated_references(), validated_gains("full"))
    with pytest.raises(ValueError, match="mu grid must be positive"):
        usc_probe(sysm, 5.0, 2.0, 0.5, 2.0, [0.01], grid, x0_count=2)


def test_usc_probe_squares_its_deviations_in_place():
    """Tooling guard: the probe of the theorem demo's config sums each
    chunk's squared deviations without the two full-size copies that
    `np.linalg.norm` makes. With them a warm probe peaked at 4.5 MB of
    traced memory; without them it peaks at 3.7 MB."""
    sysm = closed_loop_euler_cascade(validated_references(), validated_gains("full"))
    args = (sysm, 5.0, 2.0, 0.5, 2.0, [0.01], [0.2, 0.1, 0.05, 0.02, 0.01])
    assert usc_probe(*args, x0_count=8) == 0.2
    tracemalloc.start()
    try:
        usc_probe(*args, x0_count=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.1e6


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
    # |f(x1, z) - f(x2, z)| = (1 - T)|x1 - x2| and |f(x, z1) - f(x, z2)| = T|z1 - z2|,
    # so K = 1 is the smallest two-sided continuity constant
    K = 1.0
    T, steps, mu = 0.1, 40, 0.05
    ref = simulate_driven(sysm, T, 0, [0.9], np.zeros((steps, 1)))
    drv = simulate_driven(sysm, T, 0, [0.9], np.full((steps, 1), mu))
    dev = np.linalg.norm(drv - ref, axis=1)
    k = np.arange(steps + 1)
    assert np.all(dev <= (np.exp(K * T * k) - 1.0) * mu + 1e-9)
