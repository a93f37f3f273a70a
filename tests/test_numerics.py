"""Comparison-function algebra: shifts, composition, envelope fitting;
the Sobol sampler behind every grid."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dtaudit import (
    ClassKFunction,
    EnvelopeFalsified,
    KLBound,
    Trajectory,
    fit_kl_envelope,
    horizon_index,
    kl_compose,
    kl_shift,
)
from dtaudit import Box, numerics, sample_ball, sample_box
from dtaudit._sampling import _sobol_unit
from dtaudit.numerics import _DEFAULT_LAM_GRID, _DEFAULT_M_GRID, _log_M_needed


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


# --- class-K functions ----------------------------------------------------


def test_class_k_shapes():
    lin = ClassKFunction.linear(2.0)
    pw = ClassKFunction.power(3.0, 2.0)
    aff = ClassKFunction.affine_capped(1.0, 2.0, cap=5.0)
    assert lin(2.0) == 4.0
    assert pw(2.0) == 12.0
    assert aff(1.0) == 3.0
    assert aff(100.0) == 5.0  # cap
    tab = ClassKFunction.tabulated([0.0, 1.0, 2.0], [0.0, 3.0, 5.0])
    assert tab(0.5) == pytest.approx(1.5)


@given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
def test_class_k_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    for f in (ClassKFunction.linear(1.5), ClassKFunction.power(2.0, 0.7),
              ClassKFunction.affine_capped(0.0, 1.0, cap=8.0)):
        assert f(lo) <= f(hi) + 1e-12


@pytest.mark.parametrize("gain, exponent", [(1.0, 2.0), (0.5, 0.5), (2.0, 3.0), (1.5, 1.0)])
def test_integral_reciprocal_of_a_power_matches_the_closed_form(gain, exponent):
    """rho(s) = s / phi(1) below 1 and 1/phi(1) + int_1^s dtau / (g tau^p)
    above, for every exponent p: (s^(1-p) - 1) / (g (1-p)), or ln(s) / g at
    p = 1; a float for a float s, an array of the shape of an array s."""
    rho = ClassKFunction("integral-reciprocal", {"phi": ClassKFunction.power(gain, exponent)})
    p = exponent

    def closed(s):
        if s <= 1.0:
            return s / gain
        tail = math.log(s) if p == 1.0 else (s ** (1.0 - p) - 1.0) / (1.0 - p)
        return (1.0 + tail) / gain

    s = [0.0, 0.25, 1.0, 1.5, 5.0, 40.0]
    got = rho(np.array(s).reshape(2, 3))
    assert got.shape == (2, 3)
    assert got.ravel() == pytest.approx([closed(v) for v in s], rel=1e-13)
    assert isinstance(rho(5.0), float) and rho(5.0) == pytest.approx(closed(5.0), rel=1e-13)
    if (gain, exponent) == (1.0, 2.0):
        assert rho(5.0) == pytest.approx(1.8, rel=1e-15)  # 1 + (1 - 1/5)


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


def test_kl_bound_to_json_writes_only_the_exp_form():
    """A report writes a fitted exp envelope; a composite has no JSON form."""
    assert KLBound.exponential(2.0, 0.5).to_json() == {"kind": "exp", "params": {"M": 2.0, "lam": 0.5}}
    e = KLBound.exponential(1.0, 1.0)
    with pytest.raises(ValueError, match="exp"):
        kl_compose(e, e, e, ClassKFunction.identity()).to_json()


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
    beta = kl_compose(e, e, e, ClassKFunction.linear(0.0))
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
    traj = Trajectory(0.1, 0, np.zeros((20, 1, 1)))
    beta = fit_kl_envelope([traj])
    assert beta.params["M"] == 1.0


def test_fit_envelope_geometric_decay():
    # norms 0.9^k at T=1 admit lam up to -ln(0.9) = 0.10536; the log grid
    # point just below is 0.1
    states = (0.9 ** np.arange(60))[:, None, None]
    beta = fit_kl_envelope([Trajectory(1.0, 0, states)])
    assert beta.params["M"] == 1.0
    assert beta.params["lam"] == pytest.approx(0.1, abs=1e-12)
    assert beta.params["lam"] <= -math.log(0.9) + 1e-12


def test_fit_envelope_divergent_witness():
    states = (1.1 ** np.arange(150))[:, None, None]
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope([Trajectory(1.0, 0, states)])
    traj_id, k = err.value.witness
    assert traj_id == 0
    assert k > 50  # growth only beats the loosest envelope at large k


def test_fit_envelope_nan_sample_is_falsified():
    """A trajectory that turns NaN gets no envelope: the NaN sample is the
    witness."""
    traj = Trajectory(0.1, 0, np.array([1.0, 0.9, 0.8, np.nan])[:, None, None])
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope([traj])
    assert err.value.witness == (0, 3)


def test_fit_envelope_loosest_witness_maps_back_to_trajectory_and_index():
    """The witness names the first sample beating the loosest envelope, its
    trajectory counted as the flat (record, column) index past skipped
    zero-start columns, and its step offset by the record's k0."""
    T, nu, slack = 0.5, 0.0, 1e-9
    k = np.arange(120)
    trajs = [Trajectory(T, 3, np.stack([0.8 ** k[:40], np.zeros(40)], axis=1)[:, :, None]),
             Trajectory(T, 11, np.stack([0.9 ** k, 1.3 ** k], axis=1)[:, :, None])]
    M_max, lam_min = 1.25 ** 42, 1e-4
    expect, ti = None, 0
    for traj in trajs:
        for j in range(traj.norms.shape[1]):
            s0 = traj.norms[0, j]
            for k, n in enumerate(traj.norms[:, j]):
                if expect is None and s0 > 0 and n > nu + slack and (
                        math.log(n - slack) - math.log(s0) + lam_min * k * T
                        - math.log(M_max) > 1e-12):
                    expect = (ti, traj.k0 + k)
            ti += 1
    assert expect is not None and expect[0] == 3
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope(trajs)
    assert err.value.witness == expect
    assert all(type(v) is int for v in err.value.witness)


def test_fit_envelope_zero_start_witness():
    """A trajectory leaving zero is falsified at its first nonzero index."""
    states = np.zeros((10, 2, 1))
    states[:, 0] = 1.0
    states[4:, 1] = 0.5
    with pytest.raises(EnvelopeFalsified) as err:
        fit_kl_envelope([Trajectory(0.1, 0, np.ones((5, 1, 1))), Trajectory(0.1, 7, states)])
    assert err.value.witness == (2, 11)


def test_fit_envelope_per_lam_max_equals_broadcast_formula():
    """The per-lam reduction is bitwise the (lam, sample) broadcast one, and
    the fit picks the (M, lam) that formula selects."""
    rng = np.random.default_rng(5)
    lam_grid = np.logspace(-4.0, 1.0, 51)
    M_grid = np.linspace(1.0, 6.0, 41)
    slack = 1e-9
    trajs, taus, lognorms = [], [], []
    for _ in range(30):
        T, n = rng.uniform(0.05, 0.5), int(rng.integers(20, 200))
        ks = np.arange(n)
        norms = rng.uniform(0.1, 5.0) * np.exp(-rng.uniform(0.2, 2.0) * ks * T)
        norms *= 1.0 + rng.uniform(0.0, 2.0, n) * (ks > 0)
        trajs.append(Trajectory(T, int(rng.integers(0, 9)), norms[:, None, None]))
        active = norms > slack
        taus.append(ks[active] * T)
        lognorms.append(np.log(norms[active] - slack) - np.log(norms[0]))
    tau, logn = np.concatenate(taus), np.concatenate(lognorms)

    need_max = np.max(logn[None, :] + lam_grid[:, None] * tau[None, :], axis=1)
    assert np.array_equal(_log_M_needed(logn, tau, lam_grid), need_max)

    feasible = need_max[None, :] <= np.log(M_grid)[:, None] + 1e-12
    mi = int(np.argmax(feasible.any(axis=1)))
    li = int(np.max(np.nonzero(feasible[mi])[0]))
    assert 0 < mi and 0 < li < len(lam_grid) - 1  # an interior choice
    beta = fit_kl_envelope(trajs, M_grid=M_grid, lam_grid=lam_grid, slack=slack)
    assert beta.params == {"M": M_grid[mi], "lam": lam_grid[li]}


def _fit_full_sample(runs, nu, slack=1e-9):
    """The envelope fit over every active sample, one trajectory column at
    a time: the reference the per-step maxima of `fit_kl_envelope` must
    reproduce. The witness is the first sample beating the loosest
    envelope, a NaN one included. Returns ("fit",
    (M, lam), need_max) or ("falsified", witness)."""
    lam_grid, logM = np.asarray(_DEFAULT_LAM_GRID), np.log(_DEFAULT_M_GRID)
    taus, lognorms, ids, kabs, ti = [], [], [], [], 0
    for run in runs:
        for j in range(run.norms.shape[1]):
            norms = run.norms[:, j]
            s0, ks = norms[0], np.arange(len(norms))
            active = ~(norms <= nu + slack)
            if s0 <= 0.0:
                if np.any(active):
                    return "falsified", (ti, int(ks[active][0]) + run.k0)
            else:
                taus.append(ks[active] * run.T)
                lognorms.append(np.log(norms[active] - slack) - np.log(s0))
                ids.append(np.full(int(active.sum()), ti))
                kabs.append(ks[active] + run.k0)
            ti += 1
    tau = np.concatenate(taus) if taus else np.zeros(0)
    if not len(tau):
        return "fit", (_DEFAULT_M_GRID[0], max(_DEFAULT_LAM_GRID)), None
    logn = np.concatenate(lognorms)
    need_max = np.array([np.max(logn + lam * tau) for lam in lam_grid])
    feasible = need_max[None, :] <= logM[:, None] + 1e-12
    if not feasible.any():
        loose = logn + float(np.min(lam_grid)) * tau - np.max(logM)
        flat = int(np.nonzero(~(loose <= 1e-12))[0][0])
        return "falsified", (int(np.concatenate(ids)[flat]), int(np.concatenate(kabs)[flat]))
    mi = int(np.argmax(feasible.any(axis=1)))
    li = int(np.max(np.nonzero(feasible[mi])[0]))
    return "fit", (_DEFAULT_M_GRID[mi], lam_grid[li]), need_max


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.sampled_from([0.0, 1e-3]))
def test_fit_envelope_per_step_maxima_equal_full_sample_fit(seed, n_records, nu):
    """Sweeping lam over each record's per-step maxima gives, bit for bit,
    the need_max of every active sample, and the same fit or witness:
    records of several columns with zero starts, samples below nu, NaN
    tails, NaN starts and growing columns."""
    rng = np.random.default_rng(seed)
    runs = []
    for _ in range(n_records):
        T, steps, rows = rng.uniform(0.05, 0.5), int(rng.integers(0, 60)), int(rng.integers(1, 5))
        k = np.arange(steps + 1)[:, None]
        rate = rng.uniform(-1.5, 0.3, rows)
        norms = rng.uniform(0.1, 5.0, rows) * np.exp(rate * k * T)
        norms = norms * (1.0 + rng.uniform(0.0, 1.0, norms.shape) * (k > 0))
        zero_start = rng.uniform(size=rows) < 0.2
        norms[0, zero_start] = 0.0
        norms[:, zero_start & (rng.uniform(size=rows) < 0.5)] = 0.0
        norms[rng.uniform(size=norms.shape) < 0.1] *= 1e-6  # dips below nu
        nan_from = rng.integers(1, steps + 2, rows)
        norms[k >= np.where(rng.uniform(size=rows) < 0.2, nan_from, steps + 1)] = np.nan
        norms[0, rng.uniform(size=rows) < 0.05] = np.nan
        runs.append(Trajectory(T, int(rng.integers(0, 9)), norms[:, :, None]))

    swept = []
    sweep = numerics._log_M_needed
    numerics._log_M_needed = lambda *args: swept.append(sweep(*args)) or swept[-1]
    try:
        got = ("fit", fit_kl_envelope(runs, nu=nu))
    except EnvelopeFalsified as err:
        got = ("falsified", err.witness)
    finally:
        numerics._log_M_needed = sweep
    want = _fit_full_sample(runs, nu)
    if want[0] == "falsified":
        assert got == want
        return
    assert got[0] == "fit"
    assert (got[1].params["M"], got[1].params["lam"]) == want[1]
    if want[2] is not None:
        assert np.array_equal(swept[0], want[2], equal_nan=True)


def test_fit_envelope_keeps_per_step_maxima_not_every_ratio():
    """Memory guard: the fit keeps each record's per-step maxima, so on
    3.2 MB of norms its extra traced peak stays below half of them; a
    log-ratio array as large as the norms, held for the whole fit, would
    alone exceed that."""
    rng = np.random.default_rng(0)
    k = np.arange(201)[:, None]
    runs = [Trajectory.from_norms(0.01, 0, np.ones((50, 3)),
                                  rng.uniform(0.5, 2.0, 50) * np.exp(-0.5 * k * 0.01))
            for _ in range(40)]
    size = sum(run.norms.nbytes for run in runs)
    tracemalloc.start()
    try:
        fit_kl_envelope(runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 40 * 201 * 50 * 8 and peak < size / 2


@settings(deadline=None, max_examples=40)
@given(st.floats(0.3, 0.99), st.floats(0.1, 10.0), st.integers(20, 80))
def test_fit_envelope_sound(rate, scale, n):
    """Any accepted envelope dominates every sample it was fitted on."""
    T = 0.25
    norms = scale * rate ** np.arange(n)
    traj = Trajectory(T, 0, norms[:, None, None])
    beta = fit_kl_envelope([traj])
    M, lam = beta.params["M"], beta.params["lam"]
    bound = M * norms[0] * np.exp(-lam * np.arange(n) * T)
    assert np.all(norms <= bound + 1e-9)


def test_fit_envelope_truncation_level():
    # samples below nu are exempt from the decay requirement
    norms = np.concatenate([0.5 ** np.arange(10), np.full(30, 1e-4)])
    beta = fit_kl_envelope([Trajectory(0.5, 0, norms[:, None, None])], nu=1e-3)
    M, lam = beta.params["M"], beta.params["lam"]
    k = np.arange(len(norms))
    bound = np.maximum(M * norms[0] * np.exp(-lam * k * 0.5), 1e-3)
    assert np.all(norms <= bound + 1e-9)


# --- Sobol sampler ------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 13))
def test_sobol_points_equal_scipy_unscrambled_sequence(dim):
    from scipy.stats import qmc  # the reference; no module of the package imports it

    for n in (1, 2, 3, 17, 64, 2048, 4096):
        ref = qmc.Sobol(dim, scramble=False).random_base2(math.ceil(math.log2(n)))[:n]
        assert np.array_equal(_sobol_unit(n, dim).view(np.uint64), ref.view(np.uint64))


def test_sampler_rejects_unsupported_dim_and_negative_n():
    for dim in (0, 13):
        with pytest.raises(ValueError, match="1 <= dim <= 12"):
            _sobol_unit(4, dim)
    box = Box.centered(1.0, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_box(box, -1)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_ball(1.0, 2, -1)
    # no interior points: the corners and the center, plus the axis points of a ball
    assert sample_box(box, 0).shape == (5, 2)
    assert sample_ball(1.0, 2, 0).shape == (9, 2)
