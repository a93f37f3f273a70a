"""Time-varying cascades: simulation and structural audits.

A cascade pairs a driven subsystem x(k+1) = f_T(k, x, z) with an
autonomous driver z(k+1) = g_T(k, z). Audits here sample the
interconnection-growth bound and the semiglobal continuity
(bounded-input deviation) property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sampling import Box, sample_ball, sample_box
from .numerics import _CHUNK, ClassKFunction, _check_period, _norm, horizon_index
from .verdict import _SLACK, StabilityVerdict, Witness, _first_violation, _ratio

__all__ = [
    "CascadeSystem",
    "Trajectory",
    "DivergenceError",
    "rollout",
    "grid_rollouts",
    "simulate_cascade",
    "simulate_driven",
    "check_interconnection_bound",
    "usc_probe",
]


class DivergenceError(RuntimeError):
    """Simulation produced a non-finite state."""

    def __init__(self, message: str, k: int):
        super().__init__(message)
        self.k = k


@dataclass(frozen=True)
class CascadeSystem:
    """Cascade x(k+1) = f(T,k,x,z), z(k+1) = g(T,k,z).

    The driver g cannot read x by construction. Both maps must be pure,
    deterministic, and broadcast over a leading batch axis; k is an int
    or a (rows,) int array holding each row's own step index. `period`
    is the period in seconds of the maps' time variation, which sets the
    default start indices of every audit; None means f and g ignore k.
    """

    dim_x: int
    dim_z: int
    f: callable
    g: callable
    T_max: float = math.inf
    period: float | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Rows rolled out together from index k0 at period T.

    It keeps their initial states `x0`, shape (rows, dim), and their norms
    `norms`, shape (steps+1, rows), both as given; `of_states` builds it
    from the (steps+1, rows, dim) states, one trajectory per column, with
    non-finite states giving inf or NaN norms. Where a check names a
    trajectory, its id counts the columns of all records before it plus
    its own column.
    """

    T: float
    k0: int
    x0: np.ndarray
    norms: np.ndarray

    def __post_init__(self):
        if self.norms.ndim != 2 or len(self.norms) < 1 or self.x0.shape[:1] != self.norms.shape[1:]:
            raise ValueError("need (rows, dim) x0 and (steps+1, rows) norms, steps >= 0")

    @classmethod
    def of_states(cls, T: float, k0: int, states) -> "Trajectory":
        """The record of the (steps+1, rows, dim) `states`."""
        states = np.asarray(states, dtype=float)
        if states.ndim != 3 or len(states) < 1:
            raise ValueError("states must have shape (steps+1, rows, dim), steps >= 0")
        # a copy, so that the record does not keep a rollout's whole array alive
        with np.errstate(over="ignore", invalid="ignore"):
            return cls(T, k0, states[0].copy(), np.linalg.norm(states, axis=-1))


def rollout(step, T, k0, Y0, steps: int, inputs=None):
    """Iterate a row-independent batched map from index k0.

    `step(T, k, Y)` maps (rows, dim) states to the next ones; with a
    (steps, batch, dim_z) `inputs` array it is `step(T, k, Y, U)`, U the
    stepped rows of inputs[k - k0]. `k0` is an int or a (batch,) int
    array of per-row start indices, and `T` a float or a (batch,) array
    of per-row periods; in the array cases `step` gets the (rows,) array
    of the stepped rows' indices or periods. Returns the
    (steps+1, batch, dim) states and, per row, the step i at which it
    first turned non-finite (-1 if never); that row is not stepped again
    and reads NaN after i.
    """
    Y0 = np.array(Y0, dtype=float, ndmin=2)
    out = np.full((max(steps, 0) + 1, *Y0.shape), np.nan)
    first_bad = np.full(len(Y0), -1)
    for i0, states, rows, first_bad in _rollout_chunks(step, T, k0, Y0, steps, inputs):
        out[i0:i0 + len(states), rows] = states
    return out, first_bad


def _rollout_chunks(step, T, k0, Y0, steps, inputs=None):
    """The states of `rollout`, made and yielded in chunks, for `steps` an
    int or a (batch,) array of each row's own count.

    Yields (i0, states, rows, first_bad) per chunk: the (n, len(rows), dim)
    states of steps i0, ..., i0 + n - 1 of the rows `rows` that were live
    when it began (the first chunk starts with the initial states), and
    each row's first non-finite step so far (-1 if none), one array that
    later chunks update in place. A chunk holds at most `_CHUNK` states and
    ends where some row makes its last step; after it, the rows that made
    their last step or turned non-finite (reading NaN after that state)
    leave, and once none is left the chunks stop.

    Each chunk is one call: without `inputs`, a step carrying a chunk
    stepper `step.chunk(T, k, Y, out)`, which fills `out` with the
    (n, rows, dim) states of n steps from the rows Y at indices k and
    returns it, else `_stepwise`. Only a map whose rows are independent
    carries one: a row that dies is stepped to the end of its chunk.
    """
    Y = np.array(Y0, dtype=float, ndmin=2)
    batch, dim = Y.shape
    if np.any(np.asarray(steps) < 0):
        raise ValueError("steps must be nonnegative")
    counts = np.broadcast_to(np.asarray(steps, dtype=int), (batch,))
    if isinstance(k0, np.ndarray):
        if k0.shape != (batch,):
            raise ValueError(f"per-row k0 must have shape ({batch},)")
        k0 = k0.astype(int)
    if isinstance(T, np.ndarray) and T.shape != (batch,):
        raise ValueError(f"per-row T must have shape ({batch},)")
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape[:2] != (np.max(steps, initial=0), batch):
            raise ValueError(f"inputs must have shape ({np.max(steps, initial=0)}, {batch}, dim_z)")
    chunk = getattr(step, "chunk", None) if inputs is None else None
    first_bad = np.full(batch, -1)
    rows, i0 = np.arange(batch), 0
    while len(rows):
        n = min(_CHUNK, int(counts[rows].min()) + 1 - i0)
        states = np.empty((n, len(rows), dim))
        s0 = int(i0 == 0)  # state i0 + s is made by step i0 + s - 1
        states[:s0] = Y
        new, k = states[s0:], k0 + (i0 + s0 - 1)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if len(new) and chunk is not None:
                chunk(T, k, Y, new)
            elif len(new):
                _stepwise(step, T, k, Y, new,
                          None if inputs is None else inputs[i0 + s0 - 1:i0 + n - 1])
            if not np.isfinite(new).all():
                finite = np.isfinite(new).all(axis=2)
                died = np.where(finite.all(axis=0), len(new), np.argmin(finite, axis=0))
                new[np.arange(len(new))[:, None] > died] = np.nan
                first_bad[rows[died < len(new)]] = i0 + s0 + died[died < len(new)]
        yield i0, states, rows, first_bad
        i0 += n
        keep = (counts[rows] >= i0) & (first_bad[rows] < 0)
        Y, states = states[-1, keep], None  # not held while the next chunk is made
        if not keep.all():
            rows, inputs = rows[keep], None if inputs is None else inputs[:, keep]
            k0, T = (a[keep] if isinstance(a, np.ndarray) else a for a in (k0, T))


def _stepwise(step, T, k, Y, out, U=None):
    """Fill the (n, rows, dim) `out` with n steps of `step` from the rows Y
    at indices k, one call per step; with the rows' (n, rows, dim_z) inputs
    U, step i is `step(T, k + i, Y, U[i])`. A row that turns non-finite is
    not stepped again, so a map whose rows are coupled never sees it; its
    later states are left for `_rollout_chunks` to overwrite with NaN."""
    live = slice(None)
    for i in range(len(out)):
        args = (T, k + i, Y) if U is None else (T, k + i, Y, U[i, live])
        Y = np.asarray(step(*args), dtype=float).reshape(len(Y), out.shape[2])
        out[i, live] = Y
        if not np.isfinite(Y).all():
            ok = np.isfinite(Y).all(axis=1)
            live, Y = np.arange(out.shape[1])[live][ok], Y[ok]
            k, T = (a[ok] if isinstance(a, np.ndarray) else a for a in (k, T))
            if not len(Y):
                break
    return out


def _full_width(states, rows, batch):
    """A chunk's states of the rows `rows` among `batch`, the others reading NaN."""
    if len(rows) == batch:
        return states
    full = np.full((len(states), batch, states.shape[2]), np.nan)
    full[:, rows] = states
    return full


def grid_rollouts(step, Y0, T_list, horizon: float, k0_set=None, T_max: float = math.inf,
                  period: float | None = None, parts=None):
    """Yield `Trajectory` records of the rows of Y0 rolled out over `horizon`
    seconds, per sorted period and start index (`_k_probes(T, period)`
    unless k0_set is given, `period` being that of the step's time
    variation).

    `parts` is a sequence of (row slice, column slice) pairs of Y0, all
    rows and all columns by default; every (T, k0) gives one record per
    part, in order. All start indices of one period share one rollout, Y0
    repeated once per k0 with a per-row start index, stepped in chunks
    (`_rollout_chunks`) whose norms are written into each record's own
    (steps+1, rows) array as they come, so no whole-horizon states are
    ever held. A period's records come once all its steps are made.
    """
    Y0 = np.array(Y0, dtype=float, ndmin=2)
    n, dim = Y0.shape
    parts = [(slice(None), slice(None))] if parts is None else list(parts)
    widths = [len(range(n)[rs]) for rs, _ in parts]
    for T in sorted(float(t) for t in T_list):
        _check_period(T, T_max)
        k0s = [int(k0) for k0 in (_k_probes(T, period) if k0_set is None else k0_set)]
        if not k0s:
            continue
        steps = horizon_index(horizon, T)
        norms = [[np.full((steps + 1, w), np.nan) for w in widths] for _ in k0s]
        chunks = _rollout_chunks(step, T, np.repeat(k0s, n), np.tile(Y0, (len(k0s), 1)), steps)
        for i0, states, rows, _ in chunks:
            states = _full_width(states, rows, len(k0s) * n).reshape(len(states), len(k0s), n, dim)
            for p, (rs, cs) in enumerate(parts):
                with np.errstate(over="ignore", invalid="ignore"):
                    block = _norm(states[:, :, rs, cs])
                for i in range(len(k0s)):
                    norms[i][p][i0:i0 + len(block)] = block[:, i]
            states = block = None  # not held while the next chunk is made
        for k0, per_part in zip(k0s, norms):
            for (rs, cs), part_norms in zip(parts, per_part):
                yield Trajectory(T, k0, Y0[rs, cs].copy(), part_norms)


def _stacked_step(sys: CascadeSystem):
    """Batched step of the stacked state (x, z) of a cascade, carrying the
    chunk stepper that `f` and `g` both carry as `stacked_chunk`, if any."""
    dx, dz = sys.dim_x, sys.dim_z

    def step(T, k, Y):
        X, Z = Y[:, :dx], Y[:, dx:]
        Xn = np.asarray(sys.f(T, k, X, Z), dtype=float)
        Zn = np.asarray(sys.g(T, k, Z), dtype=float)
        return np.concatenate([Xn.reshape(len(Y), dx), Zn.reshape(len(Y), dz)], axis=1)

    chunk = getattr(sys.f, "stacked_chunk", None)
    if chunk is not None and getattr(sys.g, "stacked_chunk", None) is chunk:
        step.chunk = chunk
    return step


def _raise_if_diverged(first_bad: int, k0: int) -> None:
    if first_bad >= 0:
        raise DivergenceError(f"non-finite state at k={k0 + first_bad}", k0 + first_bad)


def simulate_cascade(sys: CascadeSystem, T: float, k0: int, x0, z0,
                     steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate both maps from one (x0, z0); z runs autonomously, x is driven
    by z. Returns the (steps+1, dim_x) and (steps+1, dim_z) states."""
    _check_period(T, sys.T_max)
    y0 = np.concatenate([np.asarray(x0, dtype=float).reshape(sys.dim_x),
                         np.asarray(z0, dtype=float).reshape(sys.dim_z)])
    states, first_bad = rollout(_stacked_step(sys), T, k0, y0, steps)
    _raise_if_diverged(int(first_bad[0]), k0)
    return states[:, 0, : sys.dim_x], states[:, 0, sys.dim_x:]


def simulate_driven(sys: CascadeSystem, T: float, k0: int, x0,
                    inputs, steps: int | None = None) -> np.ndarray:
    """Drive the x-subsystem from one x0 with the (n, dim_z) input samples
    z(k0), ..., z(k0+n-1) for their first `steps` (all n if None); returns
    the (steps+1, dim_x) states."""
    _check_period(T, sys.T_max)
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != sys.dim_z:
        raise ValueError(f"inputs must have shape (n, {sys.dim_z})")
    steps = len(inputs) if steps is None else steps
    if not 0 <= steps <= len(inputs):
        raise ValueError(f"steps must lie in 0..{len(inputs)}")
    states, first_bad = rollout(sys.f, T, k0, np.asarray(x0, dtype=float).reshape(sys.dim_x),
                                steps, inputs[:steps, None])
    _raise_if_diverged(int(first_bad[0]), k0)
    return states[:, 0]


def _k_probes(T: float, period: float | None):
    """Start indices spanning one period (in seconds) of a system's time
    variation: 0, 1, P // 2 and P - 1 with P = floor(period / T), or just 0
    for a system whose step ignores k (period None)."""
    if period is None:
        return [0]
    P = max(1, int(math.floor(period / T)))
    return sorted({0, 1, P // 2, P - 1})


def _worst_row(T, k, pts, lhs, rhs) -> Witness:
    """The witness at the worst row, argmax(lhs - rhs), not the first failing
    one (the theorem demo reports it); argmax returns a NaN row first."""
    i = int(np.argmax(lhs - rhs))
    return Witness.of(T, k, pts[i], k, lhs[i], rhs[i])


def check_interconnection_bound(sys: CascadeSystem, gamma1: ClassKFunction,
                                gamma2: ClassKFunction, gamma3: ClassKFunction,
                                domain: Box, T_list, n_samples: int = 4096,
                                k_set=None) -> StabilityVerdict:
    """Audit the interconnection growth bounds on a sampled box.

    Checks |f(k,x,z)| <= gamma1(|(x,z)|) and
    |f(k,x,z) - f(k,x,0)| <= T * gamma2(|x|) * gamma3(|z|). Returns a
    pass with worst-ratio margins or a falsification carrying the exact
    sample (stacked (x, z) in the witness initial state).
    """
    if domain.dim != sys.dim_x + sys.dim_z:
        raise ValueError("domain must cover the stacked (x, z) state")
    pts = sample_box(domain, n_samples)
    return _interconnection_verdict(_interconnection_terms(sys, pts, T_list, k_set), pts,
                                    sys.dim_x, gamma1, gamma2, gamma3)


def _interconnection_terms(sys: CascadeSystem, pts, T_list, k_set=None):
    """Yield (T, k, f(k,x,z), f(k,x,0)) on the stacked (x, z) rows `pts`, per
    sorted period and start index (`_k_probes` unless k_set is given)."""
    X, Z = pts[:, : sys.dim_x], pts[:, sys.dim_x:]
    Z0 = np.zeros_like(Z)
    for T in sorted(float(t) for t in T_list):
        for k in (_k_probes(T, sys.period) if k_set is None else k_set):
            k = int(k)
            yield (T, k, np.asarray(sys.f(T, k, X, Z), dtype=float),
                   np.asarray(sys.f(T, k, X, Z0), dtype=float))


def _interconnection_verdict(terms, pts, dim_x: int, gamma1, gamma2, gamma3) -> StabilityVerdict:
    """The verdict of `check_interconnection_bound` on the (T, k, F, F0)
    `terms` of the rows `pts`, stopping at the first falsifying (T, k)."""
    # the k-free bounds, formed once
    rhs1 = np.asarray(gamma1(np.linalg.norm(pts, axis=1)), dtype=float)
    g2 = np.asarray(gamma2(np.linalg.norm(pts[:, :dim_x], axis=1)), dtype=float)
    g3 = np.asarray(gamma3(np.linalg.norm(pts[:, dim_x:], axis=1)), dtype=float)
    worst1 = worst2 = 0.0
    for T, k, F, F0 in terms:
        rhs2 = T * g2 * g3
        lhs1, lhs2 = _norm(F), _norm(F - F0)
        bad = _first_violation(
            (lhs1 <= rhs1 + _SLACK, lambda _: _worst_row(T, k, pts, lhs1, rhs1),
             "growth bound violated"),
            (lhs2 <= rhs2 + _SLACK, lambda _: _worst_row(T, k, pts, lhs2, rhs2),
             "interconnection bound violated"))
        if bad is not None:
            return bad
        worst1 = max(worst1, float(np.max(_ratio(lhs1, rhs1))))
        worst2 = max(worst2, float(np.max(_ratio(lhs2, rhs2))))
    return StabilityVerdict.ok("both interconnection bounds hold on the sample",
                               worst_ratio_growth=worst1, worst_ratio_interconnection=worst2)


def _probe_inputs(dim_z: int, mu: float, length: int):
    """Deterministic bounded-norm input families: constants, alternating, random."""
    out = []
    unit = np.ones(dim_z) / math.sqrt(dim_z)
    out.append(np.tile(mu * unit, (length, 1)))
    out.append(np.tile(-mu * unit, (length, 1)))
    for i in range(dim_z):
        e = np.zeros(dim_z)
        e[i] = mu
        out.append(np.tile(e, (length, 1)))
    signs = np.where(np.arange(length)[:, None] % 2 == 0, 1.0, -1.0)
    out.append(signs * mu * unit)
    for seed in (0, 1):
        rng = np.random.default_rng(1234 + seed)
        vals = rng.uniform(-1.0, 1.0, size=(length, dim_z))
        nrm = np.linalg.norm(vals, axis=1, keepdims=True)
        vals = np.where(nrm > 1e-12, vals / nrm, unit) * mu
        # piecewise constant over blocks of 5 samples
        blocks = vals[::5]
        vals = np.repeat(blocks, 5, axis=0)[:length]
        out.append(vals)
    return out


def usc_probe(sys: CascadeSystem, Delta: float, eta: float, eps: float, L: float,
              T_list, mu_grid, x0_count: int = 16) -> float:
    """Largest grid mu keeping driven trajectories within eps of the unforced ones.

    For each candidate mu the probe simulates, for every sampled period,
    start index and initial state with |x0| <= eta, the subsystem once
    with zero input and once per bounded input family with sup norm mu,
    over the horizon of L seconds. Returns the largest mu for which every
    deviation stays below eps (0.0 when even the smallest fails).
    """
    if not (0.0 < eta < Delta):
        raise ValueError("need eta in (0, Delta)")
    if not (eps > 0.0 and L > 0.0):
        raise ValueError("need eps > 0 and L > 0")
    if any(not float(m) > 0.0 for m in mu_grid):  # NaN included
        raise ValueError("mu grid must be positive")
    x0s = sample_ball(eta, sys.dim_x, x0_count)
    for mu in sorted((float(m) for m in mu_grid), reverse=True):
        if _usc_holds(sys, eps, L, T_list, mu, x0s):
            return mu
    return 0.0


def _usc_holds(sys, eps, L, T_list, mu, x0s) -> bool:
    # one rollout per T, rows ordered (k0, x0, input): for each k0 and x0
    # the zero-input reference row, then one row per input family; the
    # first failing row in that order decides
    n = len(x0s)
    for T in sorted(float(t) for t in T_list):
        _check_period(T, sys.T_max)
        ell = horizon_index(L, T)
        k0s = _k_probes(T, sys.period)
        inputs = [np.zeros((ell, sys.dim_z))] + _probe_inputs(sys.dim_z, mu, ell)
        m, per_k0 = len(inputs), n * len(inputs)
        U = np.tile(np.stack(inputs, axis=1), (1, n * len(k0s), 1))
        X0 = np.tile(np.repeat(x0s, m, axis=0), (len(k0s), 1))
        # each row's largest deviation from its reference row (NaN once either is NaN)
        dev = np.zeros((len(k0s) * n, m))
        for _, states, rows, first_bad in _rollout_chunks(sys.f, T, np.repeat(k0s, per_k0), X0,
                                                          ell, U):
            states = _full_width(states, rows, len(X0)).reshape(len(states), len(k0s) * n, m,
                                                                sys.dim_x)
            with np.errstate(over="ignore", invalid="ignore"):
                d = states - states[:, :, :1]
                sq = np.multiply(d, d, out=d).sum(axis=-1)  # the norm's sums, with no copy of d
                dev = np.maximum(dev, np.sqrt(sq.max(axis=0)))
        fail = (first_bad.reshape(-1, m) >= 0) | (dev > eps + _SLACK)
        if fail.any():
            r = int(np.argmax(fail.ravel()))
            if r % m == 0:
                _raise_if_diverged(int(first_bad[r]), k0s[r // per_k0])
            return False
    return True
