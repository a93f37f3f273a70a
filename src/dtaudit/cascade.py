"""Time-varying cascades: simulation and structural audits.

A cascade pairs a driven subsystem x(k+1) = f_T(k, x, z) with an
autonomous driver z(k+1) = g_T(k, z). Audits here sample the
interconnection-growth bound, the two-sided continuity constants, and
the semiglobal continuity (bounded-input deviation) property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._sampling import Box, sample_ball, sample_box
from .numerics import ClassKFunction, horizon_index
from .verdict import StabilityVerdict, Witness

__all__ = [
    "CascadeSystem",
    "InputSequence",
    "Trajectory",
    "DivergenceError",
    "rollout",
    "grid_rollouts",
    "simulate_cascade",
    "simulate_driven",
    "check_interconnection_bound",
    "estimate_usc_constants",
    "usc_probe",
]

_SLACK = 1e-9


class DivergenceError(RuntimeError):
    """Simulation produced a non-finite state."""

    def __init__(self, message: str, k: int):
        super().__init__(message)
        self.k = k


@dataclass(frozen=True)
class CascadeSystem:
    """Cascade x(k+1) = f(T,k,x,z), z(k+1) = g(T,k,z).

    The driver g cannot read x by construction. Both maps must be pure,
    deterministic, and broadcast over a leading batch axis.
    """

    dim_x: int
    dim_z: int
    f: callable
    g: callable
    T_max: float = math.inf


@dataclass(frozen=True, eq=False)
class InputSequence:
    """Input samples omega(start), omega(start+1), ... with cached sup norm."""

    start: int
    values: np.ndarray
    sup_norm: float = field(init=False)

    def __post_init__(self):
        values = np.atleast_2d(np.asarray(self.values, dtype=float))
        object.__setattr__(self, "values", values)
        sup = float(np.max(np.linalg.norm(values, axis=1))) if len(values) else 0.0
        object.__setattr__(self, "sup_norm", sup)

    def __len__(self) -> int:
        return len(self.values)

    def at(self, k: int) -> np.ndarray:
        if not (self.start <= k < self.start + len(self.values)):
            raise IndexError(f"input not defined at k={k}")
        return self.values[k - self.start]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """State samples from index k0 at period T, with cached norms."""

    T: float
    k0: int
    states: np.ndarray
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if len(states) < 1:
            raise ValueError("trajectory needs at least the initial state")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "norms", np.linalg.norm(states, axis=1))

    def __len__(self) -> int:
        return len(self.states)

    def state(self, k: int) -> np.ndarray:
        return self.states[k - self.k0]


def _check_period(sys, T: float) -> None:
    if not (0.0 < T <= sys.T_max):
        raise ValueError(f"T={T} outside admissible range (0, {sys.T_max}]")


def rollout(step, T: float, k0: int, Y0, steps: int, inputs=None):
    """Iterate a row-independent batched map from index k0.

    `step(T, k, Y)` maps (rows, dim) states to the next ones; with a
    (steps, batch, dim_z) `inputs` array it is `step(T, k, Y, U)`, U the
    stepped rows of inputs[k - k0]. Returns the (steps+1, batch, dim)
    states and, per row, the step i at which it first turned non-finite
    (-1 if never); that row is not stepped again and reads NaN after i.
    """
    Y = np.array(Y0, dtype=float, ndmin=2)
    batch, dim = Y.shape
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape[:2] != (steps, batch):
            raise ValueError(f"inputs must have shape ({steps}, {batch}, dim_z)")
    states = np.full((steps + 1, batch, dim), np.nan)
    states[0] = Y
    first_bad = np.full(batch, -1)
    live = slice(None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(steps):
            args = (T, k0 + i, Y) if inputs is None else (T, k0 + i, Y, inputs[i, live])
            Y = np.asarray(step(*args), dtype=float).reshape(len(Y), dim)
            states[i + 1, live] = Y
            finite = np.isfinite(Y)
            if not finite.all():
                ok = finite.all(axis=1)
                rows = np.arange(batch)[live]
                first_bad[rows[~ok]] = i + 1
                live, Y = rows[ok], Y[ok]
                if not len(live):
                    break
    return states, first_bad


def grid_rollouts(step, Y0, T_list, horizon: float, k0_set=None, T_max: float = math.inf):
    """Yield (T, k0, states): Y0 rolled out over `horizon` seconds once per
    sorted period and start index (`_k_probes(T)` unless k0_set is given)."""
    for T in sorted(float(t) for t in T_list):
        if not (0.0 < T <= T_max):
            raise ValueError(f"T={T} outside admissible range (0, {T_max}]")
        for k0 in (_k_probes(T) if k0_set is None else k0_set):
            yield T, k0, rollout(step, T, k0, Y0, horizon_index(horizon, T))[0]


def _stacked_step(sys: CascadeSystem):
    """Batched step of the stacked state (x, z) of a cascade."""
    dx, dz = sys.dim_x, sys.dim_z

    def step(T, k, Y):
        X, Z = Y[:, :dx], Y[:, dx:]
        Xn = np.asarray(sys.f(T, k, X, Z), dtype=float)
        Zn = np.asarray(sys.g(T, k, Z), dtype=float)
        return np.concatenate([Xn.reshape(len(Y), dx), Zn.reshape(len(Y), dz)], axis=1)

    return step


def _raise_if_diverged(first_bad: int, k0: int) -> None:
    if first_bad >= 0:
        raise DivergenceError(f"non-finite state at k={k0 + first_bad}", k0 + first_bad)


def simulate_cascade(sys: CascadeSystem, T: float, k0: int, x0, z0,
                     steps: int) -> tuple[Trajectory, Trajectory]:
    """Iterate both maps; z runs autonomously, x is driven by z."""
    _check_period(sys, T)
    y0 = np.concatenate([np.asarray(x0, dtype=float).reshape(sys.dim_x),
                         np.asarray(z0, dtype=float).reshape(sys.dim_z)])
    states, first_bad = rollout(_stacked_step(sys), T, k0, y0, steps)
    _raise_if_diverged(int(first_bad[0]), k0)
    return (Trajectory(T, k0, states[:, 0, : sys.dim_x]),
            Trajectory(T, k0, states[:, 0, sys.dim_x:]))


def simulate_driven(sys: CascadeSystem, T: float, k0: int, x0,
                    omega: InputSequence, steps: int | None = None) -> Trajectory:
    """Drive the x-subsystem with a recorded input sequence."""
    _check_period(sys, T)
    available = omega.start + len(omega) - k0
    if steps is None:
        steps = max(available, 0)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if steps > 0 and (omega.start > k0 or available < steps):
        raise ValueError(f"input covers [{omega.start}, {omega.start + len(omega)}), "
                         f"need [{k0}, {k0 + steps})")
    inputs = omega.values[k0 - omega.start:][:steps, None]
    states, first_bad = rollout(sys.f, T, k0, np.asarray(x0, dtype=float).reshape(sys.dim_x),
                                steps, inputs)
    _raise_if_diverged(int(first_bad[0]), k0)
    return Trajectory(T, k0, states[:, 0])


def _k_probes(T: float):
    # start indices spanning one period of the 2*pi-periodic references
    P = max(1, int(math.floor(2.0 * math.pi / T)))
    return sorted({0, 1, P // 2, P - 1})


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
    X, Z = pts[:, : sys.dim_x], pts[:, sys.dim_x:]
    xi_norm = np.linalg.norm(pts, axis=1)
    x_norm = np.linalg.norm(X, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    Z0 = np.zeros_like(Z)

    worst1 = worst2 = 0.0
    for T in sorted(float(t) for t in T_list):
        for k in (_k_probes(T) if k_set is None else k_set):
            F = np.asarray(sys.f(T, int(k), X, Z), dtype=float)
            F0 = np.asarray(sys.f(T, int(k), X, Z0), dtype=float)
            lhs1 = np.linalg.norm(F, axis=1)
            rhs1 = np.asarray(gamma1(xi_norm), dtype=float)
            lhs2 = np.linalg.norm(F - F0, axis=1)
            rhs2 = T * np.asarray(gamma2(x_norm), dtype=float) * np.asarray(gamma3(z_norm), dtype=float)
            for lhs, rhs, tag in ((lhs1, rhs1, "growth"), (lhs2, rhs2, "interconnection")):
                bad = lhs > rhs + _SLACK
                if np.any(bad):
                    i = int(np.argmax(lhs - rhs))
                    return StabilityVerdict.falsify(
                        Witness.of(T, int(k), pts[i], int(k), float(lhs[i]), float(rhs[i])),
                        f"{tag} bound violated",
                    )
            with np.errstate(divide="ignore", invalid="ignore"):
                r1 = np.where(rhs1 > 0, lhs1 / rhs1, np.where(lhs1 > _SLACK, np.inf, 0.0))
                r2 = np.where(rhs2 > 0, lhs2 / rhs2, np.where(lhs2 > _SLACK, np.inf, 0.0))
            worst1 = max(worst1, float(np.max(r1)))
            worst2 = max(worst2, float(np.max(r2)))
    return StabilityVerdict.ok("both interconnection bounds hold on the sample",
                               worst_ratio_growth=worst1, worst_ratio_interconnection=worst2)


def _ball_pair_ratio(F_at, A, B):
    """Worst |F(a)-F(b)| / |a-b| over paired rows."""
    gaps = np.linalg.norm(A - B, axis=1)
    keep = gaps > 1e-12
    if not np.any(keep):
        return 0.0
    FA = np.asarray(F_at(A[keep]), dtype=float)
    FB = np.asarray(F_at(B[keep]), dtype=float)
    return float(np.max(np.linalg.norm(FA - FB, axis=1) / gaps[keep]))


def _pairs_from(points: np.ndarray):
    """Deterministic pairing: consecutive points plus reflections through 0."""
    A = np.concatenate([points[:-1], points])
    B = np.concatenate([points[1:], -points])
    return A, B


def estimate_usc_constants(sys: CascadeSystem, Delta1: float, Delta2: float,
                           T_list, samples: int = 64,
                           k_set=None) -> tuple[float, StabilityVerdict]:
    """Empirical smallest K making the driven subsystem two-sided continuous.

    Over x pairs in the ball of radius Delta1 and z pairs in the ball of
    radius Delta2, finds K with
      |f(k,x1,z) - f(k,x2,z)| <= (1 + K*T) |x1 - x2|
      |f(k,x,z1) - f(k,x,z2)| <= K*T |z1 - z2|
    on every sample. The verdict is inconclusive when the per-period
    constants explode as T shrinks (growth not affine in T).
    """
    if not (Delta1 > 0.0 and Delta2 > 0.0):
        raise ValueError("Delta1 and Delta2 must be positive")
    xs = sample_ball(Delta1, sys.dim_x, samples)
    zs = sample_ball(Delta2, sys.dim_z, samples)
    XA, XB = _pairs_from(xs)
    ZA, ZB = _pairs_from(zs)
    z_probes = zs[: min(8, len(zs))]
    x_probes = xs[: min(8, len(xs))]

    Ts = sorted(float(t) for t in T_list)
    per_T = {}
    for T in Ts:
        r_state = r_input = 0.0
        for k in (_k_probes(T) if k_set is None else k_set):
            for z in z_probes:
                Zrow = np.broadcast_to(z, (len(XA), sys.dim_z))
                r_state = max(r_state, _ball_pair_ratio(
                    lambda A, _k=int(k), _Z=Zrow: sys.f(T, _k, A, _Z[: len(A)]), XA, XB))
            for x in x_probes:
                gaps = np.linalg.norm(ZA - ZB, axis=1)
                keep = gaps > 1e-12
                if not np.any(keep):
                    continue
                Xrow = np.broadcast_to(x, (int(np.sum(keep)), sys.dim_x))
                FA = np.asarray(sys.f(T, int(k), Xrow, ZA[keep]), dtype=float)
                FB = np.asarray(sys.f(T, int(k), Xrow, ZB[keep]), dtype=float)
                r_input = max(r_input, float(np.max(np.linalg.norm(FA - FB, axis=1) / gaps[keep])))
        K_state = max(0.0, (r_state - 1.0) / T)
        K_input = r_input / T
        per_T[T] = max(K_state, K_input)

    K = max(per_T.values())
    K_small, K_large = per_T[Ts[0]], per_T[Ts[-1]]
    if K_small > 10.0 * K_large + 1e-6:
        return K, StabilityVerdict.unknown(
            "continuity constant explodes as T shrinks", per_T={repr(t): v for t, v in per_T.items()})
    return K, StabilityVerdict.ok("two-sided continuity constants are affine in T",
                                  K=K, per_T={repr(t): v for t, v in per_T.items()})


def _probe_inputs(dim_z: int, mu: float, length: int, seeds=(0, 1)):
    """Deterministic bounded-norm input families: constants, alternating, random."""
    if length <= 0:
        return []
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
    for seed in seeds:
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
    x0s = sample_ball(eta, sys.dim_x, x0_count)
    for mu in sorted((float(m) for m in mu_grid), reverse=True):
        if mu <= 0.0:
            raise ValueError("mu grid must be positive")
        if _usc_holds(sys, eps, L, T_list, mu, x0s):
            return mu
    return 0.0


def _usc_holds(sys, eps, L, T_list, mu, x0s) -> bool:
    # one rollout per (T, k0): for each x0 the zero-input reference row,
    # then one row per input family; the first failing row decides
    n = len(x0s)
    for T in sorted(float(t) for t in T_list):
        _check_period(sys, T)
        ell = horizon_index(L, T)
        for k0 in _k_probes(T):
            inputs = [np.zeros((ell, sys.dim_z))] + _probe_inputs(sys.dim_z, mu, ell)
            m = len(inputs)
            U = np.tile(np.stack(inputs, axis=1), (1, n, 1))
            states, first_bad = rollout(sys.f, T, k0, np.repeat(x0s, m, axis=0), ell, U)
            states = states.reshape(ell + 1, n, m, sys.dim_x)
            with np.errstate(over="ignore", invalid="ignore"):
                dev = np.max(np.linalg.norm(states - states[:, :, :1], axis=-1), axis=0)
            fail = (first_bad.reshape(n, m) >= 0) | (dev > eps + _SLACK)
            if fail.any():
                r = int(np.argmax(fail.ravel()))
                if r % m == 0:
                    _raise_if_diverged(int(first_bad[r]), k0)
                return False
    return True
