"""Parameterized discrete-time models of continuous-time plants.

A `VectorField` is the continuous plant; `euler_map`, `modified_euler_map`
and `exact_proxy_map` turn it into one-step maps indexed by the sampling
period T, and `linear_exact_map` gives the closed-form sampled map of a
linear plant under held linear feedback. `consistency_order` measures how
two model families relate on a box.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._integrate import adaptive_simpson, rk45_integrate
from ._sampling import Box, sample_box
from .numerics import _check_period, _schedule

__all__ = [
    "VectorField",
    "ParameterizedMap",
    "ConsistencyReport",
    "euler_map",
    "modified_euler_map",
    "exact_proxy_map",
    "linear_exact_map",
    "consistency_order",
]


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, x, u) of a continuous-time plant.

    `rhs` must be deterministic, return finite values for finite inputs,
    and broadcast over a leading batch axis of x and u; t is a scalar or,
    for a per-row step index, a (rows,) array of times. `period` is the
    period in seconds of the explicit time dependence, None if rhs ignores
    t; the model maps built from the field inherit it.
    """

    dim_x: int
    dim_u: int
    rhs: callable
    period: float | None = None

    def __call__(self, t, x, u):
        return self.rhs(t, x, u)


@dataclass(frozen=True)
class ParameterizedMap:
    """One-step discrete-time map x(k+1) = step(T, k, x(k)).

    Queried only for sampling periods in (0, T_max] and step indices
    k >= 0; `step` broadcasts over a leading batch axis of x and must be
    pure (the sup-norm sweeps rely on reentrancy). k is an int or a
    (rows,) int array holding each row's own step index. `period` is the
    period in seconds of the step's time variation, which sets the default
    step indices of the audits; None means the step ignores k.
    """

    dim: int
    T_max: float
    step: callable
    period: float | None = None

    def __call__(self, T, k, x):
        _check_period(T, self.T_max)
        if (k < 0).any() if isinstance(k, np.ndarray) else k < 0:
            raise ValueError("step index must be nonnegative")
        return self.step(T, k, x)


def _resolve_controller(controller, dim_u: int):
    """Normalize the input convention to a callable u(T, k, x).

    None means zero input, an array is a held constant input, and a
    callable is a feedback law evaluated at the sampling instant.
    """
    if controller is None:
        const = np.zeros(dim_u)
    elif callable(controller):
        return controller
    else:
        const = np.asarray(controller, dtype=float)
        if const.shape != (dim_u,):
            raise ValueError(f"held input must have shape ({dim_u},)")

    def held(T, k, x):
        return np.broadcast_to(const, np.shape(x)[:-1] + (dim_u,))

    return held


def _by_distinct_k(step):
    """Step an array T or k one group of equal (T, k) at a time, else directly.

    For maps whose batch shares one time grid (RK45 step sizes, Simpson
    refinement): each group is stepped as the batch of its rows alone.
    """

    def split(T, k, x):
        if not isinstance(k, np.ndarray) and not isinstance(T, np.ndarray):
            return step(T, k, x)
        x = np.asarray(x, dtype=float)
        Ts, ks = np.broadcast_arrays(T, k)
        out = np.empty_like(x)
        for TT, kk in sorted(set(zip(Ts.tolist(), ks.tolist()))):
            rows = (Ts == TT) & (ks == kk)
            out[rows] = step(TT, kk, x[rows])
        return out

    return split


def euler_map(f: VectorField, controller=None, T_max: float = math.inf) -> ParameterizedMap:
    """First-order model x + T * f(kT, x, u(k)), for a float T or a (rows,)
    array of per-row periods (which f and u get too). The rows are
    independent, so the step carries a chunk stepper (`cascade._rollout_chunks`)."""
    u_of = _resolve_controller(controller, f.dim_u)

    def step(T, k, x):
        x = np.asarray(x, dtype=float)
        Tc = T[:, None] if isinstance(T, np.ndarray) else T
        return x + Tc * np.asarray(f(k * T, x, u_of(T, k, x)), dtype=float)

    def chunk(T, k, x, out):
        for i in range(len(out)):
            x = out[i] = step(T, k + i, x)
        return out

    step.chunk = chunk
    return ParameterizedMap(f.dim_x, T_max, step, f.period)


def modified_euler_map(f: VectorField, controller=None, T_max: float = math.inf,
                       tol: float = 1e-12) -> ParameterizedMap:
    """Second-order model x + integral of f(tau, x, u(k)) over the interval.

    State and input stay frozen across the sampling interval; only the
    explicit time dependence is integrated (adaptive quadrature). For
    time-invariant f this coincides with the first-order model.
    """
    u_of = _resolve_controller(controller, f.dim_u)

    def step(T, k, x):
        x = np.asarray(x, dtype=float)
        u = u_of(T, k, x)
        inc = adaptive_simpson(lambda tau: np.asarray(f(tau, x, u), dtype=float),
                               k * T, (k + 1) * T, tol=tol)
        return x + inc

    return ParameterizedMap(f.dim_x, T_max, _by_distinct_k(step), f.period)


def exact_proxy_map(f: VectorField, controller=None, tol: float = 1e-10,
                    T_max: float = math.inf) -> ParameterizedMap:
    """Sampled behavior of the plant under zero-order-hold input.

    Integrates the plant over one sampling interval with embedded
    step-size control until the local error estimate is below tol; the
    true sampled map is rarely available in closed form, so this proxy
    stands in for it everywhere.
    """
    u_of = _resolve_controller(controller, f.dim_u)

    def step(T, k, x):
        x = np.asarray(x, dtype=float)
        u = u_of(T, k, x)
        return rk45_integrate(lambda t, y: np.asarray(f(t, y, u), dtype=float),
                              k * T, (k + 1) * T, x, tol=tol)

    return ParameterizedMap(f.dim_x, T_max, _by_distinct_k(step), f.period)


def _expm(M):
    """exp(M) of a square matrix.

    A nilpotent M (M^d exactly zero, d its order) takes the finite series
    I + M + ... + M^(d-1)/(d-1)!. Any other M is scaled by 2^-s to a
    1-norm of at most 1/2, summed as a Taylor series of 18 terms and
    squared s times (Moler and Van Loan, SIAM Review 45(1), 2003).
    """
    d = len(M)
    nilpotent = not np.linalg.matrix_power(M, d).any()
    s = 0 if nilpotent else max(0, math.frexp(np.linalg.norm(M, 1))[1] + 1)
    X = M / 2.0 ** s
    E = term = np.eye(d)
    for j in range(1, d if nilpotent else 19):
        term = term @ X / j
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def linear_exact_map(A, B, gain, T_max: float = math.inf) -> ParameterizedMap:
    """Exact sampled map of x' = Ax + Bu under held feedback u = gain(T) x.

    With E = exp([[A, B], [0, 0]] * T), E11 = exp(AT) and E12 is the
    integral of exp(As) B over one period (Van Loan, IEEE TAC 1978), so
    the closed loop is Phi(T) = E11 + E12 gain(T). `gain(T)` returns the
    (dim_u, dim_x) feedback matrix; Phi is formed once per period, with
    the exponential computed in-module (`_expm`, no scipy). T is a float
    or a (rows,) array of each row's own period; the rows' Phi(T)^T are
    stacked once per chunk. The rows are independent, so the step
    carries a chunk stepper (see `cascade._rollout_chunks`).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.ndim != 2 or B.shape[0] != n:
        raise ValueError("A must be (n, n) and B (n, m)")
    m = B.shape[1]
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = A
    aug[:n, n:] = B

    @functools.cache
    def closed_loop(T):
        K = np.asarray(gain(T), dtype=float)
        if K.shape != (m, n):
            raise ValueError(f"gain(T) must have shape ({m}, {n})")
        E = _expm(aug * T)
        return E[:n, :n] + E[:n, n:] @ K

    def chunk(T, k, x, out):
        if isinstance(T, np.ndarray):
            PT = np.stack([closed_loop(t).T for t in T.tolist()])
        else:
            PT = closed_loop(T).T
        # products summed in index order, not a BLAS product whose fused
        # multiply-adds vary with the batch: each row gets the same bits
        # from a float T as from its own entry of an array T
        buf = np.empty((*np.shape(x), n))
        for i in range(len(out)):
            np.multiply(x[..., :, None], PT, out=buf)
            x = np.add.reduce(buf, axis=-2, out=out[i])
        return out

    def step(T, k, x):
        x = np.asarray(x, dtype=float)
        return chunk(T, k, x, np.empty((1, *x.shape)))[0]

    step.chunk = chunk
    return ParameterizedMap(n, T_max, step)


@dataclass(frozen=True)
class ConsistencyReport:
    """One-step gaps between two model families over a period sweep."""

    T_samples: tuple
    max_errors: tuple
    slope: float | None

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.T_samples, self.T_samples[1:])):
            raise ValueError("T_samples must be strictly decreasing")
        if any(e < 0 for e in self.max_errors):
            raise ValueError("max_errors must be nonnegative")


def _fit_loglog_slope(Ts, errors):
    pts = [(T, e) for T, e in zip(Ts, errors) if e > 1e-14]
    if len(pts) < 2:
        return None
    logT = np.log([p[0] for p in pts])
    logE = np.log([p[1] for p in pts])
    slope = np.polyfit(logT, logE, 1)[0]
    return float(slope)


def consistency_order(F_ref: ParameterizedMap, F_apx: ParameterizedMap, domain: Box,
                      k_set=None, *, T_list, n_samples: int = 4096) -> ConsistencyReport:
    """Measure sup |F_ref - F_apx| over the box for each period and fit its order.

    The sup is approximated on a deterministic low-discrepancy sample of
    the box plus its corners, swept over the index set: by default every
    k = 0..floor(period / T) of one period of F_ref, or k = 0 alone for a
    map whose step ignores k. The slope is the least-squares order of
    max_error against T in log-log coordinates, reported as None when the
    gaps are at rounding level. The periods, in decreasing order, and index
    sets are the `_schedule`'s against both maps' T_max.
    """
    if F_ref.dim != F_apx.dim:
        raise ValueError("maps must share a state dimension")
    if k_set is None and F_ref.period is not None:
        k_set = lambda T: range(int(math.floor(F_ref.period / T)) + 1)
    schedule = _schedule(T_list, min(F_ref.T_max, F_apx.T_max), F_ref.period, k_set)[::-1]
    pts = sample_box(domain, n_samples)

    max_errors = []
    for T, ks in schedule:
        worst = 0.0
        for k in ks:
            gap = np.asarray(F_ref.step(T, k, pts)) - np.asarray(F_apx.step(T, k, pts))
            worst = max(worst, float(np.max(np.linalg.norm(gap, axis=-1))))
        max_errors.append(worst)

    Ts = [T for T, _ in schedule]
    return ConsistencyReport(tuple(Ts), tuple(max_errors), _fit_loglog_slope(Ts, max_errors))
