"""Parameterized discrete-time models of continuous-time plants.

A `VectorField` is the continuous plant; `euler_map`, `modified_euler_map`
and `exact_proxy_map` turn it into one-step maps indexed by the sampling
period T. `consistency_order` and `lipschitz_growth_estimate` measure how
the model families relate on a box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._integrate import adaptive_simpson, rk45_integrate
from ._sampling import Box, sample_box, sample_pairs

__all__ = [
    "VectorField",
    "ParameterizedMap",
    "ConsistencyReport",
    "EstimateFailure",
    "euler_map",
    "modified_euler_map",
    "exact_proxy_map",
    "consistency_order",
    "lipschitz_growth_estimate",
]


class EstimateFailure(RuntimeError):
    """Estimate rejected: the measured growth is not affine in T."""

    def __init__(self, message: str, per_T: dict):
        super().__init__(message)
        self.per_T = per_T


@dataclass(frozen=True)
class VectorField:
    """Right-hand side f(t, x, u) of a continuous-time plant.

    `rhs` must be deterministic, return finite values for finite inputs,
    and broadcast over a leading batch axis of x and u.
    """

    dim_x: int
    dim_u: int
    rhs: callable

    def __call__(self, t, x, u):
        return self.rhs(t, x, u)


@dataclass(frozen=True)
class ParameterizedMap:
    """One-step discrete-time map x(k+1) = step(T, k, x(k)).

    Queried only for sampling periods in (0, T_max] and step indices
    k >= 0; `step` broadcasts over a leading batch axis of x and must be
    pure (the sup-norm sweeps rely on reentrancy).
    """

    dim: int
    T_max: float
    step: callable
    label: str

    def __post_init__(self):
        if self.label not in ("euler", "modified-euler", "exact-proxy", "custom"):
            raise ValueError(f"unknown label {self.label!r}")

    def __call__(self, T, k, x):
        if not (0.0 < T <= self.T_max):
            raise ValueError(f"T={T} outside admissible range (0, {self.T_max}]")
        if k < 0:
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
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return const
        return np.broadcast_to(const, (x.shape[0], dim_u))

    return held


def euler_map(f: VectorField, controller=None, T_max: float = math.inf) -> ParameterizedMap:
    """First-order model x + T * f(kT, x, u(k))."""
    u_of = _resolve_controller(controller, f.dim_u)

    def step(T, k, x):
        x = np.asarray(x, dtype=float)
        return x + T * np.asarray(f(k * T, x, u_of(T, k, x)), dtype=float)

    return ParameterizedMap(f.dim_x, T_max, step, "euler")


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

    return ParameterizedMap(f.dim_x, T_max, step, "modified-euler")


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

    return ParameterizedMap(f.dim_x, T_max, step, "exact-proxy")


@dataclass(frozen=True)
class ConsistencyReport:
    """One-step gaps between two model families over a period sweep."""

    T_samples: tuple
    max_errors: tuple
    slope: float | None
    K_est: float | None

    def __post_init__(self):
        if any(b >= a for a, b in zip(self.T_samples, self.T_samples[1:])):
            raise ValueError("T_samples must be strictly decreasing")
        if any(e < 0 for e in self.max_errors):
            raise ValueError("max_errors must be nonnegative")

    def to_json(self) -> dict:
        return {
            "T_samples": list(self.T_samples),
            "max_errors": list(self.max_errors),
            "slope": self.slope,
            "K_est": self.K_est,
        }


def _default_k_set(T: float):
    # one period of the 2*pi-periodic references used throughout
    return range(0, int(math.floor(2.0 * math.pi / T)) + 1)


def _fit_loglog_slope(Ts, errors):
    pts = [(T, e) for T, e in zip(Ts, errors) if e > 1e-14]
    if len(pts) < 2:
        return None
    logT = np.log([p[0] for p in pts])
    logE = np.log([p[1] for p in pts])
    slope = np.polyfit(logT, logE, 1)[0]
    return float(slope)


def consistency_order(F_ref: ParameterizedMap, F_apx: ParameterizedMap, domain: Box,
                      k_set=None, T_list=None, n_samples: int = 4096,
                      estimate_K: bool = False, pair_samples: int = 256) -> ConsistencyReport:
    """Measure sup |F_ref - F_apx| over the box for each period and fit its order.

    The sup is approximated on a deterministic low-discrepancy sample of
    the box plus its corners, swept over the index set (per-period range
    covering one reference period when k_set is None). The slope is the
    least-squares order of max_error against T in log-log coordinates,
    reported as None when the gaps are at rounding level.
    """
    if F_ref.dim != F_apx.dim:
        raise ValueError("maps must share a state dimension")
    if T_list is None or len(T_list) == 0:
        raise ValueError("T_list must be a nonempty list of periods")
    Ts = sorted((float(T) for T in T_list), reverse=True)
    pts = sample_box(domain, n_samples)
    if pts.shape[0] == 0:
        raise ValueError("empty domain sample")

    max_errors = []
    for T in Ts:
        ks = _default_k_set(T) if k_set is None else k_set
        worst = 0.0
        for k in ks:
            gap = np.asarray(F_ref(T, int(k), pts)) - np.asarray(F_apx(T, int(k), pts))
            worst = max(worst, float(np.max(np.linalg.norm(gap, axis=-1))))
        max_errors.append(worst)

    K_est = None
    if estimate_K:
        K_est = lipschitz_growth_estimate(F_apx, domain, Ts, pair_samples=pair_samples,
                                          k_set=k_set)
    return ConsistencyReport(tuple(Ts), tuple(max_errors),
                             _fit_loglog_slope(Ts, max_errors), K_est)


def lipschitz_growth_estimate(F: ParameterizedMap, domain: Box, T_list,
                              pair_samples: int = 2048, k_set=None) -> float:
    """Smallest K with |F_T(k,x1) - F_T(k,x2)| <= (1 + K*T) |x1 - x2| on the sample.

    The per-period constant is max(0, (worst ratio - 1) / T); the result
    is the maximum over the sweep. If the constant at the smallest period
    exceeds ten times the constant at the largest, the growth is not
    affine in T and the estimate is rejected.
    """
    Ts = sorted((float(T) for T in T_list), reverse=True)
    if not Ts:
        raise ValueError("T_list must be nonempty")
    a, b = sample_pairs(domain, pair_samples)
    if a.shape[0] < 2:
        raise ValueError("need at least 2 sample pairs")
    gaps = np.linalg.norm(a - b, axis=-1)

    per_T = {}
    for T in Ts:
        ks = _default_k_set(T) if k_set is None else k_set
        ratio = 0.0
        for k in ks:
            fa = np.asarray(F(T, int(k), a))
            fb = np.asarray(F(T, int(k), b))
            ratio = max(ratio, float(np.max(np.linalg.norm(fa - fb, axis=-1) / gaps)))
        per_T[T] = max(0.0, (ratio - 1.0) / T)

    K_small, K_large = per_T[Ts[-1]], per_T[Ts[0]]
    if K_small > 10.0 * K_large + 1e-6:
        raise EstimateFailure(
            f"growth constant explodes as T shrinks: K({Ts[-1]})={K_small:.6g} "
            f"vs K({Ts[0]})={K_large:.6g}",
            per_T,
        )
    return max(per_T.values())
