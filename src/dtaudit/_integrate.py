"""In-package integrators.

Two pieces of numerical machinery back the model constructors:

* a batched embedded Runge-Kutta 4(5) pair (Dormand-Prince coefficients)
  with a single shared step-size controller per batch, used for the
  tolerance-controlled stand-in for the exact discrete-time model, and
* an adaptive Simpson quadrature for frozen-state one-step integrals and
  for the certificate integral of the boundedness construction.

Both operate on arrays of shape (batch, dim) so grid sweeps amortize the
per-call overhead.
"""

from __future__ import annotations

import numpy as np


class IntegrationError(RuntimeError):
    """Step-size underflow or non-finite state during ODE integration."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t={t!r})")
        self.t = t


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge on some subinterval."""

    def __init__(self, message: str, interval):
        super().__init__(f"{message} (interval={interval!r})")
        self.interval = interval


# Dormand-Prince 5(4) tableau; first-same-as-last.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
# 5th-order weights equal the last row of _A; error weights = b5 - b4.
_E = (
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


_MAX_STEPS = 100_000  # accepted and rejected RK45 steps per call before giving up
_MAX_DEPTH = 40  # adaptive Simpson's refinement limit


def rk45_integrate(rhs, t0: float, t1: float, x0: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Integrate dx/dt = rhs(t, x) from t0 to t1 with local error < tol.

    ``x0`` has shape (batch, dim); ``rhs`` must accept and return that
    shape. One step size is shared across the batch (controlled by the
    worst row) so results do not depend on how states are batched
    together only up to the common step sequence; a fixed batch always
    reproduces bit-identically.
    """
    x = np.array(x0, dtype=float)
    if x.ndim == 1:
        return rk45_integrate(rhs, t0, t1, x[None, :], tol)[0]
    span = t1 - t0
    if span == 0.0:
        return x
    t = t0
    h = span  # first attempt: the whole interval; the controller shrinks it
    k0 = rhs(t, x)
    if not np.all(np.isfinite(k0)):
        raise IntegrationError("non-finite right-hand side", t)
    atol = rtol = tol
    stages = [None] * 7
    for _ in range(_MAX_STEPS):
        last = (span > 0 and t + h >= t1) or (span < 0 and t + h <= t1)
        if last:
            h = t1 - t
        stages[0] = k0
        for i in range(1, 7):
            xi = x
            for j, a in enumerate(_A[i]):
                if a != 0.0:
                    xi = xi + (h * a) * stages[j]
            stages[i] = rhs(t + _C[i] * h, xi)
        x5 = x
        for j, b in enumerate(_A[6]):
            if b != 0.0:
                x5 = x5 + (h * b) * stages[j]
        # stages[6] is rhs at (t+h, x5): reused as k0 on acceptance (FSAL)
        err = np.zeros_like(x)
        for j, e in enumerate(_E):
            if e != 0.0:
                err = err + (h * e) * stages[j]
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        with np.errstate(invalid="ignore"):
            enorm = float(np.max(np.sqrt(np.mean((err / scale) ** 2, axis=1))))
        if not np.isfinite(enorm):
            enorm = 2.0  # force rejection and a smaller step
        if enorm <= 1.0:
            t = t + h
            x = x5
            k0 = stages[6]
            if last:
                return x
        factor = 0.9 * (enorm ** -0.2) if enorm > 0 else 5.0
        h = h * min(5.0, max(0.2, factor))
        if abs(h) < 1e-14 * max(abs(t), 1.0):
            raise IntegrationError("step size underflow", t)
    raise IntegrationError("step budget exhausted", t)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-10) -> np.ndarray:
    """Adaptive Simpson integral of a vector-valued f over [a, b].

    ``f(t)`` may return a scalar or an array; the refinement is shared
    (controlled by the max-norm error) so batched integrands stay cheap.
    """
    fa, fm, fb = f(a), f((a + b) / 2.0), f(b)
    whole = (b - a) / 6.0 * (np.asarray(fa) + 4.0 * np.asarray(fm) + np.asarray(fb))
    return _simpson_rec(f, a, b, fa, fm, fb, whole, tol, _MAX_DEPTH)


def _simpson_rec(f, a, b, fa, fm, fb, whole, tol, depth):
    m = (a + b) / 2.0
    lm, rm = (a + m) / 2.0, (m + b) / 2.0
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (np.asarray(fa) + 4.0 * np.asarray(flm) + np.asarray(fm))
    right = (b - m) / 6.0 * (np.asarray(fm) + 4.0 * np.asarray(frm) + np.asarray(fb))
    with np.errstate(invalid="ignore"):  # inf - inf: a non-finite integrand too
        err = np.max(np.abs(left + right - whole))
    if not np.isfinite(err):
        raise QuadratureError("non-finite integrand", (a, b))
    if err <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    if depth <= 0:
        raise QuadratureError("refinement limit reached", (a, b))
    return _simpson_rec(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + _simpson_rec(
        f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1
    )
