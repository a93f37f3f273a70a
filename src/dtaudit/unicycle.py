"""Tracking case study for a kinematic unicycle.

Everything revolves around the error dynamics in the vehicle frame, a
sampled tracking controller with an optional T-scaled correction input,
and the V / W / U Lyapunov chain whose constants are computed (and
validity-flagged) rather than assumed.

Two parameter regimes are first class. The "demo" regime uses the large
gains of the published simulations; its chain constants come out
invalid, which the audits report rather than hide. The "validated"
regime uses small reference bounds for which every constant is positive
and all audits run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cascade import CascadeSystem, _stacked_step, rollout
from .discretize import VectorField, exact_proxy_map
# perfbench/layers.py wraps the map builder under this name on this module
from .discretize import euler_map  # noqa: F401
from ._integrate import IntegrationError
from .numerics import horizon_index
from .stability import PreconditionError
from .verdict import _SLACK, StabilityVerdict, Witness, _first_violation

__all__ = [
    "ReferenceSignal",
    "TrackingErrorState",
    "ControllerGains",
    "CaseStudyConstants",
    "CorrectionDomainError",
    "check_pe",
    "pe_window_sums",
    "error_dynamics_field",
    "tracking_controller",
    "redesign_correction",
    "correction_bound",
    "closed_loop_euler_cascade",
    "closed_loop_display_parts",
    "controller_callable",
    "lyap_V",
    "lyap_V_bounds",
    "lyap_W",
    "lyap_W_bounds",
    "lyap_U",
    "compute_case_constants",
    "audit_lyapunov_chain",
    "demo_references",
    "demo_gains",
    "validated_references",
    "validated_gains",
]


class CorrectionDomainError(ValueError):
    """Correction denominator vanished at the reported (k, T).

    For an array k it reports the step index of the first row whose
    denominator vanished.
    """

    def __init__(self, k: int, T: float, den: float):
        super().__init__(f"correction denominator {den:.3e} at k={k}, T={T}")
        self.k = int(k)
        self.T = float(T)
        self.den = float(den)


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference velocities with a uniform bound and a period.

    w_M must dominate |v_r(kT)|, |omega_r(kT)| and the one-step
    difference quotient of omega_r over the audited horizon;
    `check_uniform_bound` verifies this on a horizon. `period` is the
    reference period in seconds: the excitation check and the Lyapunov
    chain audit one period of start indices.
    """

    v_r: callable
    omega_r: callable
    T: float
    w_M: float
    period: float = math.tau

    def period_steps(self, T: float) -> int:
        """Steps of period T that cover one reference period: ceil(period / T)."""
        return int(math.ceil(self.period / T))

    def vr_k(self, k: int) -> float:
        return float(self.v_r(k * self.T))

    def wr_k(self, k: int) -> float:
        return float(self.omega_r(k * self.T))

    def check_uniform_bound(self, horizon_s: float) -> StabilityVerdict:
        ks = np.arange(horizon_index(horizon_s, self.T) + 1)
        t = ks * self.T
        vr = np.abs(np.asarray(self.v_r(t), dtype=float) * np.ones_like(t))
        wr = np.asarray(self.omega_r(t), dtype=float) * np.ones_like(t)
        # row k: |v_r(kT)|, |omega_r(kT)| and the forward quotient from k to k + 1
        quot = np.append(np.abs(np.diff(wr)) / self.T, 0.0)
        series = np.column_stack([vr, np.abs(wr), quot])
        bad = _first_violation(
            series <= self.w_M + _SLACK,
            lambda ks: Witness.of(self.T, ks[0], (t[ks[0]],), ks[0], series[ks], self.w_M),
            "reference bound exceeded")
        if bad is not None:
            return bad
        return StabilityVerdict.ok("reference bound holds", worst=float(np.max(series)))


@dataclass(frozen=True)
class TrackingErrorState:
    """Tracking error in the vehicle frame."""

    x_e: float
    y_e: float
    theta_e: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x_e, self.y_e, self.theta_e], dtype=float)


@dataclass(frozen=True)
class ControllerGains:
    """Controller gains and the correction-variant selector.

    use_correction is one of "none", "scaled" (correction_factor times
    the correction numerator, no denominator) and "full" (the complete
    quotient). alpha_y weights the Lyapunov cross term and enters the
    correction through eps = alpha_y + T.
    """

    a1: float
    a2: float
    alpha_y: float
    use_correction: str = "none"
    correction_factor: float = 0.5

    def __post_init__(self):
        if not (self.a1 > 0 and self.a2 > 0 and self.alpha_y > 0):
            raise ValueError("gains must be positive")
        if self.use_correction not in ("none", "scaled", "full"):
            raise ValueError(f"unknown correction variant {self.use_correction!r}")

    def admissible(self, T: float) -> bool:
        return 0.0 < T * self.a1 < 1.0


def _ref(signal, t):
    """A reference at time t: a Python float for a scalar t, a float array
    for an array t (the times of a per-row step index k)."""
    if isinstance(t, np.ndarray):
        return np.asarray(signal(t), dtype=float)
    return float(signal(t))


def _cube(w):
    """w ** 3 in Python float arithmetic, also for an array w: numpy's array
    power differs from it in the last bit on some values, which would make
    an array-k step differ from the int-k steps of its rows."""
    if isinstance(w, np.ndarray):
        return np.array([v ** 3 for v in w.ravel().tolist()]).reshape(w.shape)
    return w ** 3


def _correction_coefficients(w, gains: ControllerGains, T: float):
    """x_e and y_e coefficients of the correction numerator, and its
    denominator, at reference turn rate w = omega_r(kT)."""
    eps = gains.alpha_y + T
    a2 = gains.a2
    cx = a2 * a2 + w * w - eps * a2 * w * w
    cy = 2.0 * a2 * w - eps * _cube(w)
    den = 2.0 * (1.0 - a2 * T) + eps * w * w * T
    return cx, cy, den


def _correction_pieces(k, x_e, y_e, refs: ReferenceSignal, gains: ControllerGains,
                       T: float):
    """Numerator and denominator of the correction quotient."""
    cx, cy, den = _correction_coefficients(_ref(refs.omega_r, k * T), gains, T)
    return cx * x_e - cy * y_e, den


def _check_denominator(k, T: float, den) -> None:
    """Raise CorrectionDomainError at the first row whose denominator vanished."""
    if isinstance(k, np.ndarray):
        bad = np.abs(den) < 1e-12
        if bad.any():
            i = int(np.argmax(np.broadcast_to(bad, k.shape)))
            raise CorrectionDomainError(k[i], T, float(np.broadcast_to(den, k.shape)[i]))
    elif abs(den) < 1e-12:
        raise CorrectionDomainError(k, T, den)


def redesign_correction(k, x_e, y_e, refs: ReferenceSignal, gains: ControllerGains,
                        T: float):
    """Correction input: the full quotient with eps = alpha_y + T.

    With w = omega_r(kT),

        v_T = [(a2^2 + w^2 - eps a2 w^2) x_e - (2 a2 w - eps w^3) y_e]
              / [2 (1 - a2 T) + eps w^2 T].

    At zero heading error v_T enters V(k+1) - V(k) through
    -T^2 v_T (2 x_e(k+1) - eps w y_e(k+1)) evaluated at v_T = 0, whose
    x_e coefficient is the denominator; so v_T cancels the T^2 terms in
    x_e^2 and x_e y_e of V(k+1) - V(k). At w = 0 it reduces to
    a2^2 x_e / (2 (1 - a2 T)), free of eps, as V is.
    """
    num, den = _correction_pieces(k, x_e, y_e, refs, gains, T)
    _check_denominator(k, T, den)
    return num / den


def _correction_value(k, x_e, y_e, refs, gains, T):
    if gains.use_correction == "none":
        return np.zeros_like(np.asarray(x_e, dtype=float))
    if gains.use_correction == "scaled":
        num, _ = _correction_pieces(k, x_e, y_e, refs, gains, T)
        return gains.correction_factor * num
    return redesign_correction(k, x_e, y_e, refs, gains, T)


def correction_bound(gains: ControllerGains, w_M: float, T: float) -> float:
    """Constant K with |correction(k, x)| <= K |x| over admissible periods."""
    eps = gains.alpha_y + T
    a2 = gains.a2
    den = 2.0 * (1.0 - a2 * T)
    if den <= 0.0:
        raise CorrectionDomainError(-1, T, den)
    return (a2 * a2 + w_M * w_M + eps * a2 * w_M ** 2 + 2.0 * a2 * w_M
            + eps * w_M ** 3) / den


def _control_values(T: float, k, x_e, y_e, th_e, refs: ReferenceSignal,
                    gains: ControllerGains):
    """Shared controller arithmetic so every caller gets identical floats."""
    wr = _ref(refs.omega_r, k * T)
    vr = _ref(refs.v_r, k * T)
    w = wr + gains.a1 * th_e
    vth = _correction_value(k, x_e, y_e, refs, gains, T)
    v = vr + gains.a2 * x_e + T * vth
    return v, w, vth


def tracking_controller(k: int, state, refs: ReferenceSignal, gains: ControllerGains,
                        T: float):
    """Control pair (v, omega) at step k for a tracking-error state."""
    if isinstance(state, TrackingErrorState):
        x_e, y_e, th_e = state.x_e, state.y_e, state.theta_e
    else:
        arr = np.asarray(state, dtype=float)
        x_e, y_e, th_e = arr[..., 0], arr[..., 1], arr[..., 2]
    v, w, _ = _control_values(T, k, x_e, y_e, th_e, refs, gains)
    if np.ndim(v) == 0 and np.ndim(w) == 0:
        return float(v), float(w)
    return v, w


def controller_callable(refs: ReferenceSignal, gains: ControllerGains):
    """Feedback law in the (T, k, state) -> input convention of the model maps."""

    def ctrl(T, k, s):
        s = np.asarray(s, dtype=float)
        v, w, _ = _control_values(T, k, s[..., 0], s[..., 1], s[..., 2], refs, gains)
        return np.stack([np.broadcast_to(v, s[..., 0].shape),
                         np.broadcast_to(w, s[..., 0].shape)], axis=-1)

    return ctrl


def error_dynamics_field(refs: ReferenceSignal) -> VectorField:
    """Tracking-error dynamics in the vehicle frame, inputs (v, omega)."""

    def rhs(t, s, u):
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        x_e, y_e, th_e = s[..., 0], s[..., 1], s[..., 2]
        v, w = u[..., 0], u[..., 1]
        vr = _ref(refs.v_r, t)
        wr = _ref(refs.omega_r, t)
        fx = w * y_e - v + vr * np.cos(th_e)
        fy = -w * x_e + vr * np.sin(th_e)
        fth = wr - w
        if np.shape(fth) != np.shape(fx):  # a (2,) input for a state lifted to (1, 3)
            fth = np.broadcast_to(fth, np.shape(fx))
        return np.stack([fx, fy, fth], axis=-1)

    return VectorField(3, 2, rhs)


def closed_loop_euler_cascade(refs: ReferenceSignal, gains: ControllerGains) -> CascadeSystem:
    """First-order closed loop as a cascade: position errors driven by heading.

    `f` is one fused Euler step of the position errors under the tracking
    controller, `euler_map(error_dynamics_field(refs), controller_callable(
    refs, gains))` restricted to (x_e, y_e), in the same operation order and
    so bit-identical to it. Every quantity that depends only on (T, k) --
    omega_r(kT), v_r(kT) and the correction coefficients -- is read from a
    per-period table built on first use and rebuilt at double the size when
    a larger k arrives; a built table is never written to. The heading
    recursion `g` reads only theta, which makes the autonomous driver
    exact: theta(k+1) = (1 - T*a1) * theta(k).
    """
    a1, a2, variant = gains.a1, gains.a2, gains.use_correction
    factor = gains.correction_factor
    tables = {}  # T -> (5, n) rows omega_r, v_r, cx, cy, den at k = 0..n-1

    def table(T, k):
        """The table of period T, built or doubled until it covers k."""
        lo, hi = (k.min(initial=0), k.max(initial=0)) if isinstance(k, np.ndarray) else (k, k)
        if lo < 0:
            raise ValueError("step index must be nonnegative")
        tab = tables.get(T)
        if tab is None or tab.shape[1] <= hi:
            n = 64 if tab is None else tab.shape[1]
            while n <= hi:
                n *= 2
            ks = np.arange(n)
            wr = _ref(refs.omega_r, ks * T)
            rows = (wr, _ref(refs.v_r, ks * T), *_correction_coefficients(wr, gains, T))
            tab = np.stack([np.broadcast_to(r, ks.shape) for r in rows])
            tab.flags.writeable = False
            tables[T] = tab
        return tab

    def f(T, k, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        wr, vr, cx, cy, den = table(T, k)[:, k]
        x_e, y_e, th_e = x[..., 0], x[..., 1], z[..., 0]
        w = wr + a1 * th_e
        if variant == "none":
            vth = 0.0  # still added below: it turns a -0.0 of v into 0.0, as the composed map does
        elif variant == "scaled":
            vth = factor * (cx * x_e - cy * y_e)
        else:
            _check_denominator(k, T, den)
            vth = (cx * x_e - cy * y_e) / den
        v = vr + a2 * x_e + T * vth
        out = np.empty(x.shape)
        out[..., 0] = x_e + T * (w * y_e - v + vr * np.cos(th_e))
        out[..., 1] = y_e + T * (-w * x_e + vr * np.sin(th_e))
        return out

    def g(T, k, z):
        z = np.asarray(z, dtype=float)
        th = z[..., 0]
        wr = table(T, k)[0, k]
        w = wr + a1 * th
        return (th + T * (wr - w))[..., None]

    T_max = (1.0 - 1e-12) / max(a1, a2)
    return CascadeSystem(2, 1, f, g, T_max)


def closed_loop_display_parts(refs: ReferenceSignal, gains: ControllerGains):
    """Rearranged closed-loop pieces: heading-free part and interconnection.

    Returns (F1, G) with F1(T, k, x) the driven part at zero heading
    error and G(T, k, x, z) collecting every theta-dependent term;
    F1 + G equals the cascade's driven map up to rounding (1e-12), and
    G vanishes identically at z = 0.
    """

    def F1(T, k, x):
        x = np.asarray(x, dtype=float)
        x_e, y_e = x[..., 0], x[..., 1]
        wr = _ref(refs.omega_r, k * T)
        vth = _correction_value(k, x_e, y_e, refs, gains, T)
        xn = x_e + T * (wr * y_e - gains.a2 * x_e - T * vth)
        yn = y_e - T * wr * x_e
        return np.stack([xn, yn], axis=-1)

    def G(T, k, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        x_e, y_e = x[..., 0], x[..., 1]
        th = z[..., 0]
        vr = _ref(refs.v_r, k * T)
        gx = T * (gains.a1 * th * y_e + vr * (np.cos(th) - 1.0))
        gy = T * (-gains.a1 * th * x_e + vr * np.sin(th))
        return np.stack([gx, gy], axis=-1)

    return F1, G


# --- persistency of excitation --------------------------------------


def pe_window_sums(refs: ReferenceSignal, T: float, L: float, j_max: int) -> np.ndarray:
    """Sliding-window energies T * sum of omega_r(kT)^2 over inclusive windows."""
    ell = horizon_index(L, T)
    k = np.arange(0, j_max + ell + 2)
    w2 = np.asarray(refs.omega_r(k * T), dtype=float) ** 2
    csum = np.concatenate([[0.0], np.cumsum(w2)])
    j = np.arange(j_max + 1)
    return T * (csum[j + ell + 1] - csum[j])


def check_pe(refs: ReferenceSignal, L: float, mu: float, T_list,
             j_samples=None) -> StabilityVerdict:
    """Check the sliding-window excitation bound over one reference period.

    Passes when every sampled window start j satisfies
    T * sum_{k=j}^{j+ell} omega_r(kT)^2 >= mu. The witness initial state
    holds the start time of the failing window.
    """
    if not (L > 0.0 and mu > 0.0):
        raise ValueError("need L > 0 and mu > 0")
    worst = math.inf
    for T in sorted(float(t) for t in T_list):
        P = refs.period_steps(T)
        sums = pe_window_sums(refs, T, L, P)
        if j_samples is None:
            js = np.arange(P + 1)
        elif isinstance(j_samples, (int, np.integer)):
            js = np.unique(np.linspace(0, P, int(j_samples)).astype(int))
        else:
            js = np.asarray(list(j_samples), dtype=int)
        vals = sums[js]
        worst = min(worst, float(np.min(vals)))
        bad = _first_violation(vals >= mu - _SLACK,
                               lambda i: Witness.of(T, js[i], (js[i] * T,), js[i], vals[i], mu),
                               "excitation window below the required level")
        if bad is not None:
            return bad
    return StabilityVerdict.ok("excitation bound holds on all sampled windows",
                               min_window_sum=worst)


# --- Lyapunov chain ---------------------------------------------------


def lyap_V(k: int, x_e, y_e, refs: ReferenceSignal, gains: ControllerGains, T: float):
    """Quadratic with a reference-weighted cross term, eps = alpha_y + T."""
    eps = gains.alpha_y + T
    wm1 = float(refs.omega_r((k - 1) * T))
    x_e = np.asarray(x_e, dtype=float)
    y_e = np.asarray(y_e, dtype=float)
    out = x_e * x_e + y_e * y_e - eps * wm1 * x_e * y_e
    return out if out.ndim else float(out)


def lyap_V_bounds(gains: ControllerGains, w_M: float, T_star: float) -> tuple[float, float, bool]:
    """Sandwich constants (c1, c2) for the cross-term quadratic; flag is c1 > 0."""
    eps = gains.alpha_y + T_star
    c1 = 1.0 - 0.5 * eps * w_M
    c2 = 1.0 + 0.5 * eps * w_M
    return c1, c2, c1 > 0.0


def _energy_profile(refs: ReferenceSignal, T: float, k_lo: int, k_hi: int,
                    tail_tol: float) -> np.ndarray:
    """S(k) = sum_{i=k}^{k+N} e^{(k-i)T} omega_r(iT)^2 for k = k_lo..k_hi.

    N is set by `tail_tol`. Every S(k) sums the same N + 1 products in the
    same order, so its bits do not depend on k_lo or k_hi.
    """
    if not tail_tol > 0.0:
        raise ValueError("tail_tol must be positive")
    # the geometric tail past N is below 2 w_M^2 e^{-NT}
    N = int(math.ceil(math.log(2.0 * refs.w_M * refs.w_M / tail_tol) / T))
    i = np.arange(k_lo, k_hi + N + 1)
    decay = np.exp((k_lo - i[:N + 1]) * T)
    w2 = np.asarray(refs.omega_r(i * T), dtype=float) ** 2
    return np.array([np.sum(decay * w2[j:j + N + 1]) for j in range(k_hi - k_lo + 1)])


def lyap_W(k: int, y_e, refs: ReferenceSignal, T: float, tail_tol: float = 1e-10):
    """Decay-weighted future excitation times -T y_e^2, truncated by tail_tol."""
    S = float(_energy_profile(refs, T, k, k, tail_tol)[0])
    y_e = np.asarray(y_e, dtype=float)
    out = -T * S * y_e * y_e
    return out if out.ndim else float(out)


def lyap_W_bounds(mu_pe: float, L_pe: float, w_M: float) -> tuple[float, float, float, float]:
    """Constants (c3, c4, T3_star, T5_star) bounding the weighted-energy function."""
    c3 = 2.0 * w_M * w_M
    c4 = math.exp(-L_pe) * mu_pe / (1.0 - math.exp(-L_pe))
    # T3_star is the positive root of t = 2 (1 - e^{-t}); Newton from t = 2,
    # right of the root, where the map is convex and increasing
    T3_star = 2.0
    for _ in range(50):
        dt = (T3_star - 2.0 * (1.0 - math.exp(-T3_star))) / (1.0 - 2.0 * math.exp(-T3_star))
        T3_star -= dt
        if abs(dt) <= 1e-15 * T3_star:
            break
    T5_star = c4 / 4.0
    return c3, c4, T3_star, T5_star


@dataclass(frozen=True)
class CaseStudyConstants:
    """Constant chain for the tracking case study, each with a validity flag.

    K1 and K2 are empirical: the smallest constants making the V-decrease
    and transformed-decrease inequalities hold on the fitting grid.
    T_tilde is the admissible-period bound; its flag records whether the
    audited period T_star is inside it.
    """

    c1: float
    c2: float
    alpha_x: float
    K1: float
    c3: float
    c4: float
    K2: float
    alpha_y_tilde: float
    eps_small: float
    c3_tilde: float
    T_tilde: float
    mu_pe: float
    L_pe: float
    T_star: float
    flags: dict

    @property
    def all_valid(self) -> bool:
        return all(self.flags.values())

    def first_violated(self) -> str | None:
        for name, ok in self.flags.items():
            if not ok:
                return name
        return None

    def to_json(self) -> dict:
        out = {name: getattr(self, name) for name in (
            "c1", "c2", "alpha_x", "K1", "c3", "c4", "K2", "alpha_y_tilde",
            "eps_small", "c3_tilde", "T_tilde", "mu_pe", "L_pe", "T_star")}
        out["flags"] = dict(self.flags)
        return out


def _chain_grid(grid_n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    g = np.linspace(-radius, radius, grid_n)
    X, Y = np.meshgrid(g, g, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    keep = (X != 0.0) | (Y != 0.0)
    return X[keep], Y[keep]


def _chain_pass(refs: ReferenceSignal, gains: ControllerGains, T: float, X, Y,
                k_hi: int, tail_tol: float = 1e-12, stride: int = 1):
    """One pass over the chain: step the full-correction closed loop from
    the grid (X, Y) at zero heading error for k = 0, stride, ... <= k_hi.

    Yields (k, V, Vn, TS, W, Wn) per k: V at k on the grid and at k + 1 on
    its step, the weight TS = T S(k), and W = -T S y^2 at k and k + 1.
    """
    fstep = closed_loop_euler_cascade(refs, replace(gains, use_correction="full")).f
    pts = np.stack([X, Y], axis=-1)
    z0 = np.zeros((len(X), 1))
    S = _energy_profile(refs, T, 0, k_hi + 1, tail_tol)
    for k in range(0, k_hi + 1, stride):
        out = fstep(T, k, pts, z0)
        Xn, Yn = out[..., 0], out[..., 1]
        TS = T * S[k]
        yield (k, lyap_V(k, X, Y, refs, gains, T), lyap_V(k + 1, Xn, Yn, refs, gains, T),
               TS, -TS * Y * Y, -T * S[k + 1] * Yn * Yn)


def compute_case_constants(refs: ReferenceSignal, gains: ControllerGains, T_star: float,
                           L_pe: float, grid_n: int = 41, radius: float = 5.0,
                           k_max: int | None = None,
                           tail_tol: float = 1e-12) -> CaseStudyConstants:
    """Assemble the constant chain, fitting K1 and K2 on the state grid.

    The fits always use the full-correction closed loop (the chain is a
    statement about the redesigned controller). Validity flags mark each
    constant as computed-and-positive or violated; T_tilde's flag records
    whether T_star itself is admissible.
    """
    eps = gains.alpha_y + T_star
    c1, c2, c1_ok = lyap_V_bounds(gains, refs.w_M, T_star)
    alpha_x = gains.a2 - eps * refs.w_M ** 2 - 0.5 * eps ** 2 * refs.w_M ** 2 * (1.0 + gains.a2) ** 2

    P = refs.period_steps(T_star)
    mu_pe = float(np.min(pe_window_sums(refs, T_star, L_pe, P)))
    c3, c4, _, _ = lyap_W_bounds(mu_pe, L_pe, refs.w_M)
    alpha_y_tilde = c4 / 2.0

    k_hi = P if k_max is None else int(k_max)
    X, Y = _chain_grid(grid_n, radius)
    n2 = X * X + Y * Y
    T = T_star

    K1_req, K2_req = -math.inf, -math.inf
    mask = X != 0.0
    # the k-free terms of both fits, formed once
    aX2, aY2, Tn2, X2m = alpha_x * X * X, alpha_y_tilde * Y * Y, T * n2, X[mask] * X[mask]
    for k, V, Vn, _, W, Wn in _chain_pass(refs, gains, T, X, Y, k_hi, tail_tol):
        w = refs.wr_k(k)
        dV = (Vn - V) / T
        K1_req = max(K1_req, float(np.max((dV + aX2 + gains.alpha_y * w * w * Y * Y) / Tn2)))
        resid = (Wn - W) / T - w * w * Y * Y + aY2
        K2_req = max(K2_req, float(np.max(resid[mask] / X2m)))
    K1 = max(K1_req, 1e-9)
    K2 = max(K2_req, 0.0)

    eps_small = min(c1 / (2.0 * c3) if c3 > 0 else math.inf,
                    alpha_x / (2.0 * K2) if K2 > 0 else math.inf,
                    gains.alpha_y)
    dec = min(alpha_x / 2.0, eps_small * alpha_y_tilde)
    c3_tilde = 0.5 * dec
    k1_term = dec / (2.0 * K1)
    T_tilde = min(T_star, k1_term)

    flags = {
        "c1": c1_ok,
        "c2": c2 > 0.0,
        "alpha_x": alpha_x > 0.0,
        "K1": math.isfinite(K1),
        "c3": c3 > 0.0,
        "c4": c4 > 0.0,
        "K2": math.isfinite(K2),
        "alpha_y_tilde": alpha_y_tilde > 0.0,
        "eps_small": eps_small > 0.0,
        "c3_tilde": c3_tilde > 0.0,
        "T_tilde": k1_term + 1e-12 >= T_star,
        "mu_pe": mu_pe > 0.0,
        "L_pe": L_pe > 0.0,
    }
    return CaseStudyConstants(c1, c2, alpha_x, K1, c3, c4, K2, alpha_y_tilde,
                              eps_small, c3_tilde, T_tilde, mu_pe, L_pe, T_star, flags)


def lyap_U(k: int, x, refs: ReferenceSignal, gains: ControllerGains,
           constants: CaseStudyConstants, T: float):
    """Combined function V + eps_small * W; requires all constants valid."""
    bad = constants.first_violated()
    if bad is not None:
        raise PreconditionError(f"constant flag violated: {bad}")
    x = np.asarray(x, dtype=float)
    x_e, y_e = x[..., 0], x[..., 1]
    return lyap_V(k, x_e, y_e, refs, gains, T) + constants.eps_small * lyap_W(
        k, y_e, refs, T, tail_tol=1e-12)


def audit_lyapunov_chain(refs: ReferenceSignal, gains: ControllerGains,
                         constants: CaseStudyConstants, T: float,
                         grid_n: int = 41, radius: float = 5.0,
                         k_max: int | None = None,
                         tail_tol: float = 1e-12) -> StabilityVerdict:
    """Pointwise audit of the whole inequality chain on the state grid.

    Checks, for every grid state and step index: the V sandwich, the
    V-decrease with the fitted K1, the W sandwich, the W-decrease with
    the fitted K2, the U sandwich, and the U-decrease at rate c3_tilde.
    Any violation falsifies with the exact sample.
    """
    bad = constants.first_violated()
    if bad is not None:
        raise PreconditionError(f"constant flag violated: {bad}")
    c = constants
    k_hi = refs.period_steps(T) if k_max is None else int(k_max)
    X, Y = _chain_grid(grid_n, radius)
    n2 = X * X + Y * Y
    # the k-free bounds, formed once
    lo_V, hi, lo_U, rhsU = c.c1 * n2, c.c2 * n2, c.c1 / 2.0 * n2, -c.c3_tilde * n2
    aX2, K1n2, aY2, K2X2 = c.alpha_x * X * X, T * c.K1 * n2, c.alpha_y_tilde * Y * Y, c.K2 * X * X
    margins = {"V_decrease": math.inf, "W_decrease": math.inf, "U_decrease": math.inf,
               "V_lo": math.inf, "V_hi": -math.inf, "U_lo": math.inf, "U_hi": -math.inf,
               "W_sandwich_lo": math.inf, "W_sandwich_hi": -math.inf}

    def violation(k, ok, measured, bound, detail):
        return _first_violation(
            ok, lambda j: Witness.of(T, k, (X[j], Y[j]), k, measured[j], bound[j]), detail)

    for k, V, Vn, TS, W, Wn in _chain_pass(refs, gains, T, X, Y, k_hi, tail_tol):
        w = refs.wr_k(k)
        dV = (Vn - V) / T

        ratioV = V / n2
        margins["V_lo"] = min(margins["V_lo"], float(np.min(ratioV)))
        margins["V_hi"] = max(margins["V_hi"], float(np.max(ratioV)))
        bad = violation(k, ratioV >= c.c1 - _SLACK, V, lo_V, "V lower sandwich violated")
        if bad is not None:
            return bad
        bad = violation(k, ratioV <= c.c2 + _SLACK, V, hi, "V upper sandwich violated")
        if bad is not None:
            return bad

        rhsV = -(aX2 + gains.alpha_y * w * w * Y * Y) + K1n2
        margins["V_decrease"] = min(margins["V_decrease"], float(np.min(rhsV - dV)))
        bad = violation(k, dV <= rhsV + _SLACK, dV, rhsV, "V decrease violated")
        if bad is not None:
            return bad

        margins["W_sandwich_lo"] = min(margins["W_sandwich_lo"], TS)
        margins["W_sandwich_hi"] = max(margins["W_sandwich_hi"], TS)
        # the W sandwich c4 <= T*S(k) <= c3, upper side first
        bad = _first_violation([TS <= c.c3 + _SLACK, TS >= c.c4 - _SLACK],
                               lambda i: Witness.of(T, k, (X[0], Y[0]), k, TS, (c.c3, c.c4)[i]),
                               "W sandwich violated")
        if bad is not None:
            return bad

        dW = (Wn - W) / T
        rhsW = w * w * Y * Y - aY2 + K2X2
        margins["W_decrease"] = min(margins["W_decrease"], float(np.min(rhsW - dW)))
        bad = violation(k, dW <= rhsW + _SLACK, dW, rhsW, "W decrease violated")
        if bad is not None:
            return bad

        U = V + c.eps_small * W
        dU = (Vn + c.eps_small * Wn - U) / T
        ratioU = U / n2
        margins["U_lo"] = min(margins["U_lo"], float(np.min(ratioU)))
        margins["U_hi"] = max(margins["U_hi"], float(np.max(ratioU)))
        bad = violation(k, ratioU >= c.c1 / 2.0 - _SLACK, U, lo_U, "U lower sandwich violated")
        if bad is not None:
            return bad
        bad = violation(k, ratioU <= c.c2 + _SLACK, U, hi, "U upper sandwich violated")
        if bad is not None:
            return bad

        margins["U_decrease"] = min(margins["U_decrease"], float(np.min(rhsU - dU)))
        bad = violation(k, dU <= rhsU + _SLACK, dU, rhsU, "U decrease violated")
        if bad is not None:
            return bad

    return StabilityVerdict("pass", None, "Lyapunov chain holds on the grid", margins)


# --- parameter regimes ------------------------------------------------


def demo_references(T: float = 0.01) -> ReferenceSignal:
    """Published simulation references: large, fast angular excitation."""
    return ReferenceSignal(lambda t: 1.0 + 0.0 * np.asarray(t),
                           lambda t: 20.0 * np.sin(np.asarray(t)), T, 20.0)


def demo_gains(T: float = 0.01, use_correction: str = "none") -> ControllerGains:
    """Published simulation gains; chain constants are invalid here."""
    return ControllerGains(10.0, 70.0, 2.0 - T, use_correction)


def validated_references(T: float = 0.01) -> ReferenceSignal:
    """Small-bound regime in which the whole constant chain is positive."""
    return ReferenceSignal(lambda t: 0.5 + 0.0 * np.asarray(t),
                           lambda t: 0.5 * np.sin(np.asarray(t)), T, 0.5)


def validated_gains(use_correction: str = "full") -> ControllerGains:
    return ControllerGains(1.0, 5.0, 0.1, use_correction)


# --- comparison experiment: simulation and scoring --------------------


def _simulate_variant(refs, gains, T, x0, steps, plant, bad_norm):
    """States before the first divergent step (norm above `bad_norm` or not
    finite), the divergence flag and that step."""
    if plant == "euler":
        step = _stacked_step(closed_loop_euler_cascade(refs, gains))
    else:
        pmap = exact_proxy_map(error_dynamics_field(refs), controller_callable(refs, gains))

        def step(T, k, Y):
            try:
                return pmap.step(T, k, Y)
            except IntegrationError:
                return np.full_like(Y, np.nan)  # a failed step diverges

    states = rollout(step, T, 0, x0, steps)[0][:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(np.linalg.norm(states, axis=1) <= bad_norm)
    if np.any(bad):
        first_bad = int(np.argmax(bad))
        return states[:first_bad], True, first_bad
    return states, False, None


def _score_variant(states, refs, gains, T, diverged, first_bad):
    ks = np.arange(len(states))
    v, w, vth = _control_values(T, ks, states[:, 0], states[:, 1], states[:, 2], refs, gains)
    rows = np.column_stack([ks, ks * T, states, v, w, vth])
    pos = np.linalg.norm(states[:, :2], axis=1)
    full = np.linalg.norm(states, axis=1)
    metrics = {
        "ise_position": float(T * np.sum(pos ** 2)),
        "peak_v": float(np.max(np.abs(v))),
        "control_energy": float(T * np.sum(v ** 2)),
        "settle_step_position": _settle_step(pos, 0.01),
        "settle_step_full": _settle_step(full, 0.01),
        "final_norm": float(full[-1]),
        "diverged": bool(diverged),
        "first_divergent_step": first_bad,
    }
    return rows, metrics


def _settle_step(norms: np.ndarray, level: float):
    """Smallest index from which the norm stays at or below the level."""
    above = norms > level
    if not np.any(above):
        return 0
    last_above = int(len(norms) - 1 - np.argmax(above[::-1]))
    if last_above == len(norms) - 1:
        return None
    return last_above + 1
