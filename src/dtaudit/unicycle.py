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
from .discretize import ParameterizedMap, VectorField, euler_map, exact_proxy_map
from ._integrate import IntegrationError
from .numerics import horizon_index
from .stability import PreconditionError
from .verdict import StabilityVerdict, Witness

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
    "run_comparison_experiment",
    "demo_references",
    "demo_gains",
    "validated_references",
    "validated_gains",
]

_SLACK = 1e-9


class CorrectionDomainError(ValueError):
    """Correction denominator vanished at the reported (k, T)."""

    def __init__(self, k: int, T: float, den: float):
        super().__init__(f"correction denominator {den:.3e} at k={k}, T={T}")
        self.k = int(k)
        self.T = float(T)


@dataclass(frozen=True)
class ReferenceSignal:
    """Reference velocities with a uniform bound.

    w_M must dominate |v_r(kT)|, |omega_r(kT)| and the one-step
    difference quotient of omega_r over the audited horizon;
    `check_uniform_bound` verifies this on a horizon.
    """

    v_r: callable
    omega_r: callable
    T: float
    w_M: float

    def vr_k(self, k: int) -> float:
        return float(self.v_r(k * self.T))

    def wr_k(self, k: int) -> float:
        return float(self.omega_r(k * self.T))

    def check_uniform_bound(self, horizon_s: float) -> StabilityVerdict:
        ks = np.arange(horizon_index(horizon_s, self.T) + 1)
        t = ks * self.T
        vr = np.abs(np.asarray(self.v_r(t), dtype=float) * np.ones_like(t))
        wr = np.asarray(self.omega_r(t), dtype=float) * np.ones_like(t)
        quot = np.abs(np.diff(wr)) / self.T
        worst = max(float(np.max(vr)), float(np.max(np.abs(wr))),
                    float(np.max(quot)) if len(quot) else 0.0)
        if worst > self.w_M + _SLACK:
            k_bad = int(np.argmax(np.maximum(vr, np.abs(wr))))
            return StabilityVerdict.falsify(
                Witness.of(self.T, k_bad, (t[k_bad],), k_bad, worst, self.w_M),
                "reference bound exceeded")
        return StabilityVerdict.ok("reference bound holds", worst=worst)


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


def _correction_pieces(k: int, x_e, y_e, refs: ReferenceSignal, gains: ControllerGains,
                       T: float):
    """Numerator and denominator of the correction quotient."""
    w = float(refs.omega_r(k * T))
    eps = gains.alpha_y + T
    a2 = gains.a2
    num = (a2 * a2 + w * w - eps * a2 * w * w) * x_e - (2.0 * a2 * w - eps * w ** 3) * y_e
    den = 2.0 * (1.0 - a2 * T) + eps * w * w * T
    return num, den


def redesign_correction(k: int, x_e, y_e, refs: ReferenceSignal, gains: ControllerGains,
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
    if abs(den) < 1e-12:
        raise CorrectionDomainError(k, T, den)
    return num / den


def _correction_value(k: int, x_e, y_e, refs, gains, T):
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


def _control_values(T: float, k: int, x_e, y_e, th_e, refs: ReferenceSignal,
                    gains: ControllerGains):
    """Shared controller arithmetic so every caller gets identical floats."""
    wr = float(refs.omega_r(k * T))
    vr = float(refs.v_r(k * T))
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
        v, w, _ = _control_values(T, int(k), s[..., 0], s[..., 1], s[..., 2], refs, gains)
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
        vr = float(refs.v_r(t))
        wr = float(refs.omega_r(t))
        fx = w * y_e - v + vr * np.cos(th_e)
        fy = -w * x_e + vr * np.sin(th_e)
        fth = wr - w
        return np.stack([fx, fy, fth], axis=-1)

    return VectorField(3, 2, rhs)


def closed_loop_euler_cascade(refs: ReferenceSignal, gains: ControllerGains) -> CascadeSystem:
    """First-order closed loop as a cascade: position errors driven by heading.

    The driven part and the heading recursion are slices of one composed
    one-step map, so simulating the cascade reproduces the composed
    model bit-exactly. The heading slice reads only theta, which makes
    the autonomous driver exact: theta(k+1) = (1 - T*a1) * theta(k).
    """
    emap = euler_map(error_dynamics_field(refs), controller_callable(refs, gains))

    def f(T, k, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        s = np.concatenate([x, z], axis=-1)
        return emap.step(T, int(k), s)[..., :2]

    def g(T, k, z):
        z = np.asarray(z, dtype=float)
        th = z[..., 0]
        wr = float(refs.omega_r(k * T))
        w = wr + gains.a1 * th
        return (th + T * (wr - w))[..., None]

    T_max = (1.0 - 1e-12) / max(gains.a1, gains.a2)
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
        wr = float(refs.omega_r(k * T))
        vth = _correction_value(int(k), x_e, y_e, refs, gains, T)
        xn = x_e + T * (wr * y_e - gains.a2 * x_e - T * vth)
        yn = y_e - T * wr * x_e
        return np.stack([xn, yn], axis=-1)

    def G(T, k, x, z):
        x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        x_e, y_e = x[..., 0], x[..., 1]
        th = z[..., 0]
        vr = float(refs.v_r(k * T))
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
        P = int(math.ceil(2.0 * math.pi / T))
        sums = pe_window_sums(refs, T, L, P)
        if j_samples is None:
            js = np.arange(P + 1)
        elif isinstance(j_samples, (int, np.integer)):
            js = np.unique(np.linspace(0, P, int(j_samples)).astype(int))
        else:
            js = np.asarray(list(j_samples), dtype=int)
        vals = sums[js]
        worst = min(worst, float(np.min(vals)))
        bad = vals < mu - _SLACK
        if np.any(bad):
            jbad = int(js[int(np.argmax(bad))])
            return StabilityVerdict.falsify(
                Witness.of(T, jbad, (jbad * T,), jbad, float(sums[jbad]), mu),
                "excitation window below the required level")
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


def _w_truncation(w_M: float, tail_tol: float, T: float) -> int:
    # geometric tail of the weighted energy is below 2 w_M^2 e^{-NT}
    return int(math.ceil(math.log(2.0 * w_M * w_M / tail_tol) / T))


def lyap_W(k: int, y_e, refs: ReferenceSignal, T: float, tail_tol: float = 1e-10):
    """Decay-weighted future excitation times -T y_e^2, truncated by tail_tol."""
    if not tail_tol > 0.0:
        raise ValueError("tail_tol must be positive")
    N = _w_truncation(refs.w_M, tail_tol, T)
    i = np.arange(k, k + N + 1)
    S = float(np.sum(np.exp((k - i) * T) * np.asarray(refs.omega_r(i * T), dtype=float) ** 2))
    y_e = np.asarray(y_e, dtype=float)
    out = -T * S * y_e * y_e
    return out if out.ndim else float(out)


def lyap_W_bounds(mu_pe: float, L_pe: float, w_M: float) -> tuple[float, float, float, float]:
    """Constants (c3, c4, T3_star, T5_star) bounding the weighted-energy function."""
    from scipy.optimize import brentq

    c3 = 2.0 * w_M * w_M
    c4 = math.exp(-L_pe) * mu_pe / (1.0 - math.exp(-L_pe))
    T3_star = float(brentq(lambda t: t / (1.0 - math.exp(-t)) - 2.0, 1e-8, 10.0))
    T5_star = c4 / 4.0
    return c3, c4, T3_star, T5_star


def _energy_profile(refs: ReferenceSignal, T: float, k_hi: int, tail_tol: float) -> np.ndarray:
    """S(k) = sum_{i >= k} e^{(k-i)T} omega_r(iT)^2 for k = 0..k_hi+1."""
    N = _w_truncation(refs.w_M, tail_tol, T)
    i = np.arange(0, k_hi + 2 + N)
    w2 = np.asarray(refs.omega_r(i * T), dtype=float) ** 2
    q = math.exp(-T)
    S = np.zeros(len(i) + 1)
    for j in range(len(i) - 1, -1, -1):
        S[j] = w2[j] + q * S[j + 1]
    return S[: k_hi + 2]


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


def _x_subsystem_step(fstep, T, k, X, Y):
    """Driven part at zero heading error, via the composed closed loop."""
    pts = np.stack([X, Y], axis=-1)
    z0 = np.zeros((len(X), 1))
    out = fstep(T, k, pts, z0)
    return out[..., 0], out[..., 1]


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
    gains_full = replace(gains, use_correction="full")
    fstep = closed_loop_euler_cascade(refs, gains_full).f
    eps = gains.alpha_y + T_star
    c1, c2, c1_ok = lyap_V_bounds(gains, refs.w_M, T_star)
    alpha_x = gains.a2 - eps * refs.w_M ** 2 - 0.5 * eps ** 2 * refs.w_M ** 2 * (1.0 + gains.a2) ** 2

    P = int(math.ceil(2.0 * math.pi / T_star))
    mu_pe = float(np.min(pe_window_sums(refs, T_star, L_pe, P)))
    c3, c4, _, _ = lyap_W_bounds(mu_pe, L_pe, refs.w_M)
    alpha_y_tilde = c4 / 2.0

    k_hi = P if k_max is None else int(k_max)
    S = _energy_profile(refs, T_star, k_hi, tail_tol)
    X, Y = _chain_grid(grid_n, radius)
    n2 = X * X + Y * Y
    T = T_star

    K1_req, K2_req = -math.inf, -math.inf
    mask = X != 0.0
    for k in range(k_hi + 1):
        w = refs.wr_k(k)
        Xn, Yn = _x_subsystem_step(fstep, T, k, X, Y)
        V = lyap_V(k, X, Y, refs, gains, T)
        Vn = lyap_V(k + 1, Xn, Yn, refs, gains, T)
        dV = (Vn - V) / T
        K1_req = max(K1_req, float(np.max(
            (dV + alpha_x * X * X + gains.alpha_y * w * w * Y * Y) / (T * n2))))
        dW = (-T * S[k + 1] * Yn * Yn + T * S[k] * Y * Y) / T
        resid = dW - w * w * Y * Y + alpha_y_tilde * Y * Y
        K2_req = max(K2_req, float(np.max(resid[mask] / (X[mask] * X[mask]))))
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
    gains_full = replace(gains, use_correction="full")
    fstep = closed_loop_euler_cascade(refs, gains_full).f
    c = constants
    eps_s = c.eps_small
    P = int(math.ceil(2.0 * math.pi / T))
    k_hi = P if k_max is None else int(k_max)
    S = _energy_profile(refs, T, k_hi, tail_tol)
    X, Y = _chain_grid(grid_n, radius)
    n2 = X * X + Y * Y
    margins = {"V_decrease": math.inf, "W_decrease": math.inf, "U_decrease": math.inf,
               "V_lo": math.inf, "V_hi": -math.inf, "U_lo": math.inf, "U_hi": -math.inf,
               "W_sandwich_lo": math.inf, "W_sandwich_hi": -math.inf}

    def falsified(k, j, measured, bound, what):
        return StabilityVerdict.falsify(
            Witness.of(T, int(k), (X[j], Y[j]), int(k), float(measured), float(bound)), what)

    for k in range(k_hi + 1):
        w = refs.wr_k(k)
        Xn, Yn = _x_subsystem_step(fstep, T, k, X, Y)
        V = lyap_V(k, X, Y, refs, gains, T)
        Vn = lyap_V(k + 1, Xn, Yn, refs, gains, T)
        dV = (Vn - V) / T

        ratioV = V / n2
        margins["V_lo"] = min(margins["V_lo"], float(np.min(ratioV)))
        margins["V_hi"] = max(margins["V_hi"], float(np.max(ratioV)))
        bad = ratioV < c.c1 - _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, V[j], c.c1 * n2[j], "V lower sandwich violated")
        bad = ratioV > c.c2 + _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, V[j], c.c2 * n2[j], "V upper sandwich violated")

        rhsV = -(c.alpha_x * X * X + gains.alpha_y * w * w * Y * Y) + T * c.K1 * n2
        margins["V_decrease"] = min(margins["V_decrease"], float(np.min(rhsV - dV)))
        bad = dV > rhsV + _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, dV[j], rhsV[j], "V decrease violated")

        TS = T * S[k]
        margins["W_sandwich_lo"] = min(margins["W_sandwich_lo"], TS)
        margins["W_sandwich_hi"] = max(margins["W_sandwich_hi"], TS)
        if TS > c.c3 + _SLACK or TS < c.c4 - _SLACK:
            return falsified(k, 0, -TS, -c.c4, "W sandwich violated")

        dW = (-T * S[k + 1] * Yn * Yn + T * S[k] * Y * Y) / T
        rhsW = w * w * Y * Y - c.alpha_y_tilde * Y * Y + c.K2 * X * X
        margins["W_decrease"] = min(margins["W_decrease"], float(np.min(rhsW - dW)))
        bad = dW > rhsW + _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, dW[j], rhsW[j], "W decrease violated")

        U = V - eps_s * T * S[k] * Y * Y
        Un = Vn - eps_s * T * S[k + 1] * Yn * Yn
        dU = (Un - U) / T
        ratioU = U / n2
        margins["U_lo"] = min(margins["U_lo"], float(np.min(ratioU)))
        margins["U_hi"] = max(margins["U_hi"], float(np.max(ratioU)))
        bad = ratioU < c.c1 / 2.0 - _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, U[j], c.c1 / 2.0 * n2[j], "U lower sandwich violated")
        bad = ratioU > c.c2 + _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, U[j], c.c2 * n2[j], "U upper sandwich violated")

        rhsU = -c.c3_tilde * n2
        margins["U_decrease"] = min(margins["U_decrease"], float(np.min(rhsU - dU)))
        bad = dU > rhsU + _SLACK
        if np.any(bad):
            j = int(np.argmax(bad))
            return falsified(k, j, dU[j], rhsU[j], "U decrease violated")

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


# --- comparison experiment -------------------------------------------


_DEFAULT_COMPARISON = {
    "T": 0.01,
    "horizon_s": 10.0,
    "initial_error": (1.0, 1.0, 0.5),
    "plant": "euler",
    "variants": ("none", "scaled", "full"),
    "refs": {"vr": 1.0, "wr": {"kind": "sin", "amplitude": 20.0, "frequency": 1.0}},
    "gains": {"a1": 10.0, "a2": 70.0, "alpha_y": None, "scaled_factor": 0.5},
    "divergence_norm": 1e6,
}


def _refs_from_config(cfg: dict, T: float) -> ReferenceSignal:
    r = cfg["refs"]
    vr0 = float(r["vr"])
    wr = r["wr"]
    amp = float(wr["amplitude"])
    freq = float(wr.get("frequency", 1.0))
    if wr.get("kind", "sin") == "sin":
        omega_r = lambda t: amp * np.sin(freq * np.asarray(t))
        w_M_default = max(abs(vr0), abs(amp) * max(1.0, freq))
    elif wr["kind"] == "const":
        omega_r = lambda t: amp + 0.0 * np.asarray(t)
        w_M_default = max(abs(vr0), abs(amp))
    else:
        raise ValueError(f"unknown reference kind {wr.get('kind')!r}")
    return ReferenceSignal(lambda t: vr0 + 0.0 * np.asarray(t), omega_r, T,
                           float(r.get("w_M", w_M_default)))


def _merge_config(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge_config(out[key], val)
        else:
            out[key] = val
    return out


def run_comparison_experiment(config: dict | None = None) -> dict:
    """Simulate the correction variants from one initial error and score them.

    Returns a dict with one entry per variant: trajectory rows
    (k, t, x_e, y_e, theta_e, v, omega, correction) and metrics
    (integrated squared position error, peak |v|, control energy,
    settling step of the position errors into 0.01, settling step of the
    full error norm, divergence flag). The plant is either the
    first-order closed loop or the integrated plant under held inputs.
    """
    cfg = _merge_config(_DEFAULT_COMPARISON, config or {})
    T = float(cfg["T"])
    if cfg["plant"] not in ("euler", "exact-proxy"):
        raise ValueError("plant must be 'euler' or 'exact-proxy'")
    refs = _refs_from_config(cfg, T)
    g = cfg["gains"]
    alpha_y = (2.0 - T) if g.get("alpha_y") is None else float(g["alpha_y"])
    steps = horizon_index(float(cfg["horizon_s"]), T)
    x0 = np.asarray(cfg["initial_error"], dtype=float)
    bad_norm = float(cfg["divergence_norm"])

    out = {"config": cfg, "variants": {}}
    for variant in cfg["variants"]:
        gains = ControllerGains(float(g["a1"]), float(g["a2"]), alpha_y, variant,
                                float(g.get("scaled_factor", 0.5)))
        states, diverged, first_bad = _simulate_variant(refs, gains, T, x0, steps,
                                                        cfg["plant"], bad_norm)
        rows, metrics = _score_variant(states, refs, gains, T, diverged, first_bad)
        out["variants"][variant] = {"rows": rows, "metrics": metrics}
    return out


def _simulate_variant(refs, gains, T, x0, steps, plant, bad_norm):
    """States before the first divergent step (norm above `bad_norm` or not
    finite), the divergence flag and that step."""
    if plant == "euler":
        step = _stacked_step(closed_loop_euler_cascade(refs, gains))
        states = rollout(step, T, 0, x0, steps)[0][:, 0]
    else:
        pmap = exact_proxy_map(error_dynamics_field(refs), controller_callable(refs, gains))
        rows = [x0]
        s = x0.copy()
        for k in range(steps):
            try:
                s = np.asarray(pmap.step(T, k, s), dtype=float)
            except IntegrationError:
                s = np.full_like(x0, np.nan)  # a failed step diverges
            rows.append(s)
            if not np.all(np.isfinite(s)):
                break
        states = np.array(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~(np.linalg.norm(states, axis=1) <= bad_norm)
    if np.any(bad):
        first_bad = int(np.argmax(bad))
        return states[:first_bad], True, first_bad
    return states, False, None


def _score_variant(states, refs, gains, T, diverged, first_bad):
    n = len(states)
    ks = np.arange(n)
    v = np.empty(n)
    w = np.empty(n)
    vth = np.empty(n)
    for k in range(n):
        vk, wk, tk = _control_values(T, k, states[k, 0], states[k, 1], states[k, 2],
                                     refs, gains)
        v[k], w[k], vth[k] = vk, wk, np.asarray(tk, dtype=float)
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
