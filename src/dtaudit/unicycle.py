"""Tracking case study for a kinematic unicycle.

Everything revolves around the error dynamics in the vehicle frame, a
sampled tracking controller with an optional T-scaled correction input,
and the V / W / U Lyapunov chain whose constants are computed (and
validity-flagged) rather than assumed.

Two presets, in the table `_PRESETS`, are first class. The "demo" preset
has the large gains of the published simulations; its chain constants
come out invalid, which the audits report rather than hide. The
"validated" preset has small reference bounds for which every constant
is positive and all audits run.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cascade import CascadeSystem, _k_probes, _rollout_chunks, _stacked_step
from .discretize import VectorField, exact_proxy_map
# perfbench/layers.py wraps the map builder under this name on this module
from .discretize import euler_map  # noqa: F401
from ._integrate import IntegrationError
from .numerics import _BLOCK, ClassKFunction, _norm, horizon_index
from .stability import LyapunovCandidate, PreconditionError, _LyapunovChecks
from .verdict import _SLACK, StabilityVerdict, Witness, _first_violation, _one_step, _plain

__all__ = [
    "ReferenceSignal",
    "ControllerGains",
    "CaseStudyConstants",
    "CorrectionDomainError",
    "check_pe",
    "pe_window_sums",
    "error_dynamics_field",
    "redesign_correction",
    "closed_loop_euler_cascade",
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
    difference quotient of omega_r over the audited horizon. `period` is
    the reference period in seconds: the excitation check and the
    Lyapunov chain audit one period of start indices, and the error
    dynamics and closed loop built on the references declare it as the
    period of their time variation.

    The decay-weighted excitation S(k) of each period is summed once, into
    a table that `_energy_profile` extends and serves.
    """

    v_r: callable
    omega_r: callable
    w_M: float
    period: float = math.tau
    _energy: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def period_steps(self, T: float) -> int:
        """Steps of period T that cover one reference period: ceil(period / T)."""
        return int(math.ceil(self.period / T))


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


def _ref(signal, t):
    """A reference at time t, or at the times of a per-row step index k,
    as a float array."""
    return np.asarray(signal(t), dtype=float)


def _cube(w):
    """w ** 3 in Python float arithmetic, for every shape of w: numpy's array
    power differs from it in the last bit on some values, which would make
    an array-k step differ from the int-k steps of its rows."""
    w = np.asarray(w, dtype=float)
    return np.array([v ** 3 for v in w.ravel().tolist()]).reshape(w.shape)


def _correction_coefficients(w, gains: ControllerGains, T: float):
    """x_e and y_e coefficients of the correction numerator, and its
    denominator, at reference turn rate w = omega_r(kT)."""
    eps = gains.alpha_y + T
    a2 = gains.a2
    cx = a2 * a2 + w * w - eps * a2 * w * w
    cy = 2.0 * a2 * w - eps * _cube(w)
    den = 2.0 * (1.0 - a2 * T) + eps * w * w * T
    return cx, cy, den


def _correction(variant: str, factor: float, x_e, y_e, cx, cy, den):
    """The correction input of a variant: zero for "none", factor times the
    numerator cx x_e - cy y_e for "scaled", the quotient by den for "full"."""
    if variant == "none":
        return np.zeros_like(x_e, dtype=float)
    num = cx * x_e - cy * y_e
    return factor * num if variant == "scaled" else num / den


_DEN_TOL = 1e-12  # a correction denominator smaller than this in size has vanished


def _check_denominator(k, T: float, den) -> None:
    """Raise CorrectionDomainError at the first entry, in C order, whose
    denominator vanished; for a (B, 1) column k, the first k of the block."""
    bad = np.abs(den) < _DEN_TOL
    if bad.any():
        bad, k, den = np.broadcast_arrays(bad, k, den)
        i = int(np.argmax(bad))
        raise CorrectionDomainError(k.flat[i], T, float(den.flat[i]))


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
    cx, cy, den = _correction_coefficients(_ref(refs.omega_r, k * T), gains, T)
    _check_denominator(k, T, den)
    return _correction("full", gains.correction_factor, x_e, y_e, cx, cy, den)


def _control_values(T: float, k, x_e, y_e, th_e, refs: ReferenceSignal,
                    gains: ControllerGains):
    """Shared controller arithmetic so every caller gets identical floats."""
    wr = _ref(refs.omega_r, k * T)
    vr = _ref(refs.v_r, k * T)
    w = wr + gains.a1 * th_e
    cx, cy, den = _correction_coefficients(wr, gains, T)
    if gains.use_correction == "full":
        _check_denominator(k, T, den)
    vth = _correction(gains.use_correction, gains.correction_factor, x_e, y_e, cx, cy, den)
    v = vr + gains.a2 * x_e + T * vth
    return v, w, vth


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

    return VectorField(3, 2, rhs, refs.period)


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
    exact: theta(k+1) = (1 - T*a1) * theta(k). `f` and `g` carry the chunk
    stepper of the stacked (x, z) state as `stacked_chunk`: per chunk it
    reads the table and runs `g` with its w, cos and sin, and per step it
    makes only `f`'s (x_e, y_e) update.
    """
    a1, a2, variant = gains.a1, gains.a2, gains.use_correction
    factor = gains.correction_factor
    tables = {}  # T -> (5, n) rows omega_r, v_r, cx, cy, den at k = 0..n-1

    def table(T, k, steps=1):
        """The table of period T, built or doubled until it covers k + steps - 1."""
        if isinstance(T, np.ndarray):
            raise ValueError("the closed loop's f, g and chunk stepper need a float T")
        lo, hi = (k.min(initial=0), k.max(initial=0)) if isinstance(k, np.ndarray) else (k, k)
        hi = hi + steps - 1
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

    def heading(T, wr, th):
        """theta at k + 1 and w = omega_r + a1 theta at k, from omega_r(kT)."""
        w = wr + a1 * th
        return th + T * (wr - w), w

    def advance(T, x, w, vr, vc, vs, cx, cy, den, out):
        """(x_e, y_e) at k + 1 into out[..., :2]; vc, vs: v_r cos, v_r sin of theta."""
        x_e, y_e = x[..., 0], x[..., 1]
        # "none" still adds its zeros: they turn a -0.0 of v into 0.0, as the composed map does
        v = vr + a2 * x_e + T * _correction(variant, factor, x_e, y_e, cx, cy, den)
        np.add(x_e, T * (w * y_e - v + vc), out=out[..., 0])
        np.add(y_e, T * (-w * x_e + vs), out=out[..., 1])
        return out

    def f(T, k, x, z):
        x = np.asarray(x, dtype=float)
        th_e = np.asarray(z, dtype=float)[..., 0]
        wr, vr, cx, cy, den = table(T, k).take(k, axis=1)
        if variant == "full":
            _check_denominator(k, T, den)
        return advance(T, x, wr + a1 * th_e, vr, vr * np.cos(th_e), vr * np.sin(th_e),
                       cx, cy, den, np.empty(x.shape))

    def g(T, k, z):
        th = np.asarray(z, dtype=float)[..., 0]
        return heading(T, table(T, k)[0].take(k), th)[0][..., None]

    def chunk(T, k, Y, out):
        n, k = len(out), np.broadcast_to(k, len(Y))
        w, vr, cx, cy, den = table(T, k, n).take(np.arange(n)[:, None] + k, axis=1)
        th = np.repeat(Y[None, :, 2], n + 1, axis=0)
        for i in range(n):  # g, leaving w where omega_r was
            th[i + 1], w[i] = heading(T, w[i], th[i])
        out[:, :, 2] = th[1:]
        vc = vr * np.cos(th[:-1])
        vs = np.multiply(vr, np.sin(th[:-1], out=th[:-1]), out=th[:-1])
        x = Y
        for i in range(n):
            x = advance(T, x, w[i], vr[i], vc[i], vs[i], cx[i], cy[i], den[i], out[i])
        hit = np.abs(den) < _DEN_TOL
        if variant == "full" and hit.any():  # the first one of a row still live there
            hit[1:] &= np.logical_and.accumulate(np.isfinite(out[:-1]).all(axis=2), axis=0)
            for i, r in np.argwhere(hit)[:1]:
                raise CorrectionDomainError(k[r] + i, T, den[i, r])
        return out

    f.stacked_chunk = g.stacked_chunk = chunk
    T_max = (1.0 - 1e-12) / max(a1, a2)
    return CascadeSystem(2, 1, f, g, T_max, refs.period)


# --- persistency of excitation --------------------------------------


def pe_window_sums(refs: ReferenceSignal, T: float, L: float, j_max: int) -> np.ndarray:
    """Sliding-window energies T * sum of omega_r(kT)^2 over inclusive windows."""
    ell = horizon_index(L, T)
    k = np.arange(0, j_max + ell + 2)
    w2 = np.asarray(refs.omega_r(k * T), dtype=float) ** 2
    csum = np.concatenate([[0.0], np.cumsum(w2)])
    j = np.arange(j_max + 1)
    return T * (csum[j + ell + 1] - csum[j])


def check_pe(refs: ReferenceSignal, L: float, mu: float, T_list) -> StabilityVerdict:
    """Check the sliding-window excitation bound over one reference period.

    Passes when every window start j = 0..ceil(period / T) satisfies
    T * sum_{k=j}^{j+ell} omega_r(kT)^2 >= mu. The witness initial state
    holds the start time of the failing window.
    """
    if not (L > 0.0 and mu > 0.0):
        raise ValueError("need L > 0 and mu > 0")
    worst = math.inf
    for T in sorted(float(t) for t in T_list):
        P = refs.period_steps(T)
        vals = pe_window_sums(refs, T, L, P)
        worst = min(worst, float(np.min(vals)))
        bad = _first_violation((vals >= mu - _SLACK,
                                lambda j: Witness.of(T, j, (j * T,), j, vals[j], mu),
                                "excitation window below the required level"))
        if bad is not None:
            return bad
    return StabilityVerdict.ok("excitation bound holds on all sampled windows",
                               min_window_sum=worst)


# --- Lyapunov chain ---------------------------------------------------


def lyap_V(k: int, x_e, y_e, refs: ReferenceSignal, gains: ControllerGains, T: float):
    """Quadratic with a reference-weighted cross term, eps = alpha_y + T."""
    out = _V_form(gains.alpha_y + T, float(refs.omega_r((k - 1) * T)),
                  np.asarray(x_e, dtype=float), np.asarray(y_e, dtype=float))
    return out if out.ndim else float(out)


def _V_form(eps, wm1, x_e, y_e):
    """V's quadratic at cross weight eps * wm1, wm1 = omega_r((k - 1) T): a
    float, or a (B, 1) column of them against (B, rows) states."""
    return x_e * x_e + y_e * y_e - eps * wm1 * x_e * y_e


def lyap_V_bounds(gains: ControllerGains, w_M: float, T_star: float) -> tuple[float, float, bool]:
    """Sandwich constants (c1, c2) for the cross-term quadratic; flag is c1 > 0."""
    eps = gains.alpha_y + T_star
    c1 = 1.0 - 0.5 * eps * w_M
    c2 = 1.0 + 0.5 * eps * w_M
    return c1, c2, c1 > 0.0


# the truncated tail of S(k), below 2 w_M^2 e^{-NT}, stays under this
_TAIL_TOL = 1e-12


def _energy_profile(refs: ReferenceSignal, T: float, k_lo: int, k_hi: int) -> np.ndarray:
    """S(k) = sum_{i=k}^{k+N} e^{(k-i)T} omega_r(iT)^2 for k = k_lo..k_hi,
    read from the reference's table for period T.

    N is set by `_TAIL_TOL`. Every S(k) sums the same N + 1 products in the
    same order, so its bits do not depend on the range it is summed in: the
    table sums only the new range, at least doubling it, when a larger k
    arrives, and a summed range is never written to.
    """
    if k_lo < 0:
        raise ValueError("step index must be nonnegative")
    tab = refs._energy.get(T, np.empty(0))
    if len(tab) <= k_hi:
        lo, hi = len(tab), max(k_hi, 2 * len(tab), 63)
        N = int(math.ceil(math.log(2.0 * refs.w_M * refs.w_M / _TAIL_TOL) / T))
        i = np.arange(lo, hi + N + 1)
        decay = np.exp((lo - i[:N + 1]) * T)
        w2 = np.asarray(refs.omega_r(i * T), dtype=float) ** 2
        tab = np.concatenate([tab, [np.sum(decay * w2[j:j + N + 1]) for j in range(hi - lo + 1)]])
        tab.flags.writeable = False
        refs._energy[T] = tab
    return tab[k_lo:k_hi + 1]


def lyap_W(k: int, y_e, refs: ReferenceSignal, T: float):
    """Decay-weighted future excitation S(k) times -T y_e^2."""
    S = float(_energy_profile(refs, T, k, k)[0])
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
        return _plain(asdict(self))


def _chain_grid(grid_n: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    g = np.linspace(-radius, radius, grid_n)
    X, Y = np.meshgrid(g, g, indexing="ij")
    X, Y = X.ravel(), Y.ravel()
    keep = (X != 0.0) | (Y != 0.0)
    return X[keep], Y[keep]


def _chain_pass(refs: ReferenceSignal, gains: ControllerGains, T: float, X, Y, k_hi: int):
    """One pass over the chain: step the full-correction closed loop from
    the grid (X, Y) at zero heading error for k = 0..k_hi, one block of
    step indices per closed-loop call.

    Yields blocks (ks, w, V, Vn, TS, W, Wn) of about `_BLOCK` elements: the
    block's step indices ks, the column w = omega_r(kT), V at k on the grid
    and at k + 1 on its step (a row per k), the column TS = T S(k), and
    W = -T S y^2 at k and k + 1. The omega_r values are scalar calls, as
    `lyap_V` makes them, so every row has the bits of its k alone.
    """
    fstep = closed_loop_euler_cascade(refs, replace(gains, use_correction="full")).f
    pts = np.stack([X, Y], axis=-1)
    z0 = np.zeros((1, 1, 1))
    eps = gains.alpha_y + T
    S = _energy_profile(refs, T, 0, k_hi + 1)
    # om[k + 1] = omega_r(kT) for k = -1..k_hi
    om = np.array([float(refs.omega_r(k * T)) for k in range(-1, k_hi + 1)])
    B = max(1, _BLOCK // len(X))
    for k0 in range(0, k_hi + 1, B):
        ks = np.arange(k0, min(k0 + B, k_hi + 1))
        out = fstep(T, ks[:, None], np.broadcast_to(pts, (len(ks),) + pts.shape), z0)
        Xn, Yn = out[..., 0], out[..., 1]
        w, TS = om[ks + 1, None], T * S[ks, None]
        yield (ks, w, _V_form(eps, om[ks, None], X, Y), _V_form(eps, w, Xn, Yn),
               TS, -TS * Y * Y, -T * S[ks + 1, None] * Yn * Yn)


def compute_case_constants(refs: ReferenceSignal, gains: ControllerGains, T_star: float,
                           L_pe: float, grid_n: int = 41, radius: float = 5.0,
                           k_max: int | None = None) -> CaseStudyConstants:
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
    for _, w, V, Vn, _, W, Wn in _chain_pass(refs, gains, T, X, Y, k_hi):
        dV = (Vn - V) / T
        K1_req = max(K1_req, float(((dV + aX2 + gains.alpha_y * w * w * Y * Y) / Tn2).max()))
        resid = (Wn - W) / T - w * w * Y * Y + aY2
        K2_req = max(K2_req, float((resid[:, mask] / X2m).max()))
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
    """Combined function U = V + eps_small * W, the U every audit of the chain
    evaluates; requires all constants valid."""
    bad = constants.first_violated()
    if bad is not None:
        raise PreconditionError(f"constant flag violated: {bad}")
    x = np.asarray(x, dtype=float)
    x_e, y_e = x[..., 0], x[..., 1]
    return lyap_V(k, x_e, y_e, refs, gains, T) + constants.eps_small * lyap_W(k, y_e, refs, T)


def _U_step(block, eps_small: float):
    """U = V + eps_small W at k on a `_chain_pass` block, and U at k + 1 on
    the step minus U, in `lyap_U`'s operation order."""
    _, _, V, Vn, _, W, Wn = block
    U = V + eps_small * W
    return U, Vn + eps_small * Wn - U


class _ChainChecks:
    """The per-k checks of `audit_lyapunov_chain` on one grid, in its order,
    with its running margins.

    `check` takes one `_chain_pass` block, so `audit_lyapunov_chain` and a
    caller with its own pass over the same grid drive the same checks. Once
    a check has falsified, `falsified` holds its verdict and `check` does
    nothing.
    """

    def __init__(self, gains: ControllerGains, constants: CaseStudyConstants, T: float, X, Y):
        bad = constants.first_violated()
        if bad is not None:
            raise PreconditionError(f"constant flag violated: {bad}")
        c = self.c = constants
        self.alpha_y, self.T, self.Y = gains.alpha_y, T, Y
        self.pts = np.stack([X, Y], axis=-1)
        self.n2 = n2 = X * X + Y * Y
        # the k-free bounds, formed once
        self.lo_V, self.hi, self.lo_U, self.rhsU = (c.c1 * n2, c.c2 * n2, c.c1 / 2.0 * n2,
                                                    -c.c3_tilde * n2)
        self.aX2, self.K1n2 = c.alpha_x * X * X, T * c.K1 * n2
        self.aY2, self.K2X2 = c.alpha_y_tilde * Y * Y, c.K2 * X * X
        # the W sandwich c4 <= T*S(k) <= c3, upper side first, is witnessed at the first state
        self.W_at, self.W_bound = self.pts[[0, 0]], np.array([c.c3, c.c4])
        self.margins = {"V_decrease": math.inf, "W_decrease": math.inf, "U_decrease": math.inf,
                        "V_lo": math.inf, "V_hi": -math.inf, "U_lo": math.inf, "U_hi": -math.inf,
                        "W_sandwich_lo": math.inf, "W_sandwich_hi": -math.inf}
        self.falsified = None

    def check(self, block, U, dU) -> None:
        """Check the chain on a `_chain_pass` block, given its `_U_step`.

        The witness is that of the first k at which a check fails, with the
        checks taken in order at that k.
        """
        if self.falsified is not None:
            return
        c, T, pts, Y = self.c, self.T, self.pts, self.Y
        ks, w, V, Vn, TS, W, Wn = block
        dV = (Vn - V) / T
        rhsV = -(self.aX2 + self.alpha_y * w * w * Y * Y) + self.K1n2
        dW = (Wn - W) / T
        rhsW = w * w * Y * Y - self.aY2 + self.K2X2
        dU = dU / T
        ratioV, ratioU = V / self.n2, U / self.n2
        rhsU = self.rhsU
        checks = (
            (ratioV >= c.c1 - _SLACK, pts, V, self.lo_V, "V lower sandwich violated"),
            (ratioV <= c.c2 + _SLACK, pts, V, self.hi, "V upper sandwich violated"),
            (dV <= rhsV + _SLACK, pts, dV, rhsV, "V decrease violated"),
            (np.concatenate([TS <= c.c3 + _SLACK, TS >= c.c4 - _SLACK], axis=1), self.W_at,
             np.broadcast_to(TS, (len(ks), 2)), self.W_bound, "W sandwich violated"),
            (dW <= rhsW + _SLACK, pts, dW, rhsW, "W decrease violated"),
            (ratioU >= c.c1 / 2.0 - _SLACK, pts, U, self.lo_U, "U lower sandwich violated"),
            (ratioU <= c.c2 + _SLACK, pts, U, self.hi, "U upper sandwich violated"),
            (dU <= rhsU + _SLACK, pts, dU, rhsU, "U decrease violated"))
        self.falsified = _first_violation(*(_one_step(ok, T, ks, *rest) for ok, *rest in checks))
        if self.falsified is not None:
            return

        margins = self.margins
        for key, val in (("V_lo", ratioV), ("V_decrease", rhsV - dV), ("W_sandwich_lo", TS),
                         ("W_decrease", rhsW - dW), ("U_lo", ratioU), ("U_decrease", rhsU - dU)):
            margins[key] = min(margins[key], float(val.min()))
        for key, val in (("V_hi", ratioV), ("W_sandwich_hi", TS), ("U_hi", ratioU)):
            margins[key] = max(margins[key], float(val.max()))

    def result(self) -> StabilityVerdict:
        """The falsified verdict, or the pass with the margins so far."""
        if self.falsified is not None:
            return self.falsified
        return StabilityVerdict("pass", None, "Lyapunov chain holds on the grid", self.margins)


def audit_lyapunov_chain(refs: ReferenceSignal, gains: ControllerGains,
                         constants: CaseStudyConstants, T: float,
                         grid_n: int = 41, radius: float = 5.0,
                         k_max: int | None = None) -> StabilityVerdict:
    """Pointwise audit of the whole inequality chain on the state grid.

    Checks, for every grid state and step index: the V sandwich, the
    V-decrease with the fitted K1, the W sandwich, the W-decrease with
    the fitted K2, the U sandwich, and the U-decrease at rate c3_tilde.
    Any violation falsifies with the exact sample.
    """
    X, Y = _chain_grid(grid_n, radius)
    checks = _ChainChecks(gains, constants, T, X, Y)
    k_hi = refs.period_steps(T) if k_max is None else int(k_max)
    for block in _chain_pass(refs, gains, T, X, Y, k_hi):
        checks.check(block, *_U_step(block, constants.eps_small))
        if checks.falsified is not None:
            break
    return checks.result()


def _lyap_U_candidate(refs, gains, consts) -> LyapunovCandidate:
    """`lyap_U` with the comparison functions its constant chain gives."""
    return LyapunovCandidate(
        eval=lambda T, k, x: np.asarray(lyap_U(int(k), x, refs, gains, consts, T), dtype=float),
        alpha1=ClassKFunction.power(consts.c1 / 2.0, 2.0),
        alpha2=ClassKFunction.power(consts.c2, 2.0),
        alpha3=ClassKFunction.power(consts.c3_tilde, 2.0),
        L_mod=ClassKFunction.linear(2.0 * (consts.c2 + consts.eps_small * consts.c3)),
    )


def _audit_pass(refs, gains, consts, T, grid_n, radius, margin_rows):
    """The audits of `lyapunov-audit` from one chain pass over the period.

    Each block of the chain pass feeds the chain checks, the definition-style
    checks of U = V + eps_small W, the decrease margins at the probe indices
    (with `margin_rows`) and the decrease profile at every seventh k, which
    share one U and one U(k + 1) - U(k). U at k and at k + 1 on the step are
    the bits of `lyap_U`: (-T) S = -(T S), and both read S(k) from the
    reference's table.
    Returns the chain and definition verdicts, the margin rows (none if a
    probe index fails its checks) and the profile rows (k, t, min margin).
    """
    X, Y = _chain_grid(grid_n, radius)
    pts = np.stack([X, Y], axis=-1)
    cand = _lyap_U_candidate(refs, gains, consts)
    chain = _ChainChecks(gains, consts, T, X, Y)
    definition = _LyapunovChecks(cand, pts, 0.0)
    probe = _LyapunovChecks(cand, pts, 0.0, collect_margins=True)
    k_hi = refs.period_steps(T)
    is_probe = np.zeros(k_hi + 1, dtype=bool)
    is_probe[_k_probes(T, refs.period) if margin_rows else []] = True
    rate = -consts.c3_tilde * np.sum(pts ** 2, axis=-1)
    prof = []
    for block in _chain_pass(refs, gains, T, X, Y, k_hi):
        ks = block[0]
        U, dU = _U_step(block, consts.eps_small)
        chain.check(block, U, dU)
        definition.check(T, ks, U, lambda: dU)
        at = is_probe[ks]
        if at.any():
            probe.check(T, ks[at], U[at], lambda: dU[at])
        at = ks % 7 == 0
        prof += [(k, k * T, m) for k, m in zip(ks[at].tolist(),
                                               np.min(rate - dU[at] / T, axis=1).tolist())]
    return chain.result(), definition.result(), probe.result().margins.get("rows", []), prof


# --- reference presets ------------------------------------------------


# name -> (reference spec, gains spec), in the schema of the `refs` and
# `gains` configs of the experiments; an alpha_y of None stands for 2 - T
_PRESETS = {
    # the published simulations: large, fast angular excitation
    "demo": ({"vr": 1.0, "wr": {"kind": "sin", "amplitude": 20.0, "frequency": 1.0}},
             {"a1": 10.0, "a2": 70.0, "alpha_y": None, "scaled_factor": 0.5}),
    # small reference bounds, for which the whole constant chain is positive
    "validated": ({"vr": 0.5, "wr": {"kind": "sin", "amplitude": 0.5, "frequency": 1.0}},
                  {"a1": 1.0, "a2": 5.0, "alpha_y": 0.1, "scaled_factor": 0.5}),
}


def _refs_from_spec(spec: dict) -> ReferenceSignal:
    """The reference signal of a spec: v_r = vr, and omega_r = amplitude *
    sin(frequency t) for kind "sin" or the constant amplitude for "const".

    The uniform bound w_M dominates |v_r|, |omega_r| and the difference
    quotient of omega_r: the amplitude times max(1, frequency) for `sin`.
    """
    vr0, wr = spec["vr"], spec["wr"]
    amp, freq = wr["amplitude"], wr["frequency"]
    if wr["kind"] == "sin":
        if not freq > 0.0:
            raise ValueError(f"bad reference: frequency must be positive, got {freq}")
        omega_r = lambda t: amp * np.sin(freq * np.asarray(t))
        w_M, period = max(abs(vr0), abs(amp) * max(1.0, freq)), math.tau / freq
    elif wr["kind"] == "const":
        omega_r = lambda t: amp + 0.0 * np.asarray(t)
        w_M, period = max(abs(vr0), abs(amp)), math.tau
    else:
        raise ValueError(f"bad reference kind {wr['kind']!r}")
    return ReferenceSignal(lambda t: vr0 + 0.0 * np.asarray(t), omega_r, w_M, period)


def _gains_from_spec(g: dict, T: float, use_correction: str) -> ControllerGains:
    """The controller gains of a gains spec at period T."""
    alpha_y = 2.0 - T if g["alpha_y"] is None else g["alpha_y"]
    return ControllerGains(g["a1"], g["a2"], alpha_y, use_correction, g["scaled_factor"])


def _preset(name: str, T: float, use_correction: str = "full"):
    """References and gains of the preset `name` at period T."""
    refs, gains = _PRESETS[name]
    return _refs_from_spec(refs), _gains_from_spec(gains, T, use_correction)


def demo_references() -> ReferenceSignal:
    """Published simulation references: large, fast angular excitation."""
    return _refs_from_spec(_PRESETS["demo"][0])


def demo_gains(T: float = 0.01, use_correction: str = "none") -> ControllerGains:
    """Published simulation gains; chain constants are invalid here."""
    return _preset("demo", T, use_correction)[1]


def validated_references(T: float = 0.01) -> ReferenceSignal:
    """Small-bound references, with the whole constant chain positive (T does not enter)."""
    return _refs_from_spec(_PRESETS["validated"][0])


def validated_gains(use_correction: str = "full") -> ControllerGains:
    return _gains_from_spec(_PRESETS["validated"][1], 0.0, use_correction)


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

    # the states after the first divergent step are dropped, so the
    # rollout stops after the chunk that holds it
    chunks = []
    for i0, states, _, _ in _rollout_chunks(step, T, 0, x0, steps):
        chunks.append(states[:, 0])
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~(_norm(states[:, 0]) <= bad_norm)
        if np.any(bad):
            first_bad = i0 + int(np.argmax(bad))
            return np.concatenate(chunks)[:first_bad], True, first_bad
    return np.concatenate(chunks), False, None


def _score_variant(states, refs, gains, T, diverged, first_bad):
    """Trajectory rows and metrics of one variant. A variant that diverged
    at its initial error has no state to score: its peak |v|, settling
    steps and final norm are None."""
    ks = np.arange(len(states))
    v, w, vth = _control_values(T, ks, states[:, 0], states[:, 1], states[:, 2], refs, gains)
    rows = np.column_stack([ks, ks * T, states, v, w, vth])
    pos = np.linalg.norm(states[:, :2], axis=1)
    full = np.linalg.norm(states, axis=1)
    scored = len(states) > 0
    metrics = {
        "ise_position": float(T * np.sum(pos ** 2)),
        "peak_v": float(np.max(np.abs(v))) if scored else None,
        "control_energy": float(T * np.sum(v ** 2)),
        "settle_step_position": _settle_step(pos, 0.01) if scored else None,
        "settle_step_full": _settle_step(full, 0.01) if scored else None,
        "final_norm": float(full[-1]) if scored else None,
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
