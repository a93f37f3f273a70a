"""Comparison-function algebra shared by every audit.

Class-K and KL comparison functions are kept in small parametric
families so that shifting, composing and envelope fitting stay
closed-form. Audits consume them as plain callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._integrate import adaptive_simpson
from .verdict import _SLACK

__all__ = [
    "ClassKFunction",
    "KLBound",
    "EnvelopeFalsified",
    "horizon_index",
    "kl_shift",
    "kl_compose",
    "fit_kl_envelope",
]


class EnvelopeFalsified(RuntimeError):
    """No envelope in the search grid dominates every trajectory sample."""

    def __init__(self, witness):
        traj_id, k = witness
        super().__init__(f"no (M, lam) in the search grid works; worst sample: trajectory {traj_id}, k={k}")
        self.witness = witness


@dataclass(frozen=True)
class ClassKFunction:
    """Scalar comparison function on the nonnegative reals.

    Kinds:
      linear            gain * s
      power             gain * s**exponent
      affine-capped     min(offset + gain * s, cap); offset > 0 gives a
                        class-N (nondecreasing, not zero at zero) function
      integral-reciprocal  s -> int_0^s q, q = 1/phi(max(tau,1)) for a stored
                        class-K_inf phi; produced by the boundedness
                        certificate builder, closed form below s=1 and
                        adaptive Simpson above

    Class-K membership (zero at zero, strictly increasing) holds for the
    parametric kinds whenever gain > 0 and offset == 0.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("linear", "power", "affine-capped", "integral-reciprocal"):
            raise ValueError(f"unknown kind {self.kind!r}")

    # --- constructors -------------------------------------------------
    @classmethod
    def linear(cls, gain: float) -> "ClassKFunction":
        return cls("linear", {"gain": float(gain)})

    @classmethod
    def power(cls, gain: float, exponent: float) -> "ClassKFunction":
        return cls("power", {"gain": float(gain), "exponent": float(exponent)})

    @classmethod
    def affine_capped(cls, offset: float, gain: float, cap: float = math.inf) -> "ClassKFunction":
        return cls("affine-capped", {"offset": float(offset), "gain": float(gain), "cap": float(cap)})

    @classmethod
    def identity(cls) -> "ClassKFunction":
        return cls.linear(1.0)

    # --- evaluation ----------------------------------------------------
    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        p = self.params
        if self.kind == "linear":
            out = p["gain"] * s
        elif self.kind == "power":
            out = p["gain"] * np.power(s, p["exponent"])
        elif self.kind == "affine-capped":
            out = np.minimum(p["offset"] + p["gain"] * s, p["cap"])
        else:
            out = _integral_reciprocal_eval(p["phi"], s)
        return out if out.ndim else float(out)


def _integral_reciprocal_eval(phi: ClassKFunction, s: np.ndarray) -> np.ndarray:
    """rho(s) = int_0^s 1/phi(max(tau, 1)) dtau, vectorized with closed forms
    for the parametric phi kinds and adaptive Simpson otherwise."""
    s = np.asarray(s, dtype=float)
    sv = np.atleast_1d(s)
    below = np.minimum(sv, 1.0) / float(phi(1.0))
    above = np.zeros_like(sv)
    mask = sv > 1.0
    if np.any(mask):
        sv = sv[mask]
        if phi.kind == "power" and phi.params["exponent"] != 1.0:
            g, pexp = phi.params["gain"], phi.params["exponent"]
            above[mask] = (np.power(sv, 1.0 - pexp) - 1.0) / (g * (1.0 - pexp))
        elif phi.kind in ("linear", "power"):  # gain * s, as a power with exponent 1
            above[mask] = np.log(sv) / phi.params["gain"]
        else:
            above[mask] = [float(adaptive_simpson(lambda tau: 1.0 / phi(tau), 1.0, float(v),
                                                  tol=1e-10)) for v in sv]
    return (below + above).reshape(s.shape)


@dataclass(frozen=True)
class KLBound:
    """Two-argument bound beta(s, t), nondecreasing in s and decaying in t.

    Forms:
      exp          M * s * exp(-lam * t), M >= 1, lam > 0
      composite    the cascade composition of three shifted bounds and a
                   gain (see `kl_compose`); kept structurally because the
                   composition leaves the parametric family
    """

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form == "exp":
            if not (self.params["M"] >= 1.0 and self.params["lam"] > 0.0):
                raise ValueError("exp form needs M >= 1 and lam > 0")
        elif self.form != "composite":
            raise ValueError(f"unknown form {self.form!r}")

    @classmethod
    def exponential(cls, M: float, lam: float) -> "KLBound":
        return cls("exp", {"M": float(M), "lam": float(lam)})

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.form == "exp":
            out = self.params["M"] * s * np.exp(-self.params["lam"] * t)
        else:
            p = self.params
            b1, b2, b3, gamma = p["b1"], p["b2"], p["b3"], p["gamma"]
            c_out, c_in = p["outer_scale"], p["inner_scale"]
            out = (
                c_out * b1(c_in * b1(s, t / 2.0) + c_in * gamma(b2(s, 0.0 * t)), t / 2.0)
                + c_out * gamma(b2(s, t / 2.0))
                + p["tail_scale"] * b3(s, t)
            )
            out = np.asarray(out)
        return out if out.ndim else float(out)

    def to_json(self) -> dict:
        """The `exp` form as written into reports; a composite has no JSON form."""
        if self.form != "exp":
            raise ValueError("only an exp-form KLBound has a JSON form")
        return {"kind": "exp", "params": dict(self.params)}


def horizon_index(L: float, T: float) -> int:
    """Largest integer ell with ell * T <= L, for positive L and T.

    The division is nudged by one part in 1e12 so exact multiples (for
    example L=2.0, T=0.01) are not truncated by one ulp of rounding.
    """
    if not (L > 0.0) or not (T > 0.0):
        raise ValueError("horizon_index needs L > 0 and T > 0")
    ratio = L / T
    return int(math.floor(ratio * (1.0 + 1e-12) + 1e-12))


# Steps per block of trajectory work: the states per chunk of the rollouts,
# and the steps per block of the reductions over a record's norms.
_CHUNK = 128

# Elements (step indices x grid states) per block of a one-step audit's
# pass over the step indices: 4 indices of a 41 x 41 grid, 18 of a 21 x 21.
_BLOCK = 8192


def _norm(x):
    """np.linalg.norm(x, axis=-1), with its bits for a last axis shorter than 8
    (where its sum runs in index order), without its copies of x."""
    s = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        s += x[..., i] * x[..., i]
    return np.sqrt(s)


def _check_period(T, T_max: float) -> None:
    """Reject a sampling period, or an entry of a (rows,) array of them,
    outside (0, T_max] (NaN included)."""
    for t in np.ravel(T).tolist():
        if not (0.0 < t <= T_max):
            raise ValueError(f"T={t} outside admissible range (0, {T_max}]")


def _k_probes(T: float, period: float | None):
    """Start indices spanning one period (in seconds) of a system's time
    variation: 0, 1, P // 2 and P - 1 with P = floor(period / T), or just 0
    for a system whose step ignores k (period None)."""
    if period is None:
        return [0]
    P = max(1, int(math.floor(period / T)))
    return sorted({0, 1, P // 2, P - 1})


def _schedule(T_list, T_max: float, period: float | None, k_set=None):
    """The (T, ks) pairs an audit visits: its periods sorted, each with the
    ints of `k_set`, of `k_set(T)` for a function of the period, or else
    `_k_probes(T, period)`. Rejects an empty `T_list`, a period outside
    (0, T_max] and an empty or negative index set, all before the caller
    makes its first map call."""
    Ts = sorted(float(t) for t in T_list)
    if not Ts:
        raise ValueError("need a nonempty T_list")
    _check_period(Ts, T_max)
    rule = k_set if callable(k_set) else lambda T: _k_probes(T, period) if k_set is None else k_set
    schedule = [(T, [int(k) for k in rule(T)]) for T in Ts]
    if not all(ks and min(ks) >= 0 for _, ks in schedule):
        raise ValueError("k_set must be a nonempty set of nonnegative indices")
    return schedule


def kl_shift(beta: KLBound, c: float) -> KLBound:
    """Return beta_tilde with beta(s, t) <= beta_tilde(s, t + c) for all s, t >= 0,
    for an exp-form beta; a composite raises ValueError, as in `KLBound.to_json`."""
    if c < 0.0:
        raise ValueError("shift must be nonnegative")
    if c == 0.0:
        return beta
    if beta.form != "exp":
        raise ValueError("only an exp-form KLBound can be shifted")
    p = beta.params
    return KLBound.exponential(p["M"] * math.exp(p["lam"] * c), p["lam"])


def kl_compose(beta1: KLBound, beta2: KLBound, beta3: KLBound, gamma: ClassKFunction,
               c: float = 0.0, global_form: bool = False) -> KLBound:
    """Cascade composition of three KL bounds and an interconnection gain.

    Semiglobal form:
        4*b1(2*b1(s, t/2) + 2*gamma(b2(s, 0)), t/2) + 4*gamma(b2(s, t/2)) + 2*b3(s, t)
    with b_i = kl_shift(beta_i, c). The global form drops all scalings.
    """
    b1, b2, b3 = (kl_shift(b, c) for b in (beta1, beta2, beta3))
    if global_form:
        outer, inner, tail = 1.0, 1.0, 1.0
    else:
        outer, inner, tail = 4.0, 2.0, 2.0
    return KLBound(
        "composite",
        {"b1": b1, "b2": b2, "b3": b3, "gamma": gamma,
         "outer_scale": outer, "inner_scale": inner, "tail_scale": tail},
    )


_DEFAULT_M_GRID = tuple(1.25 ** j for j in range(0, 43))  # 1 .. ~1.17e4
_DEFAULT_LAM_GRID = tuple(float(v) for v in np.logspace(-4.0, 1.0, 51))


def _log_M_needed(logn, tau, lam_grid) -> np.ndarray:
    """Per lam, the tightest admissible log M: max(logn + lam * tau).

    For samples sharing one tau, `logn` may hold only their largest
    log-norm ratio (-inf where none is active): fl(a + c) is
    nondecreasing in a, so the maximum is the same. One lam at a time,
    so memory stays at one vector rather than len(lam_grid) of them.
    """
    return np.array([np.max(logn + lam * tau) for lam in lam_grid])


def _log_ratios(norms, norms0, active) -> np.ndarray:
    """log(|phi(k)| - _SLACK) - log(|phi(k0)| = norms0) per sample of (steps,
    rows) norms, -inf at the samples the envelope need not cover."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logn = np.log(norms - _SLACK) - np.log(norms0)
    return np.where(active, logn, -np.inf)


def fit_kl_envelope(trajectories, nu: float = 0.0, M_grid=None, lam_grid=None) -> KLBound:
    """Fit the smallest exponential envelope dominating every trajectory.

    `trajectories` yields `cascade.Trajectory` records, one trajectory
    per column of each. The fit accepts (M, lam) when
    |phi(k)| <= max(M * |phi(k0)| * exp(-lam * (k - k0) * T), nu) + _SLACK
    at every recorded index, the slack of the escape checks that audit it.
    It prefers the smallest M and then the largest lam, and raises
    `EnvelopeFalsified` with a (trajectory, k) witness when no grid point
    works: the trajectory id is the flat (record, column) index and the
    witness the first such sample, taking records in order, then columns,
    then steps. A NaN sample satisfies no envelope, so a trajectory that
    turns NaN is always falsified.
    """
    runs = [run for run in trajectories if run.norms.shape[1]]
    if not runs:
        raise ValueError("need at least one trajectory")
    M_grid = np.asarray(_DEFAULT_M_GRID if M_grid is None else M_grid, dtype=float)
    lam_grid = np.asarray(_DEFAULT_LAM_GRID if lam_grid is None else lam_grid, dtype=float)

    # per record: taus (steps+1,) and the per-step maxima of its log-norm
    # ratios, taken `_CHUNK` steps at a time; only the witness path forms a
    # record's full ratios again
    taus, peaks, ti = [], [], 0
    for run in runs:
        norms = np.asarray(run.norms, dtype=float)
        peak, ever = np.empty(len(norms)), np.zeros(norms.shape[1], dtype=bool)
        for i0 in range(0, len(norms), _CHUNK):
            block = norms[i0:i0 + _CHUNK]
            active = ~(block <= nu + _SLACK)
            ever |= active.any(axis=0)
            peak[i0:i0 + len(block)] = np.max(_log_ratios(block, norms[0], active), axis=1)
        leaves_zero = (norms[0] <= 0.0) & ever
        if leaves_zero.any():
            j = int(np.argmax(leaves_zero))
            raise EnvelopeFalsified((ti + j, run.k0 + int(np.argmax(~(norms[:, j] <= nu + _SLACK)))))
        peaks.append(peak)
        taus.append(np.arange(len(norms)) * run.T)
        ti += norms.shape[1]

    need_max = _log_M_needed(np.concatenate(peaks), np.concatenate(taus), lam_grid)
    logM = np.log(M_grid)
    feasible = need_max[None, :] <= logM[:, None] + 1e-12  # (M, lam)
    if not feasible.any():
        # witness: first sample beating even the loosest envelope (M_max, lam_min);
        # a NaN sample counts as beating it
        lam, ti = float(np.min(lam_grid)), 0
        for run, tau in zip(runs, taus):
            norms = np.asarray(run.norms, dtype=float)
            logn = _log_ratios(norms, norms[0], ~(norms <= nu + _SLACK))
            beats = ~(logn + lam * tau[:, None] - np.max(logM) <= 1e-12).T  # columns, then steps
            if beats.any():
                j, i = np.argwhere(beats)[0]
                raise EnvelopeFalsified((ti + int(j), run.k0 + int(i)))
            ti += len(beats)
    mi = int(np.argmax(feasible.any(axis=1)))
    li = int(np.max(np.nonzero(feasible[mi])[0]))
    return KLBound.exponential(float(M_grid[mi]), float(lam_grid[li]))
