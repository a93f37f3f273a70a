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

__all__ = [
    "ClassKFunction",
    "KLBound",
    "HorizonIndex",
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
      tabulated         monotone interpolation of strictly increasing samples
      integral-reciprocal  s -> int_0^s q, q = 1/phi(max(tau,1)) for a stored
                        class-K_inf phi; produced by the boundedness
                        certificate builder, closed form below s=1 and
                        adaptive Simpson above

    Class-K membership (zero at zero, strictly increasing) holds for the
    parametric kinds whenever gain > 0 and offset == 0; `is_class_k`
    reports it. `k_infinity` marks unbounded growth.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("linear", "power", "affine-capped", "tabulated", "integral-reciprocal"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "tabulated":
            xs = np.asarray(self.params["xs"], dtype=float)
            ys = np.asarray(self.params["ys"], dtype=float)
            if xs.ndim != 1 or xs.shape != ys.shape or len(xs) < 2:
                raise ValueError("tabulated kind needs matching 1-d sample arrays")
            if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
                raise ValueError("tabulated samples must be strictly increasing")

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
    def tabulated(cls, xs, ys) -> "ClassKFunction":
        return cls("tabulated", {"xs": tuple(float(v) for v in xs), "ys": tuple(float(v) for v in ys)})

    @classmethod
    def identity(cls) -> "ClassKFunction":
        return cls.linear(1.0)

    @classmethod
    def zero(cls) -> "ClassKFunction":
        """Degenerate all-zero function (admissible where a gain may vanish)."""
        return cls.linear(0.0)

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
        elif self.kind == "tabulated":
            out = np.interp(s, p["xs"], p["ys"])
        else:
            out = _integral_reciprocal_eval(p["phi"], s)
        return out if out.ndim else float(out)

    def inverse(self, y, with_flag: bool = False):
        """Inverse map; out-of-range queries are clamped (flag reports it)."""
        y = np.asarray(y, dtype=float)
        p = self.params
        clamped = np.zeros(y.shape, dtype=bool)
        if self.kind == "linear":
            if p["gain"] <= 0:
                raise ValueError("inverse undefined for nonincreasing function")
            out = y / p["gain"]
        elif self.kind == "power":
            if p["gain"] <= 0:
                raise ValueError("inverse undefined for nonincreasing function")
            out = np.power(y / p["gain"], 1.0 / p["exponent"])
        elif self.kind == "affine-capped":
            if p["gain"] <= 0:
                raise ValueError("inverse undefined for nonincreasing function")
            top = min(p["cap"], math.inf)
            clamped = (y < p["offset"]) | (y >= top)
            out = np.clip((y - p["offset"]) / p["gain"], 0.0, None)
            if math.isfinite(top):
                out = np.minimum(out, (top - p["offset"]) / p["gain"])
        elif self.kind == "tabulated":
            xs, ys = p["xs"], p["ys"]
            clamped = (y < ys[0]) | (y > ys[-1])
            out = np.interp(y, ys, xs)
        else:
            raise ValueError("inverse not supported for integral-reciprocal kind")
        out = out if out.ndim else float(out)
        if with_flag:
            return out, (clamped if np.ndim(clamped) else bool(clamped))
        return out

    # --- classification ------------------------------------------------
    @property
    def is_class_k(self) -> bool:
        p = self.params
        if self.kind == "linear":
            return p["gain"] > 0
        if self.kind == "power":
            return p["gain"] > 0 and p["exponent"] > 0
        if self.kind == "affine-capped":
            return p["offset"] == 0.0 and p["gain"] > 0
        if self.kind == "tabulated":
            return p["xs"][0] == 0.0 and p["ys"][0] == 0.0
        return True

    @property
    def k_infinity(self) -> bool:
        p = self.params
        if self.kind == "linear":
            return p["gain"] > 0
        if self.kind == "power":
            return p["gain"] > 0 and p["exponent"] > 0
        if self.kind == "affine-capped":
            return p["offset"] == 0.0 and p["gain"] > 0 and not math.isfinite(p["cap"])
        if self.kind == "integral-reciprocal":
            return True  # the defining integral diverges by precondition
        return False

    # --- serialization ---------------------------------------------------
    def to_json(self) -> dict:
        if self.kind == "tabulated":
            return {"kind": self.kind, "params": {"xs": list(self.params["xs"]), "ys": list(self.params["ys"])}}
        if self.kind == "integral-reciprocal":
            return {"kind": self.kind, "params": {"phi": self.params["phi"].to_json()}}
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "ClassKFunction":
        kind, params = obj["kind"], dict(obj["params"])
        if kind == "tabulated":
            return cls.tabulated(params["xs"], params["ys"])
        if kind == "integral-reciprocal":
            return cls("integral-reciprocal", {"phi": ClassKFunction.from_json(params["phi"])})
        return cls(kind, params)


def _integral_reciprocal_eval(phi: ClassKFunction, s: np.ndarray) -> np.ndarray:
    """rho(s) = int_0^s 1/phi(max(tau, 1)) dtau, vectorized with closed forms
    for the parametric phi kinds and adaptive Simpson otherwise."""
    s = np.asarray(s, dtype=float)
    phi1 = float(phi(1.0))
    below = np.minimum(s, 1.0) / phi1
    above = np.zeros_like(s)
    mask = s > 1.0
    if np.any(mask):
        sv = s[mask] if s.ndim else np.asarray([float(s)])
        if phi.kind == "linear":
            g = phi.params["gain"]
            upper = np.log(sv) / g
        elif phi.kind == "power" and phi.params["exponent"] < 1.0:
            g, pexp = phi.params["gain"], phi.params["exponent"]
            upper = (np.power(sv, 1.0 - pexp) - 1.0) / (g * (1.0 - pexp))
        elif phi.kind == "power":  # exponent == 1 passed the precondition
            upper = np.log(sv) / phi.params["gain"]
        else:
            upper = np.array([
                float(adaptive_simpson(lambda tau: 1.0 / phi(tau), 1.0, float(v), tol=1e-10))
                for v in sv
            ])
        if s.ndim:
            above[mask] = upper
        else:
            above = upper[0]
    return below + above


@dataclass(frozen=True)
class KLBound:
    """Two-argument bound beta(s, t), nondecreasing in s and decaying in t.

    Forms:
      exp          M * s * exp(-lam * t), M >= 1, lam > 0
      sigma-kappa  sigma(kappa(s) * exp(shift - t))
      composite    the cascade composition of three shifted bounds and a
                   gain (see `kl_compose`); kept structurally because the
                   composition leaves the two parametric families
    """

    form: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.form == "exp":
            if not (self.params["M"] >= 1.0 and self.params["lam"] > 0.0):
                raise ValueError("exp form needs M >= 1 and lam > 0")
        elif self.form == "sigma-kappa":
            if not isinstance(self.params["sigma"], ClassKFunction) or not isinstance(
                self.params["kappa"], ClassKFunction
            ):
                raise ValueError("sigma-kappa form stores two ClassKFunction values")
        elif self.form != "composite":
            raise ValueError(f"unknown form {self.form!r}")

    @classmethod
    def exponential(cls, M: float, lam: float) -> "KLBound":
        return cls("exp", {"M": float(M), "lam": float(lam)})

    @classmethod
    def sigma_kappa(cls, sigma: ClassKFunction, kappa: ClassKFunction, shift: float = 0.0) -> "KLBound":
        return cls("sigma-kappa", {"sigma": sigma, "kappa": kappa, "shift": float(shift)})

    def __call__(self, s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.form == "exp":
            out = self.params["M"] * s * np.exp(-self.params["lam"] * t)
        elif self.form == "sigma-kappa":
            p = self.params
            out = np.asarray(p["sigma"](p["kappa"](s) * np.exp(p["shift"] - t)))
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
        if self.form == "exp":
            return {"kind": "exp", "params": dict(self.params)}
        if self.form == "sigma-kappa":
            p = self.params
            return {
                "kind": "sigma-kappa",
                "params": {"sigma": p["sigma"].to_json(), "kappa": p["kappa"].to_json(), "shift": p["shift"]},
            }
        p = self.params
        return {
            "kind": "composite",
            "params": {
                "b1": p["b1"].to_json(),
                "b2": p["b2"].to_json(),
                "b3": p["b3"].to_json(),
                "gamma": p["gamma"].to_json(),
                "outer_scale": p["outer_scale"],
                "inner_scale": p["inner_scale"],
                "tail_scale": p["tail_scale"],
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "KLBound":
        kind, params = obj["kind"], obj["params"]
        if kind == "exp":
            return cls.exponential(params["M"], params["lam"])
        if kind == "sigma-kappa":
            return cls.sigma_kappa(
                ClassKFunction.from_json(params["sigma"]),
                ClassKFunction.from_json(params["kappa"]),
                params["shift"],
            )
        return cls(
            "composite",
            {
                "b1": cls.from_json(params["b1"]),
                "b2": cls.from_json(params["b2"]),
                "b3": cls.from_json(params["b3"]),
                "gamma": ClassKFunction.from_json(params["gamma"]),
                "outer_scale": params["outer_scale"],
                "inner_scale": params["inner_scale"],
                "tail_scale": params["tail_scale"],
            },
        )


@dataclass(frozen=True)
class HorizonIndex:
    """Number of whole sampling periods that fit in a time horizon."""

    L: float
    T: float
    value: int

    @classmethod
    def of(cls, L: float, T: float) -> "HorizonIndex":
        return cls(float(L), float(T), horizon_index(L, T))


def horizon_index(L: float, T: float) -> int:
    """Largest integer ell with ell * T <= L, for positive L and T.

    The division is nudged by one part in 1e12 so exact multiples (for
    example L=2.0, T=0.01) are not truncated by one ulp of rounding.
    """
    if not (L > 0.0) or not (T > 0.0):
        raise ValueError("horizon_index needs L > 0 and T > 0")
    ratio = L / T
    return int(math.floor(ratio * (1.0 + 1e-12) + 1e-12))


def kl_shift(beta: KLBound, c: float) -> KLBound:
    """Return beta_tilde with beta(s, t) <= beta_tilde(s, t + c) for all s, t >= 0."""
    if c < 0.0:
        raise ValueError("shift must be nonnegative")
    if c == 0.0:
        return beta
    if beta.form == "exp":
        p = beta.params
        return KLBound.exponential(p["M"] * math.exp(p["lam"] * c), p["lam"])
    if beta.form == "sigma-kappa":
        p = beta.params
        return KLBound.sigma_kappa(p["sigma"], p["kappa"], p["shift"] + c)
    # composite: the half-time slots absorb c/2, the tail slot absorbs c
    p = dict(beta.params)
    p["b1"] = kl_shift(p["b1"], c / 2.0)
    p["b2"] = kl_shift(p["b2"], c / 2.0)
    p["b3"] = kl_shift(p["b3"], c)
    return KLBound("composite", p)


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


def fit_kl_envelope(trajectories, nu: float = 0.0, M_grid=None, lam_grid=None,
                    slack: float = 1e-9) -> KLBound:
    """Fit the smallest exponential envelope dominating every trajectory.

    Each trajectory must expose ``T``, ``k0`` and ``norms`` (see
    `cascade.Trajectory`). The fit accepts (M, lam) when
    |phi(k)| <= max(M * |phi(k0)| * exp(-lam * (k - k0) * T), nu) + slack
    at every recorded index, prefers the smallest M and then the largest
    lam, and raises `EnvelopeFalsified` with a (trajectory, k) witness
    when no grid point works.
    """
    trajs = list(trajectories)
    if not trajs:
        raise ValueError("need at least one trajectory")
    M_grid = np.asarray(_DEFAULT_M_GRID if M_grid is None else M_grid, dtype=float)
    lam_grid = np.asarray(_DEFAULT_LAM_GRID if lam_grid is None else lam_grid, dtype=float)

    taus, lognorms, owners = [], [], []  # owners: (trajectory, absolute k of each sample)
    for ti, traj in enumerate(trajs):
        norms = np.asarray(traj.norms, dtype=float)
        s0 = norms[0]
        ks = np.arange(len(norms))
        active = norms > nu + slack
        if s0 <= 0.0:
            if np.any(active):
                bad = int(ks[active][0])
                raise EnvelopeFalsified((ti, bad + traj.k0))
            continue
        taus.append(ks[active] * traj.T)
        lognorms.append(np.log(norms[active] - slack) - np.log(s0))
        owners.append((ti, ks[active] + traj.k0))
    if not taus:  # every sample sits below nu: the loosest admissible envelope
        return KLBound.exponential(float(M_grid[0]), float(np.max(lam_grid)))

    tau = np.concatenate(taus)
    logn = np.concatenate(lognorms)
    # For each lam the tightest admissible M is exp(max(logn + lam * tau)).
    need = logn[None, :] + lam_grid[:, None] * tau[None, :]
    need_max = np.max(need, axis=1)
    logM = np.log(M_grid)
    feasible = need_max[None, :] <= logM[:, None] + 1e-12  # (M, lam)
    if not feasible.any():
        # witness: first sample beating even the loosest envelope (M_max, lam_min)
        loose = logn + float(np.min(lam_grid)) * tau - np.max(logM)
        bad = np.nonzero(loose > 1e-12)[0]
        flat = int(bad[0]) if len(bad) else int(np.argmax(loose))
        ends = np.cumsum([len(t) for t in taus])
        pos = int(np.searchsorted(ends, flat, side="right"))
        ti, ks_abs = owners[pos]
        raise EnvelopeFalsified((ti, int(ks_abs[flat - (ends[pos] - len(ks_abs))])))
    mi = int(np.argmax(feasible.any(axis=1)))
    li = int(np.max(np.nonzero(feasible[mi])[0]))
    return KLBound.exponential(float(M_grid[mi]), float(lam_grid[li]))
