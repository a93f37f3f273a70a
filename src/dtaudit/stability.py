"""Grid audits of stability definitions and the boundedness certificate.

Every audit returns a `StabilityVerdict`: a pass over the sampled grid,
a falsification with a re-simulable witness, or an explicit inconclusive
outcome. Nothing here proves stability; the value is in cheap, honest
falsification and in margins that show how close a bound sits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._sampling import Box, sample_ball, sample_box
from .cascade import (CascadeSystem, Trajectory, _k_probes, _stacked_step,
                      grid_rollouts)
from .discretize import ParameterizedMap
from .numerics import ClassKFunction, KLBound
from .verdict import StabilityVerdict, Witness

__all__ = [
    "LyapunovCandidate",
    "UGBCertificate",
    "CertificateParams",
    "StabilityVerdict",
    "Witness",
    "PreconditionError",
    "falsify_spuas",
    "check_boundedness",
    "spuas_escape",
    "boundedness_escape",
    "audit_lyapunov",
    "check_summability",
    "build_ugb_certificate",
    "check_iisns",
    "write_margin_csv",
]

_SLACK = 1e-9


class PreconditionError(ValueError):
    """A certificate precondition fails analytically, before any sampling."""


@dataclass(frozen=True)
class LyapunovCandidate:
    """Candidate V(T, k, y) with its claimed comparison functions.

    `alpha1 <= V <= alpha2` is the claimed sandwich, `alpha3` the claimed
    decrease rate, and `L_mod` a state-dependent Lipschitz modulus
    (nondecreasing, allowed to be positive at zero).
    """

    eval: callable
    alpha1: ClassKFunction
    alpha2: ClassKFunction
    alpha3: ClassKFunction
    L_mod: ClassKFunction


@dataclass(frozen=True)
class CertificateParams:
    """Ingredients of the boundedness certificate.

    The claimed inequalities are, for the driven map f(T,k,x,z):
      alpha1(|x|) <= V(k,x) <= alpha2(|x|) + c
      V(k+1, f(k,x,z)) - V(k+1, f(k,x,0)) <= T*gamma1(|z|)*phi(V(k,x)) + T*gamma2(|z|)
      V(k+1, f(k,x,0)) - V(k,x) <= 0
    with phi of class K-infinity whose reciprocal has a divergent integral.
    """

    alpha1: ClassKFunction
    alpha2: ClassKFunction
    c: float
    gamma1: ClassKFunction
    gamma2: ClassKFunction
    phi: ClassKFunction


@dataclass(frozen=True)
class UGBCertificate:
    """Transformed-function certificate produced by `build_ugb_certificate`."""

    phi_growth: ClassKFunction
    gamma1_tilde: ClassKFunction
    gamma2_tilde: ClassKFunction
    c: float
    rho_built: ClassKFunction
    mu_fn: ClassKFunction
    W_eval: callable

    def q(self, s):
        """Slope of rho_built: 1/phi(1) below s=1, then 1/phi(s)."""
        s = np.asarray(s, dtype=float)
        out = 1.0 / np.asarray(self.phi_growth(np.maximum(s, 1.0)), dtype=float)
        return out if out.ndim else float(out)


def _resolve_grid(grid, radius: float, dim: int) -> np.ndarray:
    if isinstance(grid, (int, np.integer)):
        return sample_ball(radius, dim, int(grid))
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"grid states must have dimension {dim}")
    return pts


def _system_stepper(system):
    """Uniform batched stepper and dimension for cascades and plain maps."""
    if isinstance(system, CascadeSystem):
        return _stacked_step(system), system.dim_x + system.dim_z, system.T_max
    if isinstance(system, ParameterizedMap):
        return system.step, system.dim, system.T_max
    raise TypeError("system must be a CascadeSystem or a ParameterizedMap")


def _grid_rollouts(system, Delta, T_list, grid, horizon, k0_set=None):
    step, dim, T_max = _system_stepper(system)
    return grid_rollouts(step, _resolve_grid(grid, Delta, dim), T_list, horizon, k0_set, T_max)


def _first_escape(runs, bound_fn, detail_pass):
    """First (T, k0, step, row) whose norm leaves the per-step bound.

    `runs` yields (T, k0, states) rollouts; bound_fn(norms0, t_rel) gives
    each trajectory's admissible norm at elapsed time t_rel. Non-finite
    states count as violations.
    """
    worst = 0.0
    for T, k0, states in runs:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.linalg.norm(states, axis=-1)
        t_rel = (np.arange(len(states)) * T)[:, None]
        bound = np.broadcast_to(np.asarray(bound_fn(norms[0][None, :], t_rel), dtype=float),
                                norms.shape)
        ok = norms <= bound + _SLACK
        if not np.all(ok):
            i, j = np.unravel_index(int(np.argmax(~ok)), ok.shape)
            return StabilityVerdict.falsify(
                Witness.of(T, k0, states[0, j], k0 + int(i), float(norms[i, j]), float(bound[i, j])),
                "trajectory norm escaped the claimed bound",
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(bound > 0, norms / bound, np.where(norms > _SLACK, np.inf, 0.0))
        worst = max(worst, float(np.max(ratio)))
    return StabilityVerdict.ok(detail_pass, worst_ratio=worst)


def spuas_escape(runs, beta: KLBound, nu: float, comparator: str = "max") -> StabilityVerdict:
    """The `falsify_spuas` check on (T, k0, states) rollouts already made."""
    if comparator == "max":
        bound_fn = lambda s0, t: np.maximum(beta(s0, t), nu)
    elif comparator == "additive":
        bound_fn = lambda s0, t: np.asarray(beta(s0, t), dtype=float) + nu
    else:
        raise ValueError("comparator must be 'max' or 'additive'")
    return _first_escape(runs, bound_fn, "decay envelope holds on the sampled grid")


def boundedness_escape(runs, kappa: ClassKFunction, c: float) -> StabilityVerdict:
    """The `check_boundedness` check on (T, k0, states) rollouts already made."""
    return _first_escape(runs, lambda s0, t: np.asarray(kappa(s0), dtype=float) + c,
                         "norm bound holds on the sampled grid")


def falsify_spuas(system, beta: KLBound, Delta: float, nu: float, T_list, grid,
                  horizon: float, comparator: str = "max",
                  k0_set=None) -> StabilityVerdict:
    """Try to break the claimed practical-stability envelope by simulation.

    Simulates every grid initial condition with |y0| <= Delta for each
    period and start index, over `horizon` seconds, and checks
    |y(k)| <= max(beta(|y0|, (k-k0)T), nu) at every step (comparator
    "max", the default) or |y(k)| <= beta(|y0|, (k-k0)T) + nu
    (comparator "additive").
    """
    if not (Delta > nu >= 0.0):
        raise ValueError("need Delta > nu >= 0")
    return spuas_escape(_grid_rollouts(system, Delta, T_list, grid, horizon, k0_set),
                        beta, nu, comparator)


def check_boundedness(system, kappa: ClassKFunction, c: float, Delta: float,
                      T_list, grid, horizon: float, k0_set=None) -> StabilityVerdict:
    """Check |y(k)| <= kappa(|y0|) + c along all sampled trajectories."""
    if not (Delta > 0.0 and c >= 0.0):
        raise ValueError("need Delta > 0 and c >= 0")
    return boundedness_escape(_grid_rollouts(system, Delta, T_list, grid, horizon, k0_set),
                              kappa, c)


def audit_lyapunov(V: LyapunovCandidate, F: ParameterizedMap, Delta: float, nu: float,
                   T_list, grid, decrease_form: str = "as-printed",
                   k_set=None, collect_margins: bool = False) -> StabilityVerdict:
    """Audit the sandwich, decrease, and Lipschitz claims of a candidate V.

    The decrease condition is checked in the stated one-sided form
    dV <= -T*(alpha3(|y|) + nu) by default; decrease_form="conventional"
    checks the practical variant dV <= -T*alpha3(|y|) + T*nu instead.
    """
    if not (Delta > 0.0 and nu >= 0.0):
        raise ValueError("need Delta > 0 and nu >= 0")
    if decrease_form not in ("as-printed", "conventional"):
        raise ValueError("decrease_form must be 'as-printed' or 'conventional'")
    Y = _resolve_grid(grid, Delta, F.dim)
    norms = np.linalg.norm(Y, axis=1)
    pairs = (Y[:-1], Y[1:])
    worst = {"sandwich_lo": 0.0, "sandwich_hi": 0.0, "decrease": -math.inf, "lipschitz": 0.0}
    rows = []

    for T in sorted(float(t) for t in T_list):
        for k in (_k_probes(T) if k_set is None else k_set):
            k = int(k)
            v = np.asarray(V.eval(T, k, Y), dtype=float)
            lo = np.asarray(V.alpha1(norms), dtype=float)
            hi = np.asarray(V.alpha2(norms), dtype=float)
            bad = ~(v >= lo - _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return StabilityVerdict.falsify(
                    Witness.of(T, k, Y[j], k, float(v[j]), float(lo[j])),
                    "lower sandwich bound violated")
            bad = ~(v <= hi + _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return StabilityVerdict.falsify(
                    Witness.of(T, k, Y[j], k, float(v[j]), float(hi[j])),
                    "upper sandwich bound violated")

            Yn = np.asarray(F.step(T, k, Y), dtype=float)
            vn = np.asarray(V.eval(T, k + 1, Yn), dtype=float)
            dv = vn - v
            if decrease_form == "as-printed":
                rhs = -T * (np.asarray(V.alpha3(norms), dtype=float) + nu)
            else:
                rhs = -T * np.asarray(V.alpha3(norms), dtype=float) + T * nu
            bad = ~(dv <= rhs + _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return StabilityVerdict.falsify(
                    Witness.of(T, k, Y[j], k, float(dv[j]), float(rhs[j])),
                    "decrease condition violated")
            if collect_margins:
                rows.extend(
                    (int(i), float(norms[i]), float(rhs[i]), float(dv[i]), float(rhs[i] - dv[i]))
                    for i in range(len(Y)))

            A, B = pairs
            va = np.asarray(V.eval(T, k, A), dtype=float)
            vb = np.asarray(V.eval(T, k, B), dtype=float)
            gap = np.linalg.norm(A - B, axis=1)
            mod = np.asarray(V.L_mod(np.maximum(np.linalg.norm(A, axis=1),
                                                np.linalg.norm(B, axis=1))), dtype=float)
            lhs = np.abs(va - vb)
            bad = ~(lhs <= mod * gap + _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return StabilityVerdict.falsify(
                    Witness.of(T, k, A[j], k, float(lhs[j]), float(mod[j] * gap[j])),
                    "Lipschitz modulus violated")

            with np.errstate(divide="ignore", invalid="ignore"):
                worst["sandwich_lo"] = max(worst["sandwich_lo"],
                                           float(np.max(np.where(v > 0, lo / v, 0.0))))
                worst["sandwich_hi"] = max(worst["sandwich_hi"],
                                           float(np.max(np.where(hi > 0, v / hi, 0.0))))
                worst["decrease"] = max(worst["decrease"], float(np.max(dv - rhs)))
                keep = gap > 1e-12
                if np.any(keep):
                    worst["lipschitz"] = max(
                        worst["lipschitz"],
                        float(np.max(lhs[keep] / np.maximum(mod[keep] * gap[keep], 1e-300))))

    margins = dict(worst)
    if collect_margins:
        margins["rows"] = rows
    return StabilityVerdict("pass", None, "sandwich, decrease and Lipschitz claims hold", margins)


def check_summability(z_traj_ensemble, mu_fn: ClassKFunction, rho: ClassKFunction,
                      T: float) -> StabilityVerdict:
    """Check T * sum of mu(|z(k)|) <= rho(|z0|) with a geometric tail certificate.

    The infinite sum is truncated at the recorded horizon; the tail is
    bounded by a geometric fit on the last third of the terms. A
    non-decaying or non-negligible tail yields an inconclusive verdict
    unless the partial sum alone already exceeds the budget.
    """
    worst = 0.0
    for ti, traj in enumerate(z_traj_ensemble):
        terms = np.asarray(mu_fn(traj.norms), dtype=float)
        partial = T * np.cumsum(terms)
        budget = float(rho(traj.norms[0]))
        if np.any(partial > budget + _SLACK):
            j = int(np.argmax(partial > budget + _SLACK))
            return StabilityVerdict.falsify(
                Witness.of(traj.T, traj.k0, traj.states[0], traj.k0 + j,
                           float(partial[j]), budget),
                f"partial sum exceeds the budget on trajectory {ti}")
        total = float(partial[-1])

        n = len(terms)
        if n < 6:
            return StabilityVerdict.unknown(f"trajectory {ti} too short for a tail estimate")
        tail_terms = terms[-max(2, n // 3):]
        if float(np.max(tail_terms)) <= 1e-300:
            tail = 0.0
        else:
            a0, a1 = float(tail_terms[0]), float(tail_terms[-1])
            if a0 <= 0.0 or a1 >= a0:
                return StabilityVerdict.unknown(
                    f"tail of trajectory {ti} is not visibly decaying")
            r = (a1 / a0) ** (1.0 / (len(tail_terms) - 1))
            tail = T * a1 * r / (1.0 - r)
            if total > 0.0 and tail > 1e-6 * total:
                return StabilityVerdict.unknown(
                    f"tail estimate of trajectory {ti} not below 1e-6 of the partial sum")
        if total + tail > budget + _SLACK:
            return StabilityVerdict.falsify(
                Witness.of(traj.T, traj.k0, traj.states[0], traj.k0 + n - 1,
                           total + tail, budget),
                f"partial sum plus tail exceeds the budget on trajectory {ti}")
        if budget > 0.0:
            worst = max(worst, (total + tail) / budget)
    return StabilityVerdict.ok("summability budget holds on the ensemble", worst_ratio=worst)


def _reciprocal_integral_diverges(phi: ClassKFunction) -> bool:
    # analytic check of the integral of 1/phi over [1, infinity)
    if phi.kind == "power":
        return phi.params["exponent"] <= 1.0
    if phi.kind == "linear":
        return True
    if phi.kind == "affine-capped":
        return True  # dominated by a constant or affine growth either way
    if phi.kind in ("tabulated", "integral-reciprocal"):
        return True  # bounded resp. logarithmic growth beyond the table
    return False


def _build_mu(gamma1: ClassKFunction, gamma2: ClassKFunction, phi1: float,
              s_max: float) -> ClassKFunction:
    """mu(s) = gamma1(s) + gamma2(s)/phi(1), kept linear when both gains are."""
    if gamma1.kind == "linear" and gamma2.kind == "linear":
        return ClassKFunction.linear(gamma1.params["gain"] + gamma2.params["gain"] / phi1)
    xs = np.linspace(0.0, max(2.0 * s_max, 1.0), 257)
    ys = np.asarray(gamma1(xs), dtype=float) + np.asarray(gamma2(xs), dtype=float) / phi1
    if np.any(np.diff(ys) <= 0):
        raise ValueError("combined gain is not strictly increasing on the sampled range")
    return ClassKFunction.tabulated(xs, ys)


def build_ugb_certificate(V: LyapunovCandidate, sys: CascadeSystem,
                          cert_params: CertificateParams, domain, T_list,
                          n_samples: int = 2048,
                          k_set=None) -> tuple[UGBCertificate, StabilityVerdict]:
    """Verify the certificate inequalities and build the transformed function.

    Checks the three claimed inequalities of `cert_params` on the sampled
    domain, constructs the slope q(s) = 1/phi(max(s,1)), its integral rho,
    and W = rho(V), then audits the one-step growth
    W(k+1, f(k,x,z)) - W(k,x) <= T * mu(|z|) on the same samples.
    """
    p = cert_params
    if not _reciprocal_integral_diverges(p.phi):
        raise PreconditionError(
            "growth function has a convergent reciprocal integral; "
            "the transformed function cannot be unbounded")
    if isinstance(domain, Box):
        pts = sample_box(domain, n_samples)
    else:  # an explicit (m, dim_x + dim_z) array of stacked states
        pts = np.atleast_2d(np.asarray(domain, dtype=float))
    if pts.shape[1] != sys.dim_x + sys.dim_z:
        raise ValueError("domain must cover the stacked (x, z) state")

    rho = ClassKFunction("integral-reciprocal", {"phi": p.phi})
    X, Z = pts[:, : sys.dim_x], pts[:, sys.dim_x:]
    Z0 = np.zeros_like(Z)
    x_norm = np.linalg.norm(X, axis=1)
    z_norm = np.linalg.norm(Z, axis=1)
    phi1 = float(p.phi(1.0))
    mu = _build_mu(p.gamma1, p.gamma2, phi1, float(np.max(z_norm)))
    W_eval = lambda T, k, x: rho(V.eval(T, k, x))
    cert = UGBCertificate(p.phi, p.gamma1, p.gamma2, float(rho(2.0 * p.c)), rho, mu, W_eval)

    def fail(T, k, idx, measured, bound, what):
        return cert, StabilityVerdict.falsify(
            Witness.of(T, int(k), pts[idx], int(k), float(measured), float(bound)), what)

    worst = {"sandwich": 0.0, "drift": -math.inf, "unforced": -math.inf, "transformed": -math.inf}
    for T in sorted(float(t) for t in T_list):
        for k in (_k_probes(T) if k_set is None else k_set):
            k = int(k)
            v = np.asarray(V.eval(T, k, X), dtype=float)
            lo = np.asarray(p.alpha1(x_norm), dtype=float)
            hi = np.asarray(p.alpha2(x_norm), dtype=float) + p.c
            bad = ~(v >= lo - _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return fail(T, k, j, v[j], lo[j], "lower sandwich bound violated")
            bad = ~(v <= hi + _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return fail(T, k, j, v[j], hi[j], "upper sandwich bound violated")

            Fz = np.asarray(sys.f(T, k, X, Z), dtype=float)
            F0 = np.asarray(sys.f(T, k, X, Z0), dtype=float)
            v_next_z = np.asarray(V.eval(T, k + 1, Fz), dtype=float)
            v_next_0 = np.asarray(V.eval(T, k + 1, F0), dtype=float)

            drift = v_next_z - v_next_0
            rhs = (T * np.asarray(p.gamma1(z_norm), dtype=float) * np.asarray(p.phi(v), dtype=float)
                   + T * np.asarray(p.gamma2(z_norm), dtype=float))
            bad = ~(drift <= rhs + _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return fail(T, k, j, drift[j], rhs[j], "input-drift bound violated")

            unforced = v_next_0 - v
            bad = ~(unforced <= _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return fail(T, k, j, unforced[j], 0.0, "unforced decrease violated")

            dW = (np.asarray(rho(v_next_z), dtype=float)
                  - np.asarray(rho(v), dtype=float))
            rhsW = T * np.asarray(mu(z_norm), dtype=float)
            bad = ~(dW <= rhsW + _SLACK)
            if np.any(bad):
                j = int(np.argmax(bad))
                return fail(T, k, j, dW[j], rhsW[j], "transformed one-step growth violated")

            with np.errstate(divide="ignore", invalid="ignore"):
                worst["sandwich"] = max(worst["sandwich"],
                                        float(np.max(np.where(hi > 0, v / hi, 0.0))))
            worst["drift"] = max(worst["drift"], float(np.max(drift - rhs)))
            worst["unforced"] = max(worst["unforced"], float(np.max(unforced)))
            worst["transformed"] = max(worst["transformed"], float(np.max(dW - rhsW)))

    return cert, StabilityVerdict("pass", None,
                                  "certificate inequalities hold on the sample", dict(worst))


def check_iisns(x_traj: Trajectory, z_inputs, alpha1: ClassKFunction,
                alpha2: ClassKFunction, mu_fn: ClassKFunction, T: float) -> StabilityVerdict:
    """Check alpha1(|x(k)|) <= alpha2(|x0|) + T * sum of mu(|z(i)|), i < k."""
    n = len(x_traj) - 1
    if z_inputs.start > x_traj.k0 or z_inputs.start + len(z_inputs) < x_traj.k0 + n:
        raise ValueError("input sequence does not cover the trajectory horizon")
    z_norms = np.linalg.norm(
        z_inputs.values[x_traj.k0 - z_inputs.start: x_traj.k0 - z_inputs.start + n], axis=1)
    prefix = np.concatenate([[0.0], T * np.cumsum(np.asarray(mu_fn(z_norms), dtype=float))])
    lhs = np.asarray(alpha1(x_traj.norms), dtype=float)
    rhs = float(alpha2(x_traj.norms[0])) + prefix
    bad = ~(lhs <= rhs + _SLACK)
    if np.any(bad):
        j = int(np.argmax(bad))
        return StabilityVerdict.falsify(
            Witness.of(x_traj.T, x_traj.k0, x_traj.states[0], x_traj.k0 + j,
                       float(lhs[j]), float(rhs[j])),
            "integral neutral-stability bound violated")
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = float(np.max(np.where(rhs > 0, lhs / rhs, np.where(lhs > _SLACK, np.inf, 0.0))))
    return StabilityVerdict.ok("integral neutral-stability bound holds", worst_ratio=worst)


def write_margin_csv(path, rows) -> None:
    """Persist margin rows as CSV (sample-id, |y|, bound, measured, margin)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "norm", "bound", "measured", "margin"])
        for sid, nrm, bound, measured, margin in rows:
            writer.writerow([sid, repr(nrm), repr(bound), repr(measured), repr(margin)])
