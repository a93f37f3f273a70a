"""Grid audits of stability definitions and the boundedness certificate.

Every audit returns a `StabilityVerdict`: a pass over the sampled grid,
a falsification with a re-simulable witness, or an explicit inconclusive
outcome. Nothing here proves stability; the value is in cheap, honest
falsification and in margins that show how close a bound sits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sampling import Box, sample_ball, sample_box
from .cascade import CascadeSystem, _interconnection_terms, _stacked_step, grid_rollouts
from .discretize import ParameterizedMap
from .numerics import ClassKFunction, KLBound, _schedule
from .verdict import _SLACK, StabilityVerdict, Witness, _first_violation, _one_step, _ratio

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
]


class PreconditionError(ValueError):
    """A certificate precondition fails analytically, before any sampling."""


@dataclass(frozen=True)
class LyapunovCandidate:
    """Candidate V(T, k, y) with its claimed comparison functions.

    `alpha1 <= V <= alpha2` is the claimed sandwich, `alpha3` the claimed
    decrease rate, and `L_mod` a state-dependent Lipschitz modulus
    (nondecreasing, allowed to be positive at zero). Like a map, `eval`
    gets a (rows, dim) batch and treats rows independently.
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

    rho_built: ClassKFunction
    mu_fn: ClassKFunction


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


def _grid_rollouts(system, Delta, T_list, grid, horizon):
    step, dim, T_max = _system_stepper(system)
    return grid_rollouts(step, _resolve_grid(grid, Delta, dim), T_list, horizon, T_max=T_max,
                         period=system.period)


def _first_escape(runs, bound_fn, detail_pass):
    """First (T, k0, step, row) whose norm leaves the per-step bound.

    `runs` yields `cascade.Trajectory` records; bound_fn(norms0, t_rel)
    gives each trajectory's admissible norm at elapsed time t_rel.
    Non-finite states count as violations; no trajectory is a ValueError.
    """
    worst, n = 0.0, 0
    for run in runs:
        T, k0, x0, norms = run.T, run.k0, run.x0, run.norms
        t_rel = (np.arange(len(norms)) * T)[:, None]
        bound = np.broadcast_to(np.asarray(bound_fn(norms[0][None, :], t_rel), dtype=float),
                                norms.shape)
        bad = _first_violation((
            norms <= bound + _SLACK,
            lambda ij: Witness.of(T, k0, x0[ij[1]], k0 + ij[0], norms[ij], bound[ij]),
            "trajectory norm escaped the claimed bound"))
        if bad is not None:
            return bad
        n += norms.shape[1]
        worst = max(worst, float(np.max(_ratio(norms, bound), initial=0.0)))
    if not n:
        raise ValueError("need at least one trajectory")
    return StabilityVerdict.ok(detail_pass, worst_ratio=worst)


def spuas_escape(runs, beta: KLBound, nu: float, comparator: str = "max") -> StabilityVerdict:
    """The `falsify_spuas` check on `cascade.Trajectory` records already made."""
    if comparator == "max":
        bound_fn = lambda s0, t: np.maximum(beta(s0, t), nu)
    elif comparator == "additive":
        bound_fn = lambda s0, t: np.asarray(beta(s0, t), dtype=float) + nu
    else:
        raise ValueError("comparator must be 'max' or 'additive'")
    return _first_escape(runs, bound_fn, "decay envelope holds on the sampled grid")


def boundedness_escape(runs, kappa: ClassKFunction, c: float) -> StabilityVerdict:
    """The `check_boundedness` check on `cascade.Trajectory` records already made."""
    return _first_escape(runs, lambda s0, t: np.asarray(kappa(s0), dtype=float) + c,
                         "norm bound holds on the sampled grid")


def falsify_spuas(system, beta: KLBound, Delta: float, nu: float, T_list, grid,
                  horizon: float, comparator: str = "max") -> StabilityVerdict:
    """Try to break the claimed practical-stability envelope by simulation.

    Simulates every grid initial condition with |y0| <= Delta for each
    period and start index, over `horizon` seconds, and checks
    |y(k)| <= max(beta(|y0|, (k-k0)T), nu) at every step (comparator
    "max", the default) or |y(k)| <= beta(|y0|, (k-k0)T) + nu
    (comparator "additive").
    """
    if not (Delta > nu >= 0.0):
        raise ValueError("need Delta > nu >= 0")
    return spuas_escape(_grid_rollouts(system, Delta, T_list, grid, horizon),
                        beta, nu, comparator)


def check_boundedness(system, kappa: ClassKFunction, c: float, Delta: float,
                      T_list, grid, horizon: float) -> StabilityVerdict:
    """Check |y(k)| <= kappa(|y0|) + c along all sampled trajectories."""
    if not (Delta > 0.0 and c >= 0.0):
        raise ValueError("need Delta > 0 and c >= 0")
    return boundedness_escape(_grid_rollouts(system, Delta, T_list, grid, horizon),
                              kappa, c)


class _LyapunovChecks:
    """The per-(T, k) checks of `audit_lyapunov` on the grid Y, in its order,
    with its running margins, for callers that step the grid themselves.
    `check` takes a block of step indices at once. Once a check has
    falsified, `falsified` holds its verdict and `check` does nothing."""

    def __init__(self, V: LyapunovCandidate, Y, nu: float, collect_margins: bool = False):
        self.Y, self.norms = Y, np.linalg.norm(Y, axis=1)
        # the k-free bounds, formed once: the sandwich, the decrease rate, and
        # the Lipschitz bound on the consecutive grid pairs (Y[j], Y[j + 1])
        self.lo, self.hi, a3 = (np.asarray(f(self.norms), dtype=float)
                                for f in (V.alpha1, V.alpha2, V.alpha3))
        self.rate = a3 + nu
        gap = np.linalg.norm(Y[:-1] - Y[1:], axis=1)
        self.lip = lip = np.asarray(V.L_mod(np.maximum(self.norms[:-1], self.norms[1:])),
                                    dtype=float) * gap
        # a pair of (numerically) equal states enters the worst ratio as 0
        self.lip_div = np.where(gap > 1e-12, np.maximum(lip, 1e-300), np.inf)
        self.worst = {"sandwich_lo": 0.0, "sandwich_hi": 0.0, "decrease": -math.inf,
                      "lipschitz": 0.0}
        self.rows = [] if collect_margins else None
        self.falsified = None

    def check(self, T: float, ks, v, dv) -> None:
        """Check V's values `v` (a row per step index of `ks`) on the grid,
        with `dv` V at k + 1 on the grid's step minus `v`. The witness is
        that of the first index at which a check fails (see
        `_first_violation`)."""
        if self.falsified is not None:
            return
        Y, lo, hi, lip, worst = self.Y, self.lo, self.hi, self.lip, self.worst
        v, dv = np.asarray(v, dtype=float), np.asarray(dv, dtype=float)
        rhs = -T * self.rate
        lhs = np.abs(v[:, :-1] - v[:, 1:])
        self.falsified = _first_violation(*(_one_step(ok, T, ks, Y, *rest) for ok, *rest in (
            (v >= lo - _SLACK, v, lo, "lower sandwich bound violated"),
            (v <= hi + _SLACK, v, hi, "upper sandwich bound violated"),
            (dv <= rhs + _SLACK, dv, rhs, "decrease condition violated"),
            (lhs <= lip + _SLACK, lhs, lip, "Lipschitz modulus violated"))))
        if self.falsified is not None:
            return
        if self.rows is not None:
            B, n = v.shape
            self.rows.append(np.column_stack([np.tile(np.arange(n), B), np.tile(self.norms, B),
                                              np.tile(rhs, B), dv.ravel(), (rhs - dv).ravel()]))

        with np.errstate(divide="ignore", invalid="ignore"):
            worst["sandwich_lo"] = max(worst["sandwich_lo"],
                                       float(np.where(v > 0, lo / v, 0.0).max()))
            worst["sandwich_hi"] = max(worst["sandwich_hi"],
                                       float(np.where(hi > 0, v / hi, 0.0).max()))
            worst["decrease"] = max(worst["decrease"], float((dv - rhs).max()))
            worst["lipschitz"] = max(worst["lipschitz"],
                                     float((lhs / self.lip_div).max(initial=0.0)))

    def result(self) -> StabilityVerdict:
        """The falsified verdict, or the pass; collected margin rows are
        (sample_id, norm, bound, measured, margin) per state per (T, k)."""
        if self.falsified is not None:
            return self.falsified
        margins = dict(self.worst)
        if self.rows is not None:
            margins["rows"] = np.concatenate(self.rows) if self.rows else np.empty((0, 5))
        return StabilityVerdict("pass", None, "sandwich, decrease and Lipschitz claims hold",
                                margins)


def audit_lyapunov(V: LyapunovCandidate, F: ParameterizedMap, Delta: float, nu: float,
                   T_list, grid, k_set=None, collect_margins: bool = False) -> StabilityVerdict:
    """Audit the sandwich, decrease, and Lipschitz claims of a candidate V.

    The decrease condition is checked in the stated one-sided form
    dV <= -T*(alpha3(|y|) + nu).
    """
    if not (Delta > 0.0 and nu >= 0.0):
        raise ValueError("need Delta > 0 and nu >= 0")
    Y = _resolve_grid(grid, Delta, F.dim)
    checks = _LyapunovChecks(V, Y, nu, collect_margins)
    for T, ks in _schedule(T_list, F.T_max, F.period, k_set):
        for k in ks:
            v = np.asarray(V.eval(T, k, Y), dtype=float)[None]  # a block of one k
            v_next = V.eval(T, k + 1, np.asarray(F.step(T, k, Y), dtype=float))
            checks.check(T, (k,), v, np.asarray(v_next, dtype=float) - v)
            if checks.falsified is not None:
                return checks.falsified
    return checks.result()


def check_summability(z_runs, mu_fn: ClassKFunction,
                      rho: ClassKFunction) -> StabilityVerdict:
    """Check T * sum of mu(|z(k)|) <= rho(|z0|) with a geometric tail certificate.

    `z_runs` yields `cascade.Trajectory` records, each column one trajectory
    summed at its record's period T; verdicts name a trajectory by its flat
    (record, column) index and judge the trajectories in that order. The
    infinite sum is truncated at the recorded horizon; the tail is bounded by
    a geometric fit on the last third of the terms. A non-decaying or
    non-negligible tail yields an inconclusive verdict unless the partial sum
    alone already exceeds the budget. No trajectory is a ValueError.
    """
    columns = ((run, terms, budget, z0) for run in z_runs
               for terms, budget, z0 in zip(np.asarray(mu_fn(run.norms), dtype=float).T,
                                            np.asarray(rho(run.norms[0]), dtype=float),
                                            run.x0))
    worst, ti = 0.0, -1
    for ti, (run, terms, budget, z0) in enumerate(columns):
        partial = run.T * np.cumsum(terms)
        budget = float(budget)
        bad = _first_violation((
            partial <= budget + _SLACK,
            lambda j: Witness.of(run.T, run.k0, z0, run.k0 + j, partial[j], budget),
            f"partial sum exceeds the budget on trajectory {ti}"))
        if bad is not None:
            return bad
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
            tail = run.T * a1 * r / (1.0 - r)
            if total > 0.0 and tail > 1e-6 * total:
                return StabilityVerdict.unknown(
                    f"tail estimate of trajectory {ti} not below 1e-6 of the partial sum")
        bad = _first_violation((
            total + tail <= budget + _SLACK,
            lambda _: Witness.of(run.T, run.k0, z0, run.k0 + n - 1, total + tail, budget),
            f"partial sum plus tail exceeds the budget on trajectory {ti}"))
        if bad is not None:
            return bad
        if budget > 0.0:
            worst = max(worst, (total + tail) / budget)
    if ti < 0:
        raise ValueError("need at least one trajectory")
    return StabilityVerdict.ok("summability budget holds on the ensemble", worst_ratio=worst)


def _reciprocal_integral_diverges(phi: ClassKFunction) -> bool:
    # analytic check of the integral of 1/phi over [1, infinity): it diverges
    # for a power up to exponent 1, and for every other kind, which grows at
    # most affinely (linear, affine-capped) or logarithmically (integral-reciprocal)
    return phi.kind != "power" or phi.params["exponent"] <= 1.0


def build_ugb_certificate(V: LyapunovCandidate, sys: CascadeSystem,
                          cert_params: CertificateParams, domain, T_list,
                          n_samples: int = 2048,
                          k_set=None) -> tuple[UGBCertificate, StabilityVerdict]:
    """Verify the certificate inequalities and build the transformed function.

    Checks the three claimed inequalities of `cert_params` (linear gamma1 and
    gamma2) on the sampled domain, builds q(s) = 1/phi(max(s,1)), its
    integral rho and W = rho(V), and audits on the same samples the growth
    W(k+1, f(k,x,z)) - W(k,x) <= T * mu(|z|), mu = gamma1 + gamma2/phi(1).
    """
    if isinstance(domain, Box):
        pts = sample_box(domain, n_samples)
    else:  # an explicit (m, dim_x + dim_z) array of stacked states
        pts = np.atleast_2d(np.asarray(domain, dtype=float))
    if pts.shape[1] != sys.dim_x + sys.dim_z:
        raise ValueError("domain must cover the stacked (x, z) state")

    return _certificate_verdict(cert_params, pts, sys.dim_x,
                                _certificate_terms(V, sys, pts, T_list, k_set))


def _certificate_terms(V: LyapunovCandidate, sys: CascadeSystem, pts, T_list, k_set=None):
    """Yield (T, k, V(k,x), V(k+1, f(k,x,z)), V(k+1, f(k,x,0))) on the stacked
    (x, z) rows `pts`, over the f-pairs of `cascade._interconnection_terms`."""
    X = pts[:, : sys.dim_x]
    for T, k, Fz, F0 in _interconnection_terms(sys, pts, T_list, k_set):
        yield T, k, *(np.asarray(V.eval(T, kk, Y), dtype=float)
                      for kk, Y in ((k, X), (k + 1, Fz), (k + 1, F0)))


def _certificate_verdict(p: CertificateParams, pts, dim_x: int,
                         terms) -> tuple[UGBCertificate, StabilityVerdict]:
    """The certificate and verdict of `build_ugb_certificate` on the
    (T, k, v, v_next_z, v_next_0) `terms` of the rows `pts`: a failed
    precondition raises before `terms` is advanced, a (T, k) whose sandwich
    fails falsifies before its other checks, and the first falsifying
    (T, k) ends the pass."""
    if not _reciprocal_integral_diverges(p.phi):
        raise PreconditionError(
            "growth function has a convergent reciprocal integral; "
            "the transformed function cannot be unbounded")
    if not p.gamma1.kind == p.gamma2.kind == "linear":
        raise PreconditionError("the certificate gains gamma1 and gamma2 must be linear")
    rho = ClassKFunction("integral-reciprocal", {"phi": p.phi})
    x_norm = np.linalg.norm(pts[:, :dim_x], axis=1)
    z_norm = np.linalg.norm(pts[:, dim_x:], axis=1)
    mu = ClassKFunction.linear(p.gamma1.params["gain"] + p.gamma2.params["gain"] / p.phi(1.0))
    cert = UGBCertificate(rho, mu)
    # the k-free bounds, formed once
    lo = np.asarray(p.alpha1(x_norm), dtype=float)
    hi = np.asarray(p.alpha2(x_norm), dtype=float) + p.c
    g1, g2, mu_z = (np.asarray(f(z_norm), dtype=float) for f in (p.gamma1, p.gamma2, mu))
    zero = np.zeros(len(pts))

    worst = {"sandwich": 0.0, "drift": -math.inf, "unforced": -math.inf, "transformed": -math.inf}
    for T, k, v, v_next_z, v_next_0 in terms:
        bad = _first_violation(
            _one_step(v >= lo - _SLACK, T, k, pts, v, lo, "lower sandwich bound violated"),
            _one_step(v <= hi + _SLACK, T, k, pts, v, hi, "upper sandwich bound violated"))
        if bad is not None:
            return cert, bad

        drift = v_next_z - v_next_0
        rhs = T * g1 * np.asarray(p.phi(v), dtype=float) + T * g2
        unforced = v_next_0 - v
        rhsW = T * mu_z
        dW = np.asarray(rho(v_next_z), dtype=float) - np.asarray(rho(v), dtype=float)
        bad = _first_violation(
            _one_step(drift <= rhs + _SLACK, T, k, pts, drift, rhs,
                      "input-drift bound violated"),
            _one_step(unforced <= _SLACK, T, k, pts, unforced, zero,
                      "unforced decrease violated"),
            _one_step(dW <= rhsW + _SLACK, T, k, pts, dW, rhsW,
                      "transformed one-step growth violated"))
        if bad is not None:
            return cert, bad

        with np.errstate(divide="ignore", invalid="ignore"):
            worst["sandwich"] = max(worst["sandwich"],
                                    float(np.max(np.where(hi > 0, v / hi, 0.0))))
        worst["drift"] = max(worst["drift"], float(np.max(drift - rhs)))
        worst["unforced"] = max(worst["unforced"], float(np.max(unforced)))
        worst["transformed"] = max(worst["transformed"], float(np.max(dW - rhsW)))

    return cert, StabilityVerdict("pass", None,
                                  "certificate inequalities hold on the sample", dict(worst))
