"""Grid audits: envelope falsification, Lyapunov checks, certificates."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtaudit import (
    Box,
    CascadeSystem,
    CertificateParams,
    ClassKFunction,
    KLBound,
    LyapunovCandidate,
    ParameterizedMap,
    PreconditionError,
    ReferenceSignal,
    StabilityVerdict,
    Trajectory,
    VectorField,
    audit_lyapunov,
    audit_lyapunov_chain,
    build_ugb_certificate,
    check_boundedness,
    check_interconnection_bound,
    check_pe,
    check_summability,
    compute_case_constants,
    consistency_order,
    euler_map,
    falsify_spuas,
    fit_kl_envelope,
    kl_shift,
    sample_ball,
    sample_box,
    usc_probe,
    validated_gains,
    validated_references,
)
from dtaudit._integrate import rk45_integrate
from dtaudit.cascade import _stacked_step, grid_rollouts
from dtaudit.stability import boundedness_escape, spuas_escape
from dtaudit.stability import _certificate_verdict


def scalar_map(update, T_max=np.inf):
    return ParameterizedMap(1, T_max, lambda T, k, Y: update(T, np.asarray(Y, dtype=float)))


def contraction(a1):
    # y(k+1) = (1 - T*a1) y(k), admissible while the factor stays positive
    return scalar_map(lambda T, Y: (1.0 - T * a1) * Y, T_max=1.0 / a1)


def quadratic_candidate(scale=1.0):
    return LyapunovCandidate(
        eval=lambda T, k, Y: scale * np.asarray(Y, dtype=float)[:, 0] ** 2,
        alpha1=ClassKFunction.power(scale, 2.0),
        alpha2=ClassKFunction.power(scale, 2.0),
        alpha3=ClassKFunction.power(scale, 2.0),
        L_mod=ClassKFunction.linear(2.0 * scale),
    )


def resimulate(pmap, witness):
    Y = np.asarray([witness.initial_state], dtype=float)
    for i in range(witness.k - witness.k0):
        Y = pmap.step(witness.T, witness.k0 + i, Y)
    return float(np.linalg.norm(Y[0]))


def test_spuas_contraction_passes_exponential_envelope():
    """(1 - 10T)^k decays faster than e^{-5kT} for every T below 0.1."""
    verdict = falsify_spuas(contraction(10.0), KLBound.exponential(1.0, 5.0),
                            Delta=2.0, nu=0.0, T_list=[0.01, 0.05, 0.09],
                            grid=25, horizon=3.0)
    assert verdict.kind == "pass"
    assert bool(verdict)
    assert verdict.margins["worst_ratio"] <= 1.0 + 1e-9


def test_spuas_expanding_map_falsified_with_replayable_witness():
    expanding = scalar_map(lambda T, Y: (1.0 + T) * Y)
    verdict = falsify_spuas(expanding, KLBound.exponential(2.0, 0.1),
                            Delta=1.0, nu=0.0, T_list=[0.1],
                            grid=np.array([[1.0]]), horizon=50.0)
    assert verdict.kind == "falsified"
    assert not verdict
    w = verdict.witness
    assert w.measured > w.bound
    # the witness must contain everything needed to reproduce the violation
    assert resimulate(expanding, w) == pytest.approx(w.measured, abs=1e-12)


def test_spuas_zero_initial_state_passes_trivially():
    verdict = falsify_spuas(contraction(1.0), KLBound.exponential(1.0, 1.0),
                            Delta=1.0, nu=0.0, T_list=[0.5],
                            grid=np.array([[0.0]]), horizon=2.0)
    assert verdict.kind == "pass"


def test_spuas_additive_comparator_is_strictly_looser():
    """An offset that the max comparator rejects can pass additively."""
    frozen = scalar_map(lambda T, Y: Y)
    kwargs = dict(Delta=1.0, nu=0.2, T_list=[0.5],
                  grid=np.array([[0.25]]), horizon=1.0)
    beta = KLBound.exponential(1.0, 1.0)
    # max(0.25 e^{-1}, 0.2) = 0.2 < 0.25, but 0.25 e^{-1} + 0.2 covers it
    assert falsify_spuas(frozen, beta, comparator="max", **kwargs).kind == "falsified"
    assert falsify_spuas(frozen, beta, comparator="additive", **kwargs).kind == "pass"


def test_spuas_rejects_bad_parameters():
    sys = contraction(1.0)
    beta = KLBound.exponential(1.0, 1.0)
    with pytest.raises(ValueError):
        falsify_spuas(sys, beta, Delta=0.5, nu=0.5, T_list=[0.1], grid=4, horizon=1.0)
    with pytest.raises(ValueError):
        falsify_spuas(sys, beta, Delta=1.0, nu=0.0, T_list=[0.1], grid=4, horizon=1.0,
                      comparator="median")


@settings(max_examples=25, deadline=None)
@given(a=st.floats(min_value=1.0, max_value=9.0),
       y0=st.floats(min_value=-2.0, max_value=2.0))
def test_spuas_matched_rate_envelope_never_falsified(a, y0):
    """The exact decay rate of the map is an admissible KL envelope."""
    T = 0.05
    lam = -np.log(1.0 - a * T) / T
    verdict = falsify_spuas(contraction(a), KLBound.exponential(1.0, lam),
                            Delta=2.5, nu=0.0, T_list=[T],
                            grid=np.array([[y0]]), horizon=2.0)
    assert verdict.kind == "pass"


def test_boundedness_contraction_passes_identity_kappa():
    verdict = check_boundedness(contraction(1.0), ClassKFunction.linear(1.0), c=0.0,
                                Delta=1.5, T_list=[0.1, 0.5], grid=17, horizon=2.0)
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio"] <= 1.0 + 1e-9


def test_boundedness_constant_drift_falsified_at_first_escape():
    drifting = scalar_map(lambda T, Y: Y + T)
    verdict = check_boundedness(drifting, ClassKFunction.linear(1.0), c=0.2,
                                Delta=1.0, T_list=[0.1],
                                grid=np.array([[0.5]]), horizon=5.0)
    assert verdict.kind == "falsified"
    w = verdict.witness
    # y(k) = 0.5 + 0.1 k first clears kappa(0.5) + 0.2 = 0.7 at k = 3
    assert w.k - w.k0 == 3
    assert w.measured == pytest.approx(0.8, abs=1e-12)
    assert w.bound == pytest.approx(0.7, abs=1e-12)
    assert resimulate(drifting, w) == pytest.approx(w.measured, abs=1e-12)


def test_boundedness_rejects_bad_parameters():
    sys = contraction(1.0)
    kappa = ClassKFunction.linear(1.0)
    with pytest.raises(ValueError):
        check_boundedness(sys, kappa, c=0.0, Delta=0.0, T_list=[0.1], grid=4, horizon=1.0)
    with pytest.raises(ValueError):
        check_boundedness(sys, kappa, c=-1.0, Delta=1.0, T_list=[0.1], grid=4, horizon=1.0)


def test_sweeps_on_a_cascade_give_the_escape_verdicts_of_its_stacked_rollouts():
    """`falsify_spuas` and `check_boundedness` roll a `CascadeSystem` out
    through its stacked (x, z) step, at the start indices of its period:
    a held and a broken claim of each give the verdicts of `spuas_escape`
    and `boundedness_escape` on `grid_rollouts` of that step."""
    def f(T, k, X, Z):  # k is an int or each row's own index
        return X + T * (-X + 2.0 * (1.0 - np.reshape(np.cos(2.0 * np.pi * k * T), (-1, 1))) * Z)

    sysm = CascadeSystem(1, 1, f, lambda T, k, Z: (1.0 - 0.5 * T) * Z, T_max=1.0, period=1.0)
    grid, T_list, horizon = sample_ball(2.0, 2, 9), [0.2, 0.1], 3.0

    def records():
        return grid_rollouts(_stacked_step(sysm), grid, T_list, horizon, None, sysm.T_max,
                             sysm.period)

    kinds = []
    for beta in (KLBound.exponential(2.0, 0.1), KLBound.exponential(1.0, 2.0)):
        verdict = falsify_spuas(sysm, beta, 2.0, 0.0, T_list, grid, horizon)
        assert verdict.to_json() == spuas_escape(records(), beta, 0.0).to_json()
        kinds.append(verdict.kind)
    for gain in (2.0, 0.5):
        kappa = ClassKFunction.linear(gain)
        verdict = check_boundedness(sysm, kappa, 0.0, 2.0, T_list, grid, horizon)
        assert verdict.to_json() == boundedness_escape(records(), kappa, 0.0).to_json()
        kinds.append(verdict.kind)
    assert kinds == ["pass", "falsified"] * 2


def test_lyapunov_audit_passes_for_contracting_map():
    """V = y^2 along y(k+1) = (1-T)y satisfies dV <= -T y^2 up to T = 1."""
    F = scalar_map(lambda T, Y: (1.0 - T) * Y, T_max=1.0)
    verdict = audit_lyapunov(quadratic_candidate(), F, Delta=2.0, nu=0.0,
                             T_list=[0.1, 0.5, 1.0], grid=33)
    assert verdict.kind == "pass"
    m = verdict.margins
    assert m["decrease"] <= 1e-9
    assert m["sandwich_lo"] == pytest.approx(1.0)
    assert m["sandwich_hi"] == pytest.approx(1.0)
    assert m["lipschitz"] <= 1.0 + 1e-9


def test_lyapunov_identity_map_fails_decrease():
    F = scalar_map(lambda T, Y: Y)
    verdict = audit_lyapunov(quadratic_candidate(), F, Delta=2.0, nu=0.0,
                             T_list=[0.5], grid=np.array([[1.0], [0.5]]))
    assert verdict.kind == "falsified"
    assert verdict.detail == "decrease condition violated"
    w = verdict.witness
    assert w.measured == pytest.approx(0.0, abs=1e-12)
    assert w.bound == pytest.approx(-0.5, abs=1e-12)


def test_lyapunov_lower_sandwich_violation_reported():
    V = LyapunovCandidate(
        eval=lambda T, k, Y: np.asarray(Y, dtype=float)[:, 0] ** 2,
        alpha1=ClassKFunction.linear(2.0),
        alpha2=ClassKFunction.linear(2.0),
        alpha3=ClassKFunction.power(1.0, 2.0),
        L_mod=ClassKFunction.linear(4.0),
    )
    F = scalar_map(lambda T, Y: (1.0 - T) * Y, T_max=1.0)
    verdict = audit_lyapunov(V, F, Delta=1.0, nu=0.0, T_list=[0.1],
                             grid=np.array([[0.25]]))
    assert verdict.kind == "falsified"
    assert verdict.detail == "lower sandwich bound violated"
    assert verdict.witness.measured == pytest.approx(0.0625)
    assert verdict.witness.bound == pytest.approx(0.5)


def test_lyapunov_decrease_forms_differ_for_neutral_map():
    """nu inside the bracket is strict: a neutral map does not decrease."""
    F = scalar_map(lambda T, Y: Y)
    strict = audit_lyapunov(quadratic_candidate(), F, Delta=1.0, nu=2.0, T_list=[0.25],
                            grid=np.array([[0.5], [1.0]]))
    assert strict.kind == "falsified"


def test_lyapunov_margin_rows_carry_bound_minus_measured():
    F = scalar_map(lambda T, Y: (1.0 - T) * Y, T_max=1.0)
    grid = np.array([[1.0], [0.5], [-0.25]])
    verdict = audit_lyapunov(quadratic_candidate(), F, Delta=2.0, nu=0.0,
                             T_list=[0.5], grid=grid, k_set=[0],
                             collect_margins=True)
    rows = verdict.margins["rows"]
    assert len(rows) == len(grid)
    assert all(len(r) == 5 for r in rows)
    assert all(r[4] == r[2] - r[3] for r in rows)


def test_lyapunov_margins_scale_linearly_with_candidate():
    """Scaling V and its comparison functions by 3 scales the decrease margin by 3."""
    F = scalar_map(lambda T, Y: (1.0 - T) * Y, T_max=1.0)
    grid = np.array([[1.0], [0.5], [-0.25]])
    kwargs = dict(Delta=2.0, nu=0.0, T_list=[0.5], grid=grid, k_set=[0])
    base = audit_lyapunov(quadratic_candidate(1.0), F, **kwargs)
    scaled = audit_lyapunov(quadratic_candidate(3.0), F, **kwargs)
    assert base.kind == scaled.kind == "pass"
    assert scaled.margins["decrease"] == pytest.approx(3.0 * base.margins["decrease"],
                                                       rel=1e-12)
    assert scaled.margins["sandwich_lo"] == pytest.approx(base.margins["sandwich_lo"])
    assert scaled.margins["sandwich_hi"] == pytest.approx(base.margins["sandwich_hi"])


def test_lyapunov_rejects_unknown_decrease_form():
    F = scalar_map(lambda T, Y: Y)
    with pytest.raises(ValueError):
        audit_lyapunov(quadratic_candidate(), F, Delta=1.0, nu=-0.1,
                       T_list=[0.1], grid=4)


def geometric_trajectory(ratio, n, T, z0=1.0):
    return Trajectory.of_states(T, 0, (z0 * ratio ** np.arange(n)).reshape(-1, 1, 1))


def test_summability_geometric_series_meets_exact_budget():
    """T sum of 0.9^k with T = 0.01 totals exactly 0.1, the budget s/10 at s=1."""
    traj = geometric_trajectory(0.9, 200, T=0.01)
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(0.1))
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_summability_zero_trajectory_passes():
    traj = Trajectory.of_states(0.1, 0, np.zeros((10, 1, 1)))
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(1.0))
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio"] == 0.0


_NO_COLUMN = Trajectory(0.1, 0, np.zeros((0, 1)), np.zeros((11, 0)))
_LIN = ClassKFunction.linear(1.0)


@pytest.mark.parametrize("check", [
    lambda runs: spuas_escape(runs, KLBound.exponential(1.0, 1.0), 0.0),
    lambda runs: boundedness_escape(runs, _LIN, 0.0),
    lambda runs: check_summability(runs, _LIN, _LIN),
    fit_kl_envelope,
], ids=["spuas_escape", "boundedness_escape", "check_summability", "fit_kl_envelope"])
@pytest.mark.parametrize("runs", [[], [_NO_COLUMN], [_NO_COLUMN, _NO_COLUMN]],
                         ids=["no_record", "no_column", "two_records_no_column"])
def test_record_checks_reject_no_trajectory(check, runs):
    """A check over no trajectory says nothing: it is an error, not a pass
    with worst ratio 0 or numpy's zero-size reduction error."""
    with pytest.raises(ValueError, match="need at least one trajectory"):
        check(runs)


@pytest.mark.parametrize("sweep", [
    lambda F, grid: falsify_spuas(F, KLBound.exponential(1.0, 1.0), 1.0, 0.0, [0.1], grid, 1.0),
    lambda F, grid: check_boundedness(F, _LIN, 0.0, 1.0, [0.1], grid, 1.0),
], ids=["falsify_spuas", "check_boundedness"])
def test_sweeps_reject_an_empty_grid(sweep):
    with pytest.raises(ValueError, match="need at least one trajectory"):
        sweep(contraction(1.0), np.zeros((0, 1)))


def test_a_record_with_no_column_leaves_the_others_judged():
    """An empty record among others is skipped: the checks judge the rest."""
    traj = Trajectory.of_states(0.1, 0, 0.5 ** np.arange(60.0)[:, None, None])
    runs = [_NO_COLUMN, traj]
    assert spuas_escape(runs, KLBound.exponential(1.0, 1.0), 0.0).kind == "pass"
    assert check_summability(runs, _LIN, _LIN).kind == "pass"
    assert fit_kl_envelope(runs) == fit_kl_envelope([traj])


def test_summability_budget_overrun_is_falsified():
    # T sum of 0.5^k is 0.02 and of 0.9^k is 0.1: only the second column
    # of the second record overruns the budget 0.05, so it is trajectory 2
    k = np.arange(200)
    runs = [geometric_trajectory(0.5, 200, T=0.01),
            Trajectory.of_states(0.01, 4, np.stack([0.5 ** k, 0.9 ** k], axis=1)[:, :, None])]
    verdict = check_summability(runs, ClassKFunction.linear(1.0),
                                ClassKFunction.linear(0.05))
    assert verdict.kind == "falsified"
    assert "trajectory 2" in verdict.detail
    assert verdict.witness.k0 == 4 and verdict.witness.initial_state == (1.0,)
    assert verdict.witness.measured > verdict.witness.bound


def test_summability_harmonic_tail_is_inconclusive():
    # 1/(k+1) decays too slowly for the geometric tail certificate
    traj = Trajectory.of_states(1.0, 0, (1.0 / np.arange(1, 301)).reshape(-1, 1, 1))
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(1000.0))
    assert verdict.kind == "inconclusive"
    assert not verdict


def test_summability_short_trajectory_is_inconclusive():
    traj = geometric_trajectory(0.5, 4, T=0.1)
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(10.0))
    assert verdict.kind == "inconclusive"
    assert "too short" in verdict.detail


@settings(max_examples=20, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=0.8))
def test_summability_geometric_budget_is_sharp(r):
    """1/(1-r) is exactly the infinite sum: covering it passes, undercutting fails."""
    traj = geometric_trajectory(r, 150, T=1.0)
    mu = ClassKFunction.linear(1.0)
    exact = 1.0 / (1.0 - r)
    assert check_summability([traj], mu, ClassKFunction.linear(exact)).kind == "pass"
    short = check_summability([traj], mu, ClassKFunction.linear(0.9 * exact))
    assert short.kind == "falsified"


def driven_scalar_cascade():
    # x(k+1) = (1-T)x + Tz alongside an ignored z update
    return CascadeSystem(
        dim_x=1, dim_z=1,
        f=lambda T, k, X, Z: (1.0 - T) * np.asarray(X, dtype=float)
        + T * np.asarray(Z, dtype=float),
        g=lambda T, k, Z: (1.0 - T) * np.asarray(Z, dtype=float),
        T_max=1.0,
    )


def norm_candidate():
    return LyapunovCandidate(
        eval=lambda T, k, X: np.linalg.norm(np.asarray(X, dtype=float), axis=1),
        alpha1=ClassKFunction.linear(1.0),
        alpha2=ClassKFunction.linear(1.0),
        alpha3=ClassKFunction.linear(1.0),
        L_mod=ClassKFunction.linear(1.0),
    )


def linear_cert_params():
    return CertificateParams(
        alpha1=ClassKFunction.linear(1.0),
        alpha2=ClassKFunction.linear(1.0),
        c=0.0,
        gamma1=ClassKFunction.linear(1.0),
        gamma2=ClassKFunction.linear(1.0),
        phi=ClassKFunction.linear(1.0),
    )


def test_certificate_builds_logarithmic_budget_for_linear_growth():
    """With phi(s) = s the transform integrates to s below 1 and 1 + ln s above."""
    cert, verdict = build_ugb_certificate(
        norm_candidate(), driven_scalar_cascade(), linear_cert_params(),
        Box((-1.0, -1.0), (1.0, 1.0)), T_list=[0.1, 0.3], n_samples=256)
    assert verdict.kind == "pass"
    rho = cert.rho_built
    for s in (0.0, 0.3, 1.0, np.e, np.e ** 2, 10.0):
        expected = s if s <= 1.0 else 1.0 + np.log(s)
        assert float(rho(s)) == pytest.approx(expected, abs=1e-8)
    # mu folds both gains: gamma1 + gamma2 / phi(1)
    assert cert.mu_fn.kind == "linear"
    assert cert.mu_fn.params["gain"] == pytest.approx(2.0)


def test_certificate_slope_and_budget_shape():
    cert, verdict = build_ugb_certificate(
        norm_candidate(), driven_scalar_cascade(), linear_cert_params(),
        Box((-1.0, -1.0), (1.0, 1.0)), T_list=[0.1], n_samples=64)
    assert verdict.kind == "pass"
    s = np.linspace(0.0, 10.0, 201)
    vals = np.asarray(cert.rho_built(s), dtype=float)
    assert np.all(np.diff(vals) > 0.0)
    # concave beyond the knee at s = 1
    above = vals[s >= 1.0]
    assert np.all(np.diff(above, 2) <= 1e-12)


def test_certificate_rejects_superlinear_growth_analytically():
    params = CertificateParams(
        alpha1=ClassKFunction.linear(1.0), alpha2=ClassKFunction.linear(1.0),
        c=0.0, gamma1=ClassKFunction.linear(1.0), gamma2=ClassKFunction.linear(1.0),
        phi=ClassKFunction.power(1.0, 2.0))
    with pytest.raises(PreconditionError, match="reciprocal integral"):
        build_ugb_certificate(norm_candidate(), driven_scalar_cascade(), params,
                              Box((-1.0, -1.0), (1.0, 1.0)), T_list=[0.1])


@pytest.mark.parametrize("gain", ["gamma1", "gamma2"])
def test_certificate_rejects_nonlinear_gains(gain):
    """mu = gamma1 + gamma2 / phi(1) is formed only for linear gains."""
    params = replace(linear_cert_params(), **{gain: ClassKFunction.power(1.0, 2.0)})
    with pytest.raises(PreconditionError, match="must be linear"):
        build_ugb_certificate(norm_candidate(), driven_scalar_cascade(), params,
                              Box((-1.0, -1.0), (1.0, 1.0)), T_list=[0.1])


def _terms_never_advanced():
    pytest.fail("the certificate terms were advanced")
    yield


@pytest.mark.parametrize("bad", [{"phi": ClassKFunction.power(1.0, 2.0)},
                                 {"gamma1": ClassKFunction.affine_capped(1.0, 1.0)}])
def test_certificate_verdict_checks_its_preconditions_before_the_terms(bad):
    """The body the theorem demo calls raises the public entry's
    PreconditionError itself, before it advances its terms."""
    params = replace(linear_cert_params(), **bad)
    with pytest.raises(PreconditionError):
        _certificate_verdict(params, np.array([[0.5, 0.5]]), 1, _terms_never_advanced())


def test_certificate_rejects_wrong_domain_width():
    with pytest.raises(ValueError, match="stacked"):
        build_ugb_certificate(norm_candidate(), driven_scalar_cascade(),
                              linear_cert_params(), np.array([[0.5]]), T_list=[0.1])
    with pytest.raises(ValueError, match="stacked"):
        check_interconnection_bound(driven_scalar_cascade(), _LIN, _LIN, _LIN,
                                    Box.centered(1.0, 3), T_list=[0.1])


def test_certificate_flags_drift_without_period_factor():
    """A coupling that skips the T factor violates the input-drift clause."""
    sys = CascadeSystem(
        dim_x=1, dim_z=1,
        f=lambda T, k, X, Z: np.asarray(X, dtype=float) + np.asarray(Z, dtype=float),
        g=lambda T, k, Z: np.asarray(Z, dtype=float),
        T_max=1.0,
    )
    cert, verdict = build_ugb_certificate(
        norm_candidate(), sys, linear_cert_params(),
        np.array([[0.5, 0.5]]), T_list=[0.1], k_set=[0])
    assert verdict.kind == "falsified"
    assert verdict.detail == "input-drift bound violated"


def test_certificate_margin_keys_present_on_pass():
    _, verdict = build_ugb_certificate(
        norm_candidate(), driven_scalar_cascade(), linear_cert_params(),
        Box((-1.0, -1.0), (1.0, 1.0)), T_list=[0.1], n_samples=64)
    assert set(verdict.margins) == {"sandwich", "drift", "unforced", "transformed"}
    assert verdict.margins["unforced"] <= 1e-9
    assert verdict.margins["transformed"] <= 1e-9


# --- NaN is a violation in every audit --------------------------------


def _nan_interconnection():
    # f is NaN on rows with x > 0.5 and a contraction elsewhere
    dom = Box.centered(1.0, 2)
    f = lambda T, k, x, z: np.where(np.asarray(x)[..., :1] > 0.5, np.nan, 0.5 * np.asarray(x))
    system = CascadeSystem(1, 1, f, lambda T, k, z: z, T_max=1.0)
    verdict = check_interconnection_bound(
        system, ClassKFunction.linear(1.0), ClassKFunction.affine_capped(1.0, 0.0),
        ClassKFunction.identity(), dom, [0.1], n_samples=64, k_set=[3])
    pts = sample_box(dom, 64)
    return verdict, 3, tuple(pts[int(np.argmax(pts[:, 0] > 0.5))])


def _nan_refs():
    # omega_r(kT) is NaN from k = 30 on, with T = 0.1
    return ReferenceSignal(lambda t: 1.0 + 0.0 * np.asarray(t),
                           lambda t: np.where(np.asarray(t) < 2.95, 1.0, np.nan), 2.0)


def _nan_pe():
    # windows of ell = 10 steps reach k = 30 from start j = 20 on
    return check_pe(_nan_refs(), L=1.0, mu=0.5, T_list=[0.1]), 20, (20 * 0.1,)


def _nan_summability():
    traj = Trajectory.of_states(0.1, 0, np.array([1.0, 1.0, 1.0] + [np.nan] * 20).reshape(-1, 1, 1))
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(10.0))
    return verdict, 3, (1.0,)


@pytest.mark.parametrize("audit", [_nan_interconnection, _nan_pe, _nan_summability])
def test_nan_falsifies_at_the_first_nan_entry(audit):
    verdict, k, initial_state = audit()
    assert verdict.kind == "falsified"
    assert verdict.witness.k == k
    assert verdict.witness.initial_state == initial_state
    assert np.isnan(verdict.witness.measured)


# --- check order: the earlier check, then the smaller k, is named ------


def scaled_candidate(scale_at_k, L_gain=2.0):
    # V(T, k, y) = scale_at_k(k) * y^2 against the sandwich y^2 <= V <= y^2
    return LyapunovCandidate(
        eval=lambda T, k, Y: scale_at_k(k) * np.asarray(Y, dtype=float)[:, 0] ** 2,
        alpha1=ClassKFunction.power(1.0, 2.0),
        alpha2=ClassKFunction.power(1.0, 2.0),
        alpha3=ClassKFunction.power(1.0, 2.0),
        L_mod=ClassKFunction.linear(L_gain),
    )


@pytest.mark.parametrize("scale, update, detail", [
    # V = 2 y^2 on a contraction: upper sandwich and Lipschitz fail
    (2.0, lambda T, Y: (1.0 - T) * Y, "upper sandwich bound violated"),
    # V = y^2 on the identity: decrease and Lipschitz fail
    (1.0, lambda T, Y: Y, "decrease condition violated"),
], ids=["sandwich-before-lipschitz", "decrease-before-lipschitz"])
def test_lyapunov_audit_names_the_earlier_of_two_failing_checks(scale, update, detail):
    F = scalar_map(update, T_max=1.0)
    V = scaled_candidate(lambda k: scale, L_gain=1e-3)
    verdict = audit_lyapunov(V, F, Delta=1.0, nu=0.0, T_list=[0.1],
                             grid=np.array([[0.5], [1.0]]), k_set=[0])
    assert verdict.kind == "falsified"
    assert verdict.detail == detail


def test_lyapunov_audit_names_the_smaller_k():
    """The decrease fails at k = 0 (V doubles from k = 0 to 1) and the upper
    sandwich at k = 1; the k = 0 decrease is named."""
    F = scalar_map(lambda T, Y: Y)
    V = scaled_candidate(lambda k: 1.0 if k == 0 else 2.0)
    verdict = audit_lyapunov(V, F, Delta=1.0, nu=0.0, T_list=[0.1],
                             grid=np.array([[0.5]]), k_set=[0, 1])
    assert verdict.detail == "decrease condition violated"
    assert verdict.witness.k == 0


def test_lyapunov_audit_evaluates_V_twice_per_period_and_start():
    """V once on the grid and once on its step; the Lipschitz check reads
    the pairs off the grid values."""
    calls = []
    base = quadratic_candidate()
    V = LyapunovCandidate(lambda T, k, Y: calls.append(k) or base.eval(T, k, Y),
                          base.alpha1, base.alpha2, base.alpha3, base.L_mod)
    F = scalar_map(lambda T, Y: (1.0 - T) * Y, T_max=1.0)
    verdict = audit_lyapunov(V, F, Delta=2.0, nu=0.0, T_list=[0.1, 0.5],
                             grid=9, k_set=[0, 3, 4])
    assert verdict.kind == "pass"
    assert calls == [0, 1, 3, 4, 4, 5] * 2


def kicked_cascade(kick_at_k):
    # x(k+1) = (1-T)x + (T or 1)z: the input enters without the T factor at the kicked k
    return CascadeSystem(
        dim_x=1, dim_z=1,
        f=lambda T, k, X, Z: (1.0 - T) * np.asarray(X, dtype=float)
        + (1.0 if kick_at_k(k) else T) * np.asarray(Z, dtype=float),
        g=lambda T, k, Z: np.asarray(Z, dtype=float),
        T_max=1.0,
    )


def test_certificate_names_the_earlier_of_two_failing_checks():
    params = linear_cert_params()
    pts = np.array([[0.5, 0.5]])
    # alpha2 below V: the upper sandwich and the input drift fail
    tight = CertificateParams(params.alpha1, ClassKFunction.linear(0.5), 0.0,
                              params.gamma1, params.gamma2, params.phi)
    _, verdict = build_ugb_certificate(norm_candidate(), kicked_cascade(lambda k: True),
                                       tight, pts, T_list=[0.1], k_set=[0])
    assert verdict.detail == "upper sandwich bound violated"
    # x(k+1) = 2x + z: the input drift, unforced decrease and growth fail
    growing = CascadeSystem(1, 1, lambda T, k, X, Z: 2.0 * np.asarray(X) + np.asarray(Z),
                            lambda T, k, Z: Z, T_max=1.0)
    _, verdict = build_ugb_certificate(norm_candidate(), growing, params, pts,
                                       T_list=[0.1], k_set=[0])
    assert verdict.detail == "input-drift bound violated"
    # x(k+1) = 2x at z = 0: the unforced decrease and growth fail
    _, verdict = build_ugb_certificate(norm_candidate(), growing, params,
                                       np.array([[0.5, 0.0]]), T_list=[0.1], k_set=[0])
    assert verdict.detail == "unforced decrease violated"


def test_certificate_names_the_smaller_k():
    """The input drift fails at k = 0 only and the upper sandwich at k = 1
    only (V doubles there); the k = 0 drift is named."""
    V = LyapunovCandidate(
        eval=lambda T, k, X: (1.0 if k == 0 else 2.0) * np.abs(np.asarray(X, dtype=float)[:, 0]),
        alpha1=ClassKFunction.linear(1.0), alpha2=ClassKFunction.linear(1.0),
        alpha3=ClassKFunction.linear(1.0), L_mod=ClassKFunction.linear(1.0))
    _, verdict = build_ugb_certificate(V, kicked_cascade(lambda k: k == 0),
                                       linear_cert_params(), np.array([[0.5, 0.5]]),
                                       T_list=[0.1], k_set=[0, 1])
    assert verdict.detail == "input-drift bound violated"
    assert verdict.witness.k == 0


# --- the admissible schedule ------------------------------------------------


def _short_references(wrap=lambda fn: fn):
    """The validated references with a period of 0.2, each read through `wrap`."""
    v = validated_references()
    return ReferenceSignal(wrap(v.v_r), wrap(v.omega_r), v.w_M, 0.2)


def _schedule_entry(name, T_list, k_set, calls):
    """Run the audit `name` on maps with T_max = 0.2 and period 1 that log
    every call of f, g, a map step, V's eval and a reference into `calls`.
    `consistency_order` compares F with an unbounded copy of it, so only
    F's T_max bounds the schedule. `check_pe`'s T_max is the references'
    period, 0.2, and the chain audits' the validated closed loop's, just
    below 0.2; they take the one period of T_list and k_set as k_max."""
    def counted(fn):
        def wrapped(*args):
            calls.append(args[:2])
            return fn(*args)
        return wrapped

    sysm = CascadeSystem(1, 1, counted(lambda T, k, X, Z: 0.5 * X + T * Z),
                         counted(lambda T, k, Z: 0.5 * Z), T_max=0.2, period=1.0)
    F = ParameterizedMap(1, 0.2, counted(lambda T, k, Y: 0.5 * np.asarray(Y)), 1.0)
    V = replace(quadratic_candidate(), eval=counted(quadratic_candidate().eval))
    lin = ClassKFunction.linear(1.0)
    box = Box.centered(1.0, 2)
    refs, gains = _short_references(counted), validated_gains()
    kw = {} if k_set is None else {"k_set": k_set}
    if name == "consistency_order":
        return consistency_order(replace(F, T_max=np.inf), F, box, T_list=T_list, n_samples=8,
                                 **kw)
    if name == "check_pe":
        return check_pe(refs, 1.0, 0.1, T_list)
    if name in _CHAIN:
        (T,), kw = T_list, {} if k_set is None else {"k_max": k_set}
        if name == "compute_case_constants":
            return compute_case_constants(refs, gains, T, 2.0, grid_n=5, radius=1.0, **kw)
        consts = compute_case_constants(_short_references(), gains, 0.1, 2.0, grid_n=5, radius=1.0)
        return audit_lyapunov_chain(refs, gains, consts, T, grid_n=5, radius=1.0, **kw)
    if name == "check_interconnection_bound":
        return check_interconnection_bound(sysm, lin, lin, lin, box, T_list, n_samples=8, **kw)
    if name == "build_ugb_certificate":
        params = CertificateParams(lin, lin, 0.0, lin, lin, ClassKFunction.identity())
        return build_ugb_certificate(V, sysm, params, box, T_list, n_samples=8, **kw)
    if name == "audit_lyapunov":
        return audit_lyapunov(V, F, 1.0, 0.0, T_list, 5, **kw)
    if name == "falsify_spuas":
        return falsify_spuas(F, KLBound.exponential(1.0, 100.0), 1.0, 0.0, T_list, 5, 1.0)
    return usc_probe(sysm, 1.0, 0.5, 0.1, 1.0, T_list, [0.1], x0_count=2)


_WITH_K_SET = ("check_interconnection_bound", "build_ugb_certificate", "audit_lyapunov",
               "consistency_order")
_ENTRIES = (*_WITH_K_SET, "falsify_spuas", "usc_probe", "check_pe")
_CHAIN = ("compute_case_constants", "audit_lyapunov_chain")
_BAD_PERIODS = {"above_T_max": [0.5], "one_above_T_max": [0.1, 0.5], "zero": [0.0],
                "negative": [-0.01], "nan": [float("nan")], "empty": [], "inf": [float("inf")]}
_BAD_K_SETS = {"k_negative": [-1], "k_one_negative": [0, -3], "k_empty": []}


@pytest.mark.parametrize("name, T_list, k_set, match", [
    *(pytest.param(name, T_list, None, "nonempty" if not T_list else "admissible",
                   id=f"{name}-{label}")
      for name in _ENTRIES for label, T_list in _BAD_PERIODS.items()),
    *(pytest.param(name, [0.1], k_set, "k_set", id=f"{name}-{label}")
      for name in _WITH_K_SET for label, k_set in _BAD_K_SETS.items()),
    *(pytest.param(name, T_list, None, "admissible", id=f"{name}-{label}")
      for name in _CHAIN for label, T_list in _BAD_PERIODS.items() if len(T_list) == 1),
    *(pytest.param(name, [0.1], -1, "k_set", id=f"{name}-k_max_negative") for name in _CHAIN),
])
def test_audits_reject_an_inadmissible_schedule_before_any_map_call(name, T_list, k_set, match):
    """A period outside (0, T_max] (NaN included), an empty period list and
    an empty or negative index set say nothing about the model family the
    claim is made for: each audit raises before its first map call or
    reference read, not a pass, a falsification at that period, a fit from
    no index or a NaN-to-int error."""
    calls = []
    with pytest.raises(ValueError, match=match):
        _schedule_entry(name, T_list, k_set, calls)
    assert calls == []


def test_audits_run_the_counted_maps_on_an_admissible_schedule():
    """The same entries run, and call the maps, at an admissible schedule."""
    for name in (*_ENTRIES, *_CHAIN):
        calls = []
        _schedule_entry(name, [0.1], [0, 2] if name in _WITH_K_SET else None, calls)
        assert calls, name


@pytest.mark.parametrize("audit", ["check_interconnection_bound", "build_ugb_certificate"])
def test_one_step_audits_step_each_scheduled_sample_once(audit):
    """Tooling guard: a passing one-step audit calls f twice per scheduled
    (T, k), at z and at z = 0, and the certificate evaluates V three times
    per (T, k), at k on the samples and at k + 1 on both steps. No audit
    steps a sample twice."""
    calls = {"f": [], "V": []}
    base, cand = driven_scalar_cascade(), norm_candidate()
    sysm = replace(base, f=lambda T, k, X, Z: calls["f"].append((T, k)) or base.f(T, k, X, Z))
    V = replace(cand, eval=lambda T, k, X: calls["V"].append((T, k)) or cand.eval(T, k, X))
    box, T_list, k_set = Box((-1.0, -1.0), (1.0, 1.0)), [0.1, 0.3], [0, 2, 5]
    if audit == "check_interconnection_bound":
        verdict = check_interconnection_bound(
            sysm, ClassKFunction.linear(1.0), ClassKFunction.affine_capped(1.0, 1.0),
            ClassKFunction.identity(), box, T_list, n_samples=64, k_set=k_set)
    else:
        _, verdict = build_ugb_certificate(V, sysm, linear_cert_params(), box, T_list,
                                           n_samples=64, k_set=k_set)
    assert verdict.kind == "pass"
    scheduled = [(T, k) for T in T_list for k in k_set]
    assert Counter(calls["f"]) == Counter(scheduled * 2)
    V_at = [(T, k + step) for T, k in scheduled for step in (0, 1, 1)]
    assert Counter(calls["V"]) == (Counter(V_at) if audit == "build_ugb_certificate" else {})


# --- input checks -----------------------------------------------------------


@pytest.mark.parametrize("call, outcome", [
    (lambda: usc_probe(driven_scalar_cascade(), 1.0, 1.0, 0.1, 1.0, [0.1], [0.1]),
     (ValueError, r"need eta in \(0, Delta\)")),
    (lambda: usc_probe(driven_scalar_cascade(), 1.0, 0.5, 0.0, 1.0, [0.1], [0.1]),
     (ValueError, "need eps > 0 and L > 0")),
    (lambda: euler_map(VectorField(1, 1, lambda t, x, u: u), [1.0, 2.0]),
     (ValueError, r"held input must have shape \(1,\)")),
    (lambda: consistency_order(contraction(1.0), ParameterizedMap(2, 1.0, lambda T, k, Y: Y),
                               Box.centered(1.0, 1), T_list=[0.1]),
     (ValueError, "maps must share a state dimension")),
    (lambda: ClassKFunction("cubic"), (ValueError, "unknown kind 'cubic'")),
    (lambda: KLBound("poly"), (ValueError, "unknown form 'poly'")),
    (lambda: kl_shift(KLBound.exponential(1.0, 1.0), -0.5),
     (ValueError, "shift must be nonnegative")),
    (lambda: audit_lyapunov(quadratic_candidate(), contraction(1.0), 1.0, 0.0, [0.1],
                            np.zeros((2, 2))),
     (ValueError, "grid states must have dimension 1")),
    (lambda: falsify_spuas(object(), KLBound.exponential(1.0, 1.0), 1.0, 0.0, [0.1], 4, 1.0),
     (TypeError, "must be a CascadeSystem or a ParameterizedMap")),
    (lambda: StabilityVerdict("maybe"), (ValueError, "unknown verdict kind 'maybe'")),
    (lambda: StabilityVerdict("falsified"), (ValueError, "requires a witness")),
    (lambda: type(StabilityVerdict.ok(ratio=np.float64(0.5)).to_json()["margins"]["ratio"]),
     float),
    (lambda: rk45_integrate(lambda t, x: 1 / 0, 1.0, 1.0, np.ones((1, 2))).tolist(),
     [[1.0, 1.0]]),
], ids=["usc-eta", "usc-eps", "held-input-shape", "consistency-dims", "class-k-kind",
        "kl-form", "kl-shift-negative", "lyapunov-grid-dim", "sweep-system-type",
        "verdict-kind", "falsified-without-witness", "numpy-scalar-margin", "rk45-zero-span"])
def test_safety_branches_match_their_message_or_value(call, outcome):
    """Kept safety branches: a malformed argument raises its own message, a
    numpy scalar margin is written as a Python float, and a zero-length
    span returns its initial state without calling the right-hand side."""
    if isinstance(outcome, tuple):
        with pytest.raises(outcome[0], match=outcome[1]):
            call()
    else:
        assert call() == outcome
