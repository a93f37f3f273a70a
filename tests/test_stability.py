"""Grid audits: envelope falsification, Lyapunov checks, certificates."""

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
    Trajectory,
    audit_lyapunov,
    build_ugb_certificate,
    check_boundedness,
    check_interconnection_bound,
    check_pe,
    check_summability,
    falsify_spuas,
    sample_box,
)


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
    """nu inside the bracket is strict; the conventional form tolerates it."""
    F = scalar_map(lambda T, Y: Y)
    kwargs = dict(Delta=1.0, nu=2.0, T_list=[0.25], grid=np.array([[0.5], [1.0]]))
    strict = audit_lyapunov(quadratic_candidate(), F, decrease_form="as-printed", **kwargs)
    loose = audit_lyapunov(quadratic_candidate(), F, decrease_form="conventional", **kwargs)
    assert strict.kind == "falsified"
    assert loose.kind == "pass"


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
        audit_lyapunov(quadratic_candidate(), F, Delta=1.0, nu=0.0,
                       T_list=[0.1], grid=4, decrease_form="typo")
    with pytest.raises(ValueError):
        audit_lyapunov(quadratic_candidate(), F, Delta=1.0, nu=-0.1,
                       T_list=[0.1], grid=4)


def geometric_trajectory(ratio, n, T, z0=1.0):
    return Trajectory(T, 0, (z0 * ratio ** np.arange(n)).reshape(-1, 1, 1))


def test_summability_geometric_series_meets_exact_budget():
    """T sum of 0.9^k with T = 0.01 totals exactly 0.1, the budget s/10 at s=1."""
    traj = geometric_trajectory(0.9, 200, T=0.01)
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(0.1), T=0.01)
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio"] == pytest.approx(1.0, abs=1e-6)


def test_summability_zero_trajectory_passes():
    traj = Trajectory(0.1, 0, np.zeros((10, 1, 1)))
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(1.0), T=0.1)
    assert verdict.kind == "pass"
    assert verdict.margins["worst_ratio"] == 0.0


def test_summability_budget_overrun_is_falsified():
    # T sum of 0.5^k is 0.02 and of 0.9^k is 0.1: only the second column
    # of the second record overruns the budget 0.05, so it is trajectory 2
    k = np.arange(200)
    runs = [geometric_trajectory(0.5, 200, T=0.01),
            Trajectory(0.01, 4, np.stack([0.5 ** k, 0.9 ** k], axis=1)[:, :, None])]
    verdict = check_summability(runs, ClassKFunction.linear(1.0),
                                ClassKFunction.linear(0.05), T=0.01)
    assert verdict.kind == "falsified"
    assert "trajectory 2" in verdict.detail
    assert verdict.witness.k0 == 4 and verdict.witness.initial_state == (1.0,)
    assert verdict.witness.measured > verdict.witness.bound


def test_summability_harmonic_tail_is_inconclusive():
    # 1/(k+1) decays too slowly for the geometric tail certificate
    traj = Trajectory(1.0, 0, (1.0 / np.arange(1, 301)).reshape(-1, 1, 1))
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(1000.0), T=1.0)
    assert verdict.kind == "inconclusive"
    assert not verdict


def test_summability_short_trajectory_is_inconclusive():
    traj = geometric_trajectory(0.5, 4, T=0.1)
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(10.0), T=0.1)
    assert verdict.kind == "inconclusive"
    assert "too short" in verdict.detail


@settings(max_examples=20, deadline=None)
@given(r=st.floats(min_value=0.05, max_value=0.8))
def test_summability_geometric_budget_is_sharp(r):
    """1/(1-r) is exactly the infinite sum: covering it passes, undercutting fails."""
    traj = geometric_trajectory(r, 150, T=1.0)
    mu = ClassKFunction.linear(1.0)
    exact = 1.0 / (1.0 - r)
    assert check_summability([traj], mu, ClassKFunction.linear(exact), T=1.0).kind == "pass"
    short = check_summability([traj], mu, ClassKFunction.linear(0.9 * exact), T=1.0)
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


def test_certificate_rejects_wrong_domain_width():
    with pytest.raises(ValueError, match="stacked"):
        build_ugb_certificate(norm_candidate(), driven_scalar_cascade(),
                              linear_cert_params(), np.array([[0.5]]), T_list=[0.1])


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
    traj = Trajectory(0.1, 0, np.array([1.0, 1.0, 1.0] + [np.nan] * 20).reshape(-1, 1, 1))
    verdict = check_summability([traj], ClassKFunction.linear(1.0),
                                ClassKFunction.linear(10.0), T=0.1)
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
