"""Numeric failures of the in-package integrators are raised, not returned:
each error branch of `rk45_integrate` and `adaptive_simpson` is reached,
and the exact-proxy comparison turns a failed step into a divergence."""

import math

import numpy as np
import pytest

from dtaudit import _integrate, unicycle
from dtaudit._integrate import IntegrationError, QuadratureError, adaptive_simpson, rk45_integrate


def test_rk45_rejects_a_non_finite_right_hand_side():
    with pytest.raises(IntegrationError, match="non-finite right-hand side") as err:
        rk45_integrate(lambda t, x: np.full_like(x, np.inf), 0.0, 1.0, np.ones((2, 1)))
    assert err.value.t == 0.0


def test_rk45_step_size_underflows_at_a_barrier():
    """The right-hand side turns NaN past t = 0.5: every step across it is
    rejected, so the step shrinks until it underflows just before 0.5."""
    rhs = lambda t, x: -x if t < 0.5 else np.full_like(x, np.nan)
    with pytest.raises(IntegrationError, match="step size underflow") as err:
        rk45_integrate(rhs, 0.0, 1.0, np.ones((1, 1)))
    assert 0.4 < err.value.t < 0.5


def test_rk45_step_budget_is_exhausted(monkeypatch):
    monkeypatch.setattr(_integrate, "_MAX_STEPS", 3)
    with pytest.raises(IntegrationError, match="step budget exhausted") as err:
        rk45_integrate(lambda t, x: -50.0 * x, 0.0, 10.0, np.ones((1, 1)))
    assert 0.0 <= err.value.t < 10.0


def test_simpson_rejects_a_non_finite_integrand():
    with pytest.raises(QuadratureError, match="non-finite integrand") as err:
        adaptive_simpson(lambda t: math.inf if t < 0.25 else 1.0, 0.0, 1.0)
    assert err.value.interval == (0.0, 1.0)


def test_simpson_refinement_limit_at_a_jump():
    """A unit jump keeps the error of the subinterval holding it near its
    width, while the tolerance halves with the width too."""
    jump = 1.0 / math.sqrt(2.0)
    with pytest.raises(QuadratureError, match="refinement limit reached") as err:
        adaptive_simpson(lambda t: 1.0 if t < jump else 0.0, 0.0, 1.0)
    a, b = err.value.interval
    assert a <= jump <= b and 0.0 < b - a <= 2.0 ** -_integrate._MAX_DEPTH


def test_exact_proxy_step_that_fails_to_integrate_diverges(monkeypatch):
    """An `IntegrationError` in the exact-proxy plant ends the variant's run
    as a divergence at that step, with only the states before it kept."""
    monkeypatch.setattr(_integrate, "_MAX_STEPS", 0)
    refs, gains = unicycle._preset("demo", 0.01, "full")
    x0 = [0.5, -0.5, 0.1]
    states, diverged, first_bad = unicycle._simulate_variant(refs, gains, 0.01, x0, 10,
                                                             "exact-proxy", 1e6)
    assert (diverged, first_bad) == (True, 1)
    assert states.tolist() == [x0]
