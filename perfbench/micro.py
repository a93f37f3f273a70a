"""Layer micro-cases: one public call each, timed on its own.

Each case reports the median microseconds per call over repeated calls
for at least `MIN_SECONDS`. The results are per-layer metrics of the
traced run and are not gated.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

MIN_SECONDS = 0.2
MIN_CALLS = 5
BATCHES = (1, 64, 4096)


def _per_call_us(fn) -> float:
    samples = []
    clock = time.perf_counter
    stop = clock() + MIN_SECONDS
    while len(samples) < MIN_CALLS or clock() < stop:
        t0 = clock()
        fn()
        samples.append(clock() - t0)
    return statistics.median(samples) * 1e6


def _example1_trajectories(experiments, seed: int) -> list:
    """The trajectory set example1 hands to `fit_kl_envelope` at this seed.

    example1 runs with its RK45 stall check and tables cut to one step,
    so only the Euler rollouts that feed the envelope fit remain.
    """
    captured = []
    fit = experiments.fit_kl_envelope

    def capture(trajectories, *args, **kwargs):
        captured.append(list(trajectories))
        return fit(captured[-1], *args, **kwargs)

    experiments.fit_kl_envelope = capture
    try:
        experiments.run_named("example1", {"nonconv_steps": 1, "table_steps": 1}, seed)
    finally:
        experiments.fit_kl_envelope = fit
    return captured[0]


def micro_metrics(seed: int) -> dict:
    """Time each micro-case; return {name: (microseconds, "us")}."""
    from dtaudit import experiments
    from dtaudit._integrate import adaptive_simpson, rk45_integrate
    from dtaudit._sampling import Box, sample_ball, sample_box
    from dtaudit.discretize import exact_proxy_map
    from dtaudit.numerics import fit_kl_envelope
    from dtaudit.unicycle import (closed_loop_euler_cascade, error_dynamics_field,
                                  validated_gains, validated_references)

    T, k = 0.01, 7
    rng = np.random.default_rng(seed)
    refs = validated_references(T)
    f = closed_loop_euler_cascade(refs, validated_gains("full")).f
    proxy = exact_proxy_map(experiments.double_integrator_field(),
                            experiments.period_scaled_feedback())
    out = {}
    for b in BATCHES:
        x = rng.uniform(-1.0, 1.0, size=(b, 2))
        z = rng.uniform(-0.5, 0.5, size=(b, 1))
        out[f"micro.unicycle_f.b{b}_us"] = _per_call_us(lambda: f(T, k, x, z))
    for b in BATCHES:
        x = rng.uniform(-1.0, 1.0, size=(b, 2))
        out[f"micro.proxy_step.b{b}_us"] = _per_call_us(lambda: proxy.step(0.1, k, x))

    # one exact-proxy interval of example1's stall check, done directly
    u = experiments.period_scaled_feedback()
    di = experiments.double_integrator_field()
    x4 = np.array([[1.0, 0.3], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    u4 = u(0.1, 0, x4)
    out["micro.rk45_us"] = _per_call_us(
        lambda: rk45_integrate(lambda t, y: di(t, y, u4), 0.0, 0.1, x4))

    # one frozen-state interval of the unicycle error field, as modified Euler does
    field = error_dynamics_field(refs)
    pts = sample_box(Box.centered(1.0, 3), 64)
    held = np.broadcast_to([0.5, 0.3], (len(pts), 2))
    out["micro.simpson_us"] = _per_call_us(
        lambda: adaptive_simpson(lambda tau: field(tau, pts, held), k * 0.1, (k + 1) * 0.1,
                                 tol=1e-12))

    out["micro.sample_box_us"] = _per_call_us(lambda: sample_box(Box.centered(1.0, 3), 4096))
    out["micro.sample_ball_us"] = _per_call_us(lambda: sample_ball(5.0, 3, 33))

    trajs = _example1_trajectories(experiments, seed)
    out["micro.fit_kl_envelope_us"] = _per_call_us(lambda: fit_kl_envelope(trajs, lam_grid=[0.5]))
    return {name: (value, "us") for name, value in out.items()}
