"""
When the first-order model converges and the plant does not
============================================================

The double integrator under period-scaled position feedback is the
classic trap: the first-order discrete model is asymptotically stable
for every period in (0, 0.5), yet the sampled plant keeps a mode on
the unit circle, so real trajectories stall instead of decaying.

The plant is linear and the feedback is linear, so the sampled plant
has a closed form (`linear_exact_map`); the RK45 proxy that stands in
for nonlinear plants is run beside it and must agree.
"""

import numpy as np

from dtaudit import (
    Trajectory,
    double_integrator_field,
    euler_map,
    exact_proxy_map,
    fit_kl_envelope,
    linear_exact_map,
    period_scaled_feedback,
)

field = double_integrator_field()
feedback = period_scaled_feedback()
approx = euler_map(field, feedback, T_max=0.5)
# x1' = x2, x2' = u; the feedback's gain is its value on the basis
exact = linear_exact_map([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                         lambda T: feedback(T, 0, np.eye(2)).T, T_max=0.5)
proxy = exact_proxy_map(field, feedback, tol=1e-10, T_max=0.5)

# the one-step maps are linear, so two basis steps recover the matrices
def one_step_matrix(pmap, T):
    basis = np.eye(2)
    return np.stack([pmap.step(T, 0, basis[i]) for i in range(2)], axis=1)

print("closed-loop eigenvalues by period")
print(f"{'T':>6} {'first-order':>24} {'|dev from +-sqrt(1-T)|':>23} {'exact radius':>13}")
for T in (0.01, 0.1, 0.19, 0.3):
    eig_a = np.sort_complex(np.linalg.eigvals(one_step_matrix(approx, T)))
    eig_e = np.linalg.eigvals(one_step_matrix(exact, T))
    root = np.sqrt(1.0 - T)
    dev = np.max(np.abs(eig_a - np.sort_complex(np.array([-root, root]))))
    print(f"{T:6.2f} {np.array2string(eig_a, precision=4):>24} {dev:23.3e}"
          f" {np.max(np.abs(eig_e)):13.6f}")

# every first-order run fits under one exponential envelope
rng = np.random.default_rng(7)
trajs = []
for _ in range(20):
    T = rng.uniform(0.02, 0.45)
    x = rng.normal(size=2)
    states = [x]
    for k in range(int(20.0 / T)):
        x = approx.step(T, k, x)
        states.append(x)
    trajs.append(Trajectory.of_states(T, 0, np.asarray(states)[:, None]))  # one row per record
env = fit_kl_envelope(trajs)
print("\nfitted first-order decay envelope:", env.params)

# the exact model never gets anywhere near the origin
print("\nexact-model floor (min ||x(k)|| / ||x(0)|| over 2000 steps);")
print("proxy gap: the RK45 proxy's largest deviation from the closed form")
for T in (0.1, 0.3):
    x = y = np.array([1.0, 0.3])
    lo, gap = 1.0, 0.0
    for k in range(2000):
        x = exact.step(T, k, x)
        y = proxy.step(T, k, y)
        lo = min(lo, float(np.linalg.norm(x)) / np.linalg.norm([1.0, 0.3]))
        gap = max(gap, float(np.max(np.abs(x - y))))
    print(f"  T={T:4.2f}: {lo:.4f}   proxy gap {gap:.1e}")
print("\nthe model's envelope promises decay; the plant holds at ~72%")
