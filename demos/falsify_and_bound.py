"""
Falsifying a decay claim and replaying the witness
==================================================

A decay-envelope claim is either confirmed on a grid of periods,
starting times, and initial states, or refuted with a concrete witness
that anyone can re-simulate. Both outcomes below use the same scalar
maps: a genuine contraction and a slow expansion.
"""

import numpy as np

from dtaudit import KLBound, ParameterizedMap, falsify_spuas

def scalar(update):
    def step(T, k, y):
        y = np.asarray(y, dtype=float)
        return update(T, k, y)
    return ParameterizedMap(1, 0.2, step)

contraction = scalar(lambda T, k, y: (1.0 - 3.0 * T) * y)
expansion = scalar(lambda T, k, y: (1.0 + 0.5 * T) * y)
claim = KLBound.exponential(1.5, 1.0)   # ||y(k)|| <= 1.5 e^{-t} ||y(0)||

good = falsify_spuas(contraction, claim, Delta=2.0, nu=0.0,
                     T_list=[0.02, 0.1], grid=33, horizon=5.0)
print("contraction vs claim:", good.kind, "|", good.detail)

bad = falsify_spuas(expansion, claim, Delta=2.0, nu=0.0,
                    T_list=[0.02, 0.1], grid=33, horizon=5.0)
print("expansion vs claim:  ", bad.kind, "|", bad.detail)

w = bad.witness
print(f"\nwitness: T={w.T}, k0={w.k0}, y0={w.initial_state}, step k={w.k}")
print(f"  measured {w.measured:.6f} > allowed {w.bound:.6f}")

# replay the witness by hand: the violation is not a sampling artifact
y = np.asarray(w.initial_state, dtype=float)
for k in range(w.k0, w.k):
    y = expansion.step(w.T, k, y)
print(f"  replayed ||y({w.k})|| = {float(np.linalg.norm(y)):.6f}")
