"""Deterministic domain sampling.

Sup-norms over compact boxes and balls are approximated by unscrambled
Sobol points plus corner/axis/center points, so every audit sees the
same samples on every run and violations are reproducible by index.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lo, hi] in R^dim."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d and of equal length")
        if np.any(hi < lo):
            raise ValueError("box must satisfy lo <= hi componentwise")
        object.__setattr__(self, "lo", tuple(float(v) for v in lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in hi))

    @classmethod
    def centered(cls, halfwidth: float, dim: int) -> "Box":
        return cls(tuple([-float(halfwidth)] * dim), tuple([float(halfwidth)] * dim))

    @property
    def dim(self) -> int:
        return len(self.lo)

    def corners(self, cap: int = 4096) -> np.ndarray:
        if 2 ** self.dim > cap:
            raise ValueError("too many corners for this dimension")
        pts = list(itertools.product(*zip(self.lo, self.hi)))
        return np.array(pts, dtype=float)

    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0


def _sobol_unit(n: int, dim: int) -> np.ndarray:
    # Unscrambled Sobol points are deterministic; drawing a power-of-two
    # block keeps the balance property and silences the library warning.
    if n <= 0:
        return np.zeros((0, dim))
    from scipy.stats import qmc  # deferred: importing it dominates start-up

    m = int(np.ceil(np.log2(n)))
    block = qmc.Sobol(d=dim, scramble=False).random_base2(m) if m > 0 else np.zeros((1, dim))
    return block[:n]


def sample_box(box: Box, n: int = 4096) -> np.ndarray:
    """Low-discrepancy interior points plus corners and center, shape (m, dim)."""
    interior = box.lo + _sobol_unit(n, box.dim) * (np.asarray(box.hi) - np.asarray(box.lo))
    return np.vstack([interior, box.corners(), box.center()[None, :]])


def sample_ball(radius: float, dim: int, n: int = 512) -> np.ndarray:
    """Points of norm <= radius: scaled Sobol box points folded into the ball,
    plus axis extremes. Includes the origin."""
    pts = sample_box(Box.centered(radius, dim), n)
    norms = np.linalg.norm(pts, axis=1)
    over = norms > radius
    # fold corner/outer points back onto the sphere instead of discarding them
    pts[over] = pts[over] * (radius / norms[over])[:, None]
    axes = np.vstack([radius * np.eye(dim), -radius * np.eye(dim)])
    return np.vstack([pts, axes])

