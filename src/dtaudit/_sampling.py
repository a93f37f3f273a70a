"""Deterministic domain sampling.

Sup-norms over compact boxes and balls are approximated by unscrambled
Sobol points plus corner/axis/center points, so every audit sees the
same samples on every run and violations are reproducible by index.

The Sobol points are generated in this module, in up to 12 dimensions,
from the Joe-Kuo direction numbers (Joe and Kuo, SIAM J. Sci. Comput.
30(5), 2008) in Gray-code order (Antonov and Saleev, 1979). They equal
scipy's unscrambled sequence, `qmc.Sobol(d, scramble=False)`, bit for
bit, without the time and memory of importing scipy's statistics package.
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

    def corners(self) -> np.ndarray:
        if 2 ** self.dim > 4096:
            raise ValueError("too many corners for this dimension")
        pts = list(itertools.product(*zip(self.lo, self.hi)))
        return np.array(pts, dtype=float)

    def center(self) -> np.ndarray:
        return (np.asarray(self.lo) + np.asarray(self.hi)) / 2.0


# Joe-Kuo rows (s, a, m_1..m_s) of dimensions 2..12; dimension 1 is van der Corput
_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)), (3, 1, (1, 3, 1)), (3, 2, (1, 1, 1)),
            (4, 1, (1, 1, 3, 3)), (4, 4, (1, 3, 5, 13)), (5, 2, (1, 1, 5, 5, 17)),
            (5, 4, (1, 1, 5, 5, 5)), (5, 7, (1, 1, 7, 11, 19)), (5, 11, (1, 1, 5, 1, 1)),
            (5, 13, (1, 1, 1, 3, 11)))
_BITS = 30


def _direction_numbers() -> np.ndarray:
    """(_BITS, 12) table: row j holds direction number j of every dimension,
    as an integer with _BITS bits, so that v_j = m_j 2^(_BITS - 1 - j)."""
    rows = [[1 << (_BITS - 1 - j) for j in range(_BITS)]]
    for s, a, m in _JOE_KUO:
        v = [m_j << (_BITS - 1 - j) for j, m_j in enumerate(m)]
        for j in range(s, _BITS):
            x = v[j - s] ^ (v[j - s] >> s)
            for k in range(1, s):  # coefficient a_k is bit s-1-k of a
                if (a >> (s - 1 - k)) & 1:
                    x ^= v[j - k]
            v.append(x)
        rows.append(v)
    return np.array(rows, dtype=np.uint64).T


_DIRECTIONS = _direction_numbers()


def _sobol_unit(n: int, dim: int) -> np.ndarray:
    """The first n unscrambled Sobol points in [0, 1)^dim.

    Drawn as the power-of-two block that holds them, for the balance
    property: the reflected Gray-code order doubles the block once per
    direction number, starting from the origin.
    """
    max_dim = _DIRECTIONS.shape[1]
    if not 1 <= dim <= max_dim:
        raise ValueError(f"Sobol points need 1 <= dim <= {max_dim}, got {dim}")
    if n < 0:
        raise ValueError(f"number of Sobol points must be nonnegative, got {n}")
    if n == 0:
        return np.zeros((0, dim))
    ints = np.zeros((1, dim), dtype=np.uint64)
    for c in range(int(n - 1).bit_length()):
        ints = np.concatenate([ints, ints[::-1] ^ _DIRECTIONS[c, :dim]])
    return ints[:n] * 2.0 ** -_BITS


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

