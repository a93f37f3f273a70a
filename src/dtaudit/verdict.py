"""Verdict and witness records shared by the audit routines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["StabilityVerdict", "Witness"]

# absolute tolerance every audit grants a claimed bound before it falsifies
_SLACK = 1e-9


@dataclass(frozen=True)
class Witness:
    """Concrete sample demonstrating a violated bound.

    Holds everything needed to re-simulate the offending trajectory:
    the sampling period, the start index, the initial state, the index
    at which the bound failed, and the measured versus claimed values.
    """

    T: float
    k0: int
    initial_state: tuple
    k: int
    measured: float
    bound: float

    @classmethod
    def of(cls, T, k0, initial_state, k, measured, bound) -> "Witness":
        return cls(
            float(T),
            int(k0),
            tuple(float(v) for v in np.atleast_1d(initial_state)),
            int(k),
            float(measured),
            float(bound),
        )


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a grid audit: pass, falsified, or inconclusive.

    A pass is a statement about the grid only. Falsification carries a
    re-simulable `Witness`. Inconclusive verdicts explain themselves in
    `detail` (for example, a tail sum that has not visibly converged).
    `margins` holds worst-ratio summaries so near-violations are visible.
    """

    kind: str
    witness: Witness | None = None
    detail: str = ""
    margins: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("pass", "falsified", "inconclusive"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "falsified" and self.witness is None:
            raise ValueError("falsified verdict requires a witness")

    def __bool__(self) -> bool:
        return self.kind == "pass"

    @classmethod
    def ok(cls, detail: str = "", **margins) -> "StabilityVerdict":
        return cls("pass", None, detail, margins)

    @classmethod
    def falsify(cls, witness: Witness, detail: str = "", **margins) -> "StabilityVerdict":
        return cls("falsified", witness, detail, margins)

    @classmethod
    def unknown(cls, detail: str, **margins) -> "StabilityVerdict":
        return cls("inconclusive", None, detail, margins)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "detail": self.detail, "margins": _plain(self.margins)}
        if self.witness is not None:
            w = self.witness
            out["witness"] = {
                "T": w.T,
                "k0": w.k0,
                "initial_state": list(w.initial_state),
                "k": w.k,
                "measured": w.measured,
                "bound": w.bound,
            }
        return out


def _first_violation(*checks) -> StabilityVerdict | None:
    """The falsified verdict of the first failing check, or None.

    Each check is an `(ok, witness_at, detail)` entry, taken in order.
    `ok` is the pass mask of the check, any shape, stated as the
    condition that must hold (`lhs <= rhs + _SLACK`), so a NaN always
    falsifies. The first failing entry in C order is handed to
    `witness_at` as an int for a 0-d or 1-d mask and as an index tuple
    otherwise. A falsified verdict is falsy: callers test `is not None`.
    """
    for ok, witness_at, detail in checks:
        ok = np.asarray(ok, dtype=bool)
        if not ok.all():
            first = int(np.argmin(ok))
            idx = np.unravel_index(first, ok.shape) if ok.ndim > 1 else first
            return StabilityVerdict.falsify(witness_at(idx), detail)
    return None


def _first_failing_row(*oks) -> int | None:
    """The first index along the leading axis (a block's step indices) at
    which any of the pass masks `oks` fails, or None."""
    bad = np.logical_or.reduce([~np.asarray(ok).reshape(len(ok), -1).all(axis=1) for ok in oks])
    return int(np.argmax(bad)) if bad.any() else None


def _one_step(ok, T, k, pts, measured, bound, detail):
    """A `_first_violation` entry for a one-step check at (T, k) over the
    rows `pts`: its failing row j witnesses (T, k, pts[j], k, measured[j],
    bound[j])."""
    return ok, lambda j: Witness.of(T, k, pts[j], k, measured[j], bound[j]), detail


def _ratio(lhs, rhs) -> np.ndarray:
    """lhs / rhs where rhs > 0; elsewhere inf if lhs exceeds _SLACK, else 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs > 0, lhs / rhs, np.where(lhs > _SLACK, np.inf, 0.0))


def _plain(obj):
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in np.asarray(obj).tolist()] if isinstance(obj, np.ndarray) else [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
