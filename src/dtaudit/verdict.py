"""Verdict and witness records shared by the audit routines."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
            out["witness"] = _plain(asdict(self.witness))
        return out


def _first_violation(*checks) -> StabilityVerdict | None:
    """The falsified verdict of the first failing check, or None.

    Each check is an `(ok, witness_at, detail)` entry, taken in order.
    `ok` is the pass mask of the check, stated as the condition that must
    hold (`lhs <= rhs + _SLACK`), so a NaN always falsifies. When every
    mask has two or more dimensions, the checks share a leading axis (a
    block's step indices): the witness is at the first index along it at
    which any check fails, in the first check failing there, at that
    check's first failing entry there in C order. Otherwise it is the
    first failing entry, in C order, of the first failing check. The entry
    is handed to `witness_at` as an int for a 0-d or 1-d mask and as an
    index tuple otherwise. A falsified verdict is falsy: callers test
    `is not None`.
    """
    checks = [(np.asarray(ok, dtype=bool), witness_at, detail)
              for ok, witness_at, detail in checks]
    for first, (ok, _, _) in enumerate(checks):
        if not ok.all():
            break
    else:
        return None
    lead = ()
    if min(ok.ndim for ok, _, _ in checks) >= 2:
        holds = [ok.reshape(len(ok), -1).all(axis=1) for ok, _, _ in checks]
        lead = (int(np.argmin(np.logical_and.reduce(holds))),)
        first = next(i for i, h in enumerate(holds) if not h[lead])
    ok, witness_at, detail = checks[first]
    ok = ok[lead]
    j = int(np.argmin(ok))
    idx = lead + np.unravel_index(j, ok.shape) if lead or ok.ndim > 1 else j
    return StabilityVerdict.falsify(witness_at(idx), detail)


def _one_step(ok, T, k, pts, measured, bound, detail):
    """A `_first_violation` entry for a one-step check over the rows `pts`.

    For an int k, its failing row j witnesses (T, k, pts[j], k,
    measured[j], bound[j]). For a block's step indices k, `measured` is a
    (B, n) array, `bound` broadcasts to it, and its failing entry (b, j)
    witnesses (T, k[b], pts[j], k[b], measured[b, j], bound[b, j]).
    """
    if isinstance(k, (int, np.integer)):
        return ok, lambda j: Witness.of(T, k, pts[j], k, measured[j], bound[j]), detail
    return ok, lambda bj: Witness.of(T, k[bj[0]], pts[bj[1]], k[bj[0]], measured[bj],
                                     np.broadcast_to(bound, np.shape(measured))[bj]), detail


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
