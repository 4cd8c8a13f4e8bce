"""Margin-annotated inequality evaluations.

Every verification in this package reduces to comparisons of the form
lhs >= rhs (strict at equality).  A comparison "passes" only when the
margin lhs - rhs exceeds a relative slack guard, so that a verdict is
never the accident of float rounding: the guard scales with the size of
the two sides and floors at the absolute slack itself.

`BoundEval` holds one comparison; `BoundColumn` holds the same comparison
taken at a column of inputs, as equal-length arrays.  Both judge through
`slack_threshold`, and both write report rows in one layout (`BoundEval.record`,
`column_records`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Module-wide relative slack: a margin must beat slack * max(|lhs|, |rhs|, 1).
DEFAULT_SLACK = 1e-9


def slack_threshold(lhs, rhs, slack: float = DEFAULT_SLACK):
    """slack * max(|lhs|, |rhs|, 1), elementwise when a side is an array.

    Scalars take the plain-Python route, about three times cheaper than
    numpy on one value.  A NaN side gives a NaN margin, which no threshold
    passes on either route.
    """
    if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
        return slack * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    return slack * max(abs(lhs), abs(rhs), 1.0)


def _record(suite: str, name: str, inputs: dict, lhs: float, rhs: float,
            margin: float, passed: bool) -> dict:
    """The one report row layout, for BoundEval and BoundColumn alike."""
    return {"suite": suite, "name": name, "inputs": inputs, "lhs": lhs,
            "rhs": rhs, "margin": margin, "pass": passed}


@dataclass(frozen=True)
class BoundEval:
    """One verified inequality, oriented as lhs >= rhs.

    The sides are stored as plain floats; margin and passed are derived from
    (lhs, rhs, slack) at construction, so a record is JSON-ready as it
    stands.  Exact equality counts as a failure (the underlying inequalities
    are strict).
    """

    name: str
    lhs: float
    rhs: float
    slack: float = DEFAULT_SLACK
    margin: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        lhs, rhs = float(self.lhs), float(self.rhs)
        margin = lhs - rhs
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "passed",
                           bool(margin > slack_threshold(lhs, rhs, self.slack)))

    def record(self, suite: str, inputs: dict) -> dict:
        """Serializable report row (the CLI's line format)."""
        return _record(suite, self.name, inputs, self.lhs, self.rhs,
                       self.margin, self.passed)


@dataclass(frozen=True, eq=False)
class BoundColumn:
    """One inequality at a column of inputs: lhs, rhs, margin and passed are
    equal-length arrays, element i judged exactly as BoundEval would judge
    (lhs[i], rhs[i]).  A scalar side is broadcast against the other."""

    name: str
    lhs: np.ndarray
    rhs: np.ndarray
    slack: float = DEFAULT_SLACK
    margin: np.ndarray = field(init=False)
    passed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        lhs, rhs = np.broadcast_arrays(np.asarray(self.lhs, dtype=float),
                                       np.asarray(self.rhs, dtype=float))
        margin = lhs - rhs
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "passed",
                           margin > slack_threshold(lhs, rhs, self.slack))


def column_records(suite: str, columns, inputs: list[dict]):
    """Report rows of BoundColumns over the same points, point by point.

    For point i this yields one row per column, in column order, all with
    inputs[i]; each row reads exactly as BoundEval(...).record would.
    """
    cols = [(c.name, c.lhs.tolist(), c.rhs.tolist(), c.margin.tolist(),
             c.passed.tolist()) for c in columns]
    for i, inp in enumerate(inputs):
        for name, lhs, rhs, margin, passed in cols:
            yield _record(suite, name, inp, lhs[i], rhs[i], margin[i],
                          passed[i])


def all_passed(evals) -> bool:
    """True iff every BoundEval, and every element of every BoundColumn, passed."""
    return all(np.all(e.passed) for e in evals)
