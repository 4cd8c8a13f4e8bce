"""Margin-annotated inequality evaluations.

Every verification in this package reduces to comparisons of the form
lhs >= rhs (strict at equality).  A comparison "passes" only when the
margin lhs - rhs exceeds a relative slack guard, so that a verdict is
never the accident of float rounding: the guard scales with the size of
the two sides and floors at the absolute slack itself.

`BoundEval` holds one comparison; `BoundColumn` holds the same comparison
taken at a column of inputs, as equal-length arrays.  Both judge through
`clears`, the one pass rule, one numpy expression for a point and a column
alike; the walks that decide without a record call it too.
A `ColumnBlock` is the one record type: a point's BoundEvals (a block of
one point) or BoundColumns over shared points, with their inputs; `_sides`
reads either kind as 1-d arrays.  A block gives its rows, in the one layout
`_record`, as dicts (`records`) or as JSON text written straight from its
arrays (`lines`, one small string per point), byte for byte what the
stdlib encoder writes for those dicts.  `worst_margin` is the one rule for
the worst of several margins: a NaN margin is the worst.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: Module-wide relative slack: a margin must beat slack * max(|lhs|, |rhs|, 1).
DEFAULT_SLACK = 1e-9


def slack_threshold(lhs, rhs, slack: float = DEFAULT_SLACK):
    """slack * max(|lhs|, |rhs|, 1), elementwise when a side is an array.

    A NaN side gives a NaN margin (and threshold), which nothing passes.
    """
    return slack * np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)


def clears(lhs, rhs, slack: float = DEFAULT_SLACK):
    """The pass rule: lhs - rhs > slack_threshold(lhs, rhs, slack),
    elementwise when a side is an array.  A NaN side never clears."""
    return lhs - rhs > slack_threshold(lhs, rhs, slack)


def _record(suite: str, name: str, inputs: dict, lhs: float, rhs: float,
            margin: float, passed: bool) -> dict:
    """The one report row layout."""
    return {"suite": suite, "name": name, "inputs": inputs, "lhs": lhs,
            "rhs": rhs, "margin": margin, "pass": passed}


@dataclass(frozen=True)
class BoundEval:
    """One verified inequality, oriented as lhs >= rhs.

    The sides are stored as plain floats; margin and passed are derived from
    (lhs, rhs, slack) at construction, so each is JSON-ready as it stands.
    Exact equality counts as a failure (the underlying inequalities are
    strict).
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
                           bool(clears(lhs, rhs, self.slack)))


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
                           clears(lhs, rhs, self.slack))


#: Points per chunk: the moduli `verify thm1-at` evaluates in one columnar
#: call (and `thm23.exact_refresh_scan` sieves the totients of), so a sweep
#: holds neither its body nor its columns whole.  notes/decisions.md has
#: the sizes that were measured.
CHUNK_POINTS = 1024

#: Points whose field text ColumnBlock.lines makes at once: the text of a
#: few points is alive at a time, not a chunk's (notes/decisions.md,
#: "Bounded passes").
TEXT_POINTS = 128

#: The one JSON encoder: every ColumnBlock line comes from it (json.dumps
#: would build one per call).
_encode = json.JSONEncoder(sort_keys=True).encode


def _json_args(values: list) -> list:
    """Each per-point input as the text the stdlib JSON encoder writes.

    One `_encode` call writes the whole list, and its text is split on the
    encoder's item separator ", ".  Only a value whose own text holds that
    separator (a string with ", " in it) changes the count of pieces; then
    each value is encoded by itself.  The text is made once per point and
    then fills every column's row.
    """
    parts = _encode(values)[1:-1].split(", ")
    if len(parts) != len(values):  # an empty list, or a ", " in a value
        parts = [_encode(v) for v in values]
    return parts


def _array_args(side: np.ndarray) -> list:
    """`%s` arguments for a side of a BoundColumn, as json writes it.

    A float prints as float.__repr__ by itself, so only the non-finite
    entries are encoded; a verdict becomes true or false.
    """
    if side.dtype == bool:
        return np.where(side, "true", "false").tolist()
    out = side.tolist()
    for i in np.flatnonzero(~np.isfinite(side)).tolist():
        out[i] = _encode(out[i])
    return out


def _uniform(side: np.ndarray) -> bool:
    """Every entry has the same bits (so -0.0 and 0.0 differ), and one text
    serves every point."""
    if len(side) == 1 or side.strides == (0,):  # one point, or broadcast
        return True
    bits = side.view(np.int64) if side.dtype == np.float64 else side
    return bool(np.all(bits == bits[0]))


def _sides(col: BoundEval | BoundColumn) -> tuple:
    """The per-point fields of a comparison's rows, in `_record` order, as
    1-d arrays: a BoundEval's float sides and bool verdict become arrays of
    one point.  (On a bool, `~True` is -2, which is truthy.)"""
    return tuple(np.atleast_1d(col.lhs, col.rhs, col.margin, col.passed))


def worst_margin(margins) -> float:
    """The smallest margin, where a NaN margin is the worst of all.

    A plain min() is order-dependent around NaN: min([1.0, nan, 0.5]) is
    0.5 but min([nan, 1.0, 0.5]) is nan.
    """
    margins = list(margins)
    return math.nan if any(math.isnan(m) for m in margins) else min(margins)


@dataclass(frozen=True, eq=False)
class ColumnBlock:
    """Report rows of comparisons over the same points, point by point.

    `columns` holds one point's BoundEvals (a block of one point) or
    BoundColumns over shared points.  `inputs` maps each input name to a
    list with one value per point or to a value shared by every point
    (anything but a list).  For point i the block holds one row per column,
    in column order, all with the same inputs, in the `_record` layout.
    """

    suite: str
    columns: tuple[BoundEval | BoundColumn, ...]
    inputs: dict
    n_points: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "n_points", len(_sides(self.columns[0])[2])
                           if self.columns else 0)

    def __len__(self) -> int:
        return self.n_points * len(self.columns)

    @cached_property
    def sides(self) -> list[tuple]:
        """Each column's `_sides`, read when a pass first asks: a block that
        waits in a report's list holds only its comparisons."""
        return [_sides(c) for c in self.columns]

    @property
    def worst_margin(self) -> float:
        # min() returns NaN when any margin is NaN, as worst_margin does
        return worst_margin(float(s[2].min()) for s in self.sides)

    def records(self, failed_only: bool = False):
        """The rows as dicts, point-major; the rows of a point share one
        inputs dict.  With `failed_only`, only the rows that failed."""
        if not len(self):
            return
        keep = np.ones(self.n_points, dtype=bool)
        if failed_only:
            keep = ~np.logical_and.reduce([s[3] for s in self.sides])
        points = np.flatnonzero(keep)
        if not points.size:
            return
        cols = [(c.name, *(side[points].tolist() for side in s))
                for c, s in zip(self.columns, self.sides)]
        for n, i in enumerate(points.tolist()):
            inp = {k: v[i] if type(v) is list else v
                   for k, v in self.inputs.items()}
            for name, lhs, rhs, margin, passed in cols:
                if not (failed_only and passed[n]):
                    yield _record(self.suite, name, inp, lhs[n], rhs[n],
                                  margin[n], passed[n])

    def _template(self) -> tuple[str, list]:
        """One point's lines as a `%`-template, and the field of each `%s`.

        The stdlib encoder writes every column's row once, with a
        placeholder string in each field that varies from point to point,
        so key order and layout come from `_record` alone.  A side that is
        the same at every point (the broadcast scalar side of a column, or
        a verdict that never changes) is written into the template as it
        stands.  A field is ("in", key) for a per-point input or (j, i)
        for side i of column j, in `_record` order.
        """
        per_point = [("in", k) for k, v in self.inputs.items()
                     if type(v) is list]
        text, fields = [], []
        for j, (c, sides) in enumerate(zip(self.columns, self.sides)):
            slots = per_point + [(j, i) for i, side in enumerate(sides)
                                 if not _uniform(side)]
            marks = {f: f"\x00{n}" for n, f in enumerate(slots)}
            inp = {k: marks.get(("in", k), v) for k, v in self.inputs.items()}
            values = [marks.get((j, i)) or side.item(0)
                      for i, side in enumerate(sides)]
            row = _encode(_record(self.suite, c.name, inp, *values))
            row = row.replace("%", "%%")
            order = sorted(marks, key=lambda f: row.index(_encode(marks[f])))
            for f in order:
                mark = _encode(marks[f])
                if row.count(mark) != 1:  # a name or input holding a mark
                    raise ValueError(f"placeholder clash in {row!r}")
                row = row.replace(mark, "%s")
            text.append(row + "\n")
            fields += order
        return "".join(text), fields

    def lines(self):
        """The rows as JSON text, one string per point.

        Each string holds the point's lines, one per column, and each line
        is byte for byte json.JSONEncoder(sort_keys=True).encode(row) plus
        a newline, for the rows that records() yields, in the same order.
        The block builds its template once, and the per-point fields are
        turned into text TEXT_POINTS points at a time; a side that is a
        per-point input, bit for bit, takes that input's text (`_twins`).
        """
        if not len(self):
            return
        template, fields = self._template()
        if not fields:  # no field varies: every point's lines are alike
            text = template % ()
            for _ in range(self.n_points):
                yield text
            return
        distinct = list(dict.fromkeys(fields))
        twins = self._twins(distinct)
        for lo in range(0, self.n_points, TEXT_POINTS):
            hi = min(lo + TEXT_POINTS, self.n_points)
            args = {f: _json_args(self.inputs[f[1]][lo:hi])
                    for f in distinct if f[0] == "in"}
            for f in distinct:
                if f[0] != "in":
                    j, i = f
                    args[f] = args[twins[f]] if f in twins \
                        else _array_args(self.sides[j][i][lo:hi])
            for row in zip(*(args[f] for f in fields)):
                yield template % row

    def _twins(self, fields: list) -> dict:
        """The float sides among `fields` whose bits equal a per-point input's
        at every point (thm1's `x_floor` lhs is the input x), each mapped
        to that input's field, whose text then serves both.  Bits, not
        values: -0.0 and 0.0 write different text.  Only an input of Python
        floats qualifies, since an int writes no decimal point."""
        floats = {f: np.array(self.inputs[f[1]]).view(np.int64)
                  for f in fields if f[0] == "in"
                  and all(type(v) is float for v in self.inputs[f[1]])}
        twins = {}
        for f in fields:
            if f[0] == "in" or self.sides[f[0]][f[1]].dtype != np.float64:
                continue
            side = self.sides[f[0]][f[1]].view(np.int64)
            for g, bits in floats.items():
                if np.array_equal(side, bits):
                    twins[f] = g
        return twins
