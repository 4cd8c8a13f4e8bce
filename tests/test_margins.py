"""Tests for the slack rule and its scalar and column evaluations."""
from __future__ import annotations

import json
import math

import numpy as np

from apbounds.margins import (DEFAULT_SLACK, BoundColumn, BoundEval,
                              all_passed, column_records, slack_threshold)

NAN = math.nan

# (lhs, rhs): exact equality, negative sides, sides under 1, NaN, and
# margins on either side of the guard
CASES = [
    (1.0, 1.0), (0.0, 0.0), (-3.0, -3.0),
    (-1.0, -2.0), (-2.0, -1.0), (-1e12, -1e12 - 1.0), (-1e12, -1e12 - 1e4),
    (0.5, 0.25), (1e-12, 0.0), (2e-9, 0.0), (0.2, 0.2 - 5e-10),
    (1e6, 1e6 - 1e-4), (1e6, 1e6 - 1e-2), (3.0, 3.0 + 1e-9),
    (NAN, 1.0), (1.0, NAN), (NAN, NAN),
    (math.inf, 1.0), (1.0, -math.inf),
]


def test_slack_threshold_scalar_values():
    assert slack_threshold(3.0, -7.0) == DEFAULT_SLACK * 7.0
    assert slack_threshold(0.1, -0.2) == DEFAULT_SLACK
    assert slack_threshold(-5.0, 2.0, slack=1e-3) == 5e-3


def test_column_verdicts_match_scalar_verdicts():
    lhs = np.array([c[0] for c in CASES])
    rhs = np.array([c[1] for c in CASES])
    col = BoundColumn("c", lhs, rhs)
    want = [BoundEval("c", a, b).passed for a, b in CASES]
    assert col.passed.tolist() == want
    thr = slack_threshold(lhs, rhs)
    assert thr.shape == lhs.shape
    for i, (a, b) in enumerate(CASES):
        if not (math.isnan(a) or math.isnan(b)):
            assert thr[i] == slack_threshold(a, b)
    # equality and NaN never pass; the guard scales with the larger side
    assert not any(want[i] for i in (0, 1, 2, 14, 15, 16))
    assert [want[i] for i in (5, 6, 8, 9)] == [False, True, False, True]


def test_column_broadcasts_scalar_side():
    col = BoundColumn("c", 0.05, np.array([0.01, 0.05, 0.06]))
    assert col.lhs.tolist() == [0.05] * 3
    assert col.passed.tolist() == [True, False, False]
    assert col.margin.tolist() == [0.05 - 0.01, 0.0, 0.05 - 0.06]
    assert all_passed([BoundEval("e", 1.0, 0.0), col]) is False
    assert all_passed([BoundColumn("c", 1.0, np.zeros(4))]) is True


def test_bound_eval_holds_plain_types():
    for lhs, rhs in [(np.float64(2.0), 1), (3, np.int64(1)),
                     (np.float32(0.5), 0.25)]:
        ev = BoundEval("e", lhs, rhs)
        for v in (ev.lhs, ev.rhs, ev.margin):
            assert type(v) is float
        assert type(ev.passed) is bool
        json.dumps(ev.record("s", {}))


def test_column_records_match_bound_eval_records_point_major():
    lhs = np.array([2.0, 1.0, -0.5])
    cols = [BoundColumn("a", lhs, 1.0), BoundColumn("b", 0.75, lhs)]
    inputs = [{"i": i} for i in range(3)]
    rows = list(column_records("s", cols, inputs))
    want = [BoundEval(c.name, c.lhs[i], c.rhs[i]).record("s", inputs[i])
            for i in range(3) for c in cols]
    assert rows == want
    assert [r["name"] for r in rows] == ["a", "b"] * 3
    assert all(r["inputs"] is inputs[i // 2] for i, r in enumerate(rows))
    assert json.dumps(rows) == json.dumps(want)
