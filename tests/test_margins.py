"""Tests for the slack rule and its scalar and column evaluations."""
from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest

from apbounds.margins import (CHUNK_POINTS, DEFAULT_SLACK, TEXT_POINTS,
                              BoundColumn, BoundEval, ColumnBlock, _json_args,
                              slack_threshold, worst_margin)

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


def row(suite, ev, inputs):
    """The report row of one comparison, written out in the report layout."""
    return {"suite": suite, "name": ev.name, "inputs": inputs, "lhs": ev.lhs,
            "rhs": ev.rhs, "margin": ev.margin, "pass": ev.passed}


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


def test_bound_eval_holds_plain_types():
    for lhs, rhs in [(np.float64(2.0), 1), (3, np.int64(1)),
                     (np.float32(0.5), 0.25)]:
        ev = BoundEval("e", lhs, rhs)
        for v in (ev.lhs, ev.rhs, ev.margin):
            assert type(v) is float
        assert type(ev.passed) is bool
        json.dumps(row("s", ev, {}))


def test_column_records_match_bound_eval_records_point_major():
    lhs = np.array([2.0, 1.0, -0.5])
    cols = [BoundColumn("a", lhs, 1.0), BoundColumn("b", 0.75, lhs)]
    inputs = [{"i": i} for i in range(3)]
    block = ColumnBlock("s", cols, {"i": [0, 1, 2]})
    rows = list(block.records())
    want = [row("s", BoundEval(c.name, c.lhs[i], c.rhs[i]), inputs[i])
            for i in range(3) for c in cols]
    assert rows == want
    assert len(block) == len(rows) == 6
    assert [r["name"] for r in rows] == ["a", "b"] * 3
    # the rows of a point share one inputs dict
    assert all(r["inputs"] is rows[i - i % 2]["inputs"]
               for i, r in enumerate(rows))
    assert json.dumps(rows) == json.dumps(want)
    assert list(block.records(failed_only=True)) \
        == [r for r in want if not r["pass"]]


ENCODE = json.JSONEncoder(sort_keys=True).encode


def stdlib_text(block):
    return "".join(ENCODE(r) + "\n" for r in block.records())


def test_block_lines_match_stdlib_encoder():
    lhs = np.array([2.0, 1.0, -0.5, 0.1 + 0.2, 1e300, 5e-324])
    # a side equal at every point is written into the template once;
    # 0.0 and -0.0 are equal but print differently
    zeros = np.array([0.0, -0.0, 0.0, 0.0, 0.0, 0.0])
    cols = [BoundColumn("main", lhs, 1.0), BoundColumn("inv_T", 0.75, lhs),
            BoundColumn("100%[a,b)", lhs, lhs / 3),
            BoundColumn("zero", 1.0, zeros)]
    block = ColumnBlock("verify:thm1-at", cols,
                        {"q": [3, 7, 11, 2**64 + 1, 10**30, -5],
                         "x": [1.5, 1e22, 2.0**-1074, 7.0, 1e-7, 0.0],
                         "sqrt": False, "tag": "a\"b%s"})
    assert not all(r["pass"] for r in block.records())  # a failing row
    chunks = list(block.lines())
    # one string per point, holding that point's line of every column
    assert len(chunks) == block.n_points
    assert all(c.count("\n") == len(cols) and c.endswith("\n")
               for c in chunks)
    assert "".join(chunks) == stdlib_text(block)


@pytest.mark.parametrize("values", [
    np.array([3, -5, 2**63 - 1, -2**63, 0], dtype=np.int64).tolist(),
    np.array([NAN, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1 + 0.2],
             dtype=np.float64).tolist(),
    [True, False, True],
    [2**64 + 1, 10**30, -2**70],
    ["a, b", "c", 'd", "e', ", "],  # the split misses: one value at a time
    ["a,b", "c d", '"', "", "%s"],  # no ", " in any value's text
    [1, 2.5, "x, y", False],
    [],
], ids=["int64", "float64", "bool", "bigint", "comma-space", "strings",
        "mixed", "empty"])
def test_json_args_match_the_encoder_value_by_value(values):
    assert _json_args(values) == [ENCODE(v) for v in values]


def test_block_lines_write_non_finite_sides_as_json_does():
    nan, inf = math.nan, math.inf
    lhs = np.array([nan, inf, -inf, 1.0, inf, nan])
    rhs = np.array([1.0, 1.0, 1.0, nan, inf, -inf])
    with np.errstate(invalid="ignore"):  # inf - inf
        col = BoundColumn("c", lhs, rhs)
    block = ColumnBlock("s", [col],
                        {"x": [nan, inf, -inf, 1.0, 2.0, 3.0], "q": [3] * 6})
    text = "".join(block.lines())
    assert text == stdlib_text(block)
    assert "NaN" in text and "-Infinity" in text and "nan" not in text
    assert [json.loads(ln)["pass"] for ln in text.splitlines()] == [False] * 6


def test_a_side_with_an_inputs_bits_shares_its_text():
    # thm1's x_floor lhs is the input x: its text is made once per point.
    # Equal values with other bits (-0.0 and 0.0) or an int input (no
    # decimal point) keep their own text.
    x = [1.5, -0.0, NAN, 1e22, 5e-324]
    same = np.array(x)
    flipped = np.array([1.5, 0.0, NAN, 1e22, 5e-324])
    cols = [BoundColumn("same", same, 0.0), BoundColumn("flipped", flipped, 0.0),
            BoundColumn("ints", np.arange(5.0), 9.0)]
    block = ColumnBlock("s", cols, {"x": x, "q": list(range(5))})
    fields = [("in", "x"), ("in", "q"), (0, 0), (1, 0), (2, 0)]
    assert block._twins(fields) == {(0, 0): ("in", "x")}
    text = "".join(block.lines())
    assert text == stdlib_text(block)
    assert text.count('"lhs": -0.0') == 1 and text.count('"lhs": 0.0') == 2


def test_block_lines_stream_in_chunks_of_points():
    n = 2 * CHUNK_POINTS + 3
    assert n > TEXT_POINTS and n % TEXT_POINTS  # a partial last pass
    lhs = np.linspace(-1.0, 2.0, n)
    cols = [BoundColumn("a", lhs, 0.0), BoundColumn("b", 1.0, lhs)]
    block = ColumnBlock("s", cols, {"q": list(range(n)),
                                    "x": (lhs * 1e5).tolist(), "sqrt": True})
    chunks = list(block.lines())
    # the fields are made TEXT_POINTS points at a time; across the pass
    # boundaries each point still comes out as its own string
    assert [c.count("\n") for c in chunks] == [2] * n
    assert all(c.endswith("\n") for c in chunks)
    assert "".join(chunks) == stdlib_text(block)


def test_block_lines_with_no_varying_field():
    # every input shared and every side uniform: the template has no
    # placeholder, and each point still writes its lines (a % in the name
    # comes out once), past the first CHUNK_POINTS points too
    n = CHUNK_POINTS + 1
    block = ColumnBlock("s", [BoundColumn("ma%in", np.ones(n), np.zeros(n)),
                              BoundColumn("b", 2.0, np.zeros(n))],
                        {"q": 3})
    assert len(block) == 2 * n
    chunks = list(block.lines())
    assert [c.count("\n") for c in chunks] == [2] * n
    assert "".join(chunks) == stdlib_text(block)


def test_blocks_with_uniform_or_varying_sides_write_stdlib_bytes():
    # a verdict column that is uniform in one block and varies in another,
    # and a uniform side of -0.0: each block's own template writes its rows
    passing = np.array([2.0, 3.0, 4.0])
    mixed = np.array([2.0, 0.5, 4.0])
    blocks = [ColumnBlock("s", [BoundColumn("a", lhs, 1.0),
                                BoundColumn("b", 0.75, lhs)],
                          {"q": [3, 4, 5], "sqrt": True})
              for lhs in (passing, mixed, passing * 2)]
    blocks.append(ColumnBlock("s", [BoundColumn("a", passing, 1.0),
                                    BoundColumn("b", -0.0, passing)],
                              {"q": [3, 4, 5], "sqrt": False}))
    for block in blocks:
        assert "".join(block.lines()) == stdlib_text(block)


def test_block_writer_traced_peak_stays_under_budget(tmp_path):
    # the writer hands the file one point's lines at a time and makes the
    # field text TEXT_POINTS points at a time: writing 3 * CHUNK_POINTS
    # points of five columns peaks at about 0.12 MB traced (0.75 MB with
    # the text of a whole chunk at once, 2.8 MB when each chunk was joined)
    n = 3 * CHUNK_POINTS
    q = np.arange(3, 3 + n)
    x = (q * np.log(q)) ** 2.0
    lhs = np.sqrt(x) / 7.0
    cols = [BoundColumn("main", lhs, x / 1e3),
            BoundColumn("inv_T", 0.75, lhs / x),
            BoundColumn("h_over_x", lhs * 1e-3, 0.5),
            BoundColumn("x_floor", x, 1e4),
            BoundColumn("phi", np.log(x), np.log(q))]
    block = ColumnBlock("verify:thm1-at", cols,
                        {"q": q.tolist(), "x": x.tolist(), "sqrt": False})
    out = tmp_path / "block.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            fh.writelines(block.lines())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.read_text(encoding="utf-8") == stdlib_text(block)
    assert peak < 0.3e6, peak


def test_one_point_block_of_bound_evals_writes_stdlib_bytes():
    # a point's BoundEvals make a block of one point, with every input
    # shared: its lines are what the stdlib encoder writes for its rows,
    # non-finite sides, -0.0 and a failing verdict included
    with np.errstate(invalid="ignore"):
        evs = [BoundEval("nan", NAN, 1.0), BoundEval("inf", math.inf, 1.0),
               BoundEval("-inf", 1.0, math.inf),
               BoundEval("zero", -0.0, -0.5), BoundEval("fail%s", -1.0, 0.0)]
    inputs = {"q": 3, "x": 1e22, "sqrt": False}
    block = ColumnBlock("s", evs, inputs)
    assert block.n_points == 1 and len(block) == 5
    want = [ENCODE(row("s", ev, inputs)) + "\n" for ev in evs]
    assert [ENCODE(r) + "\n" for r in block.records()] == want
    assert list(block.lines()) == ["".join(want)]
    assert '"lhs": -0.0' in want[3] and '"lhs": NaN' in want[0]
    assert [r["name"] for r in block.records(failed_only=True)] \
        == [ev.name for ev in evs if not ev.passed]
    assert "zero" not in [ev.name for ev in evs if not ev.passed]
    assert math.isnan(block.worst_margin)


def test_passing_one_point_block_yields_no_failed_rows():
    # ~True is -2 on a Python bool, which is truthy: the verdict is read as
    # an array, so a passing point is not reported as failed
    block = ColumnBlock("s", [BoundEval("a", 2.0, 1.0),
                              BoundEval("b", 1.0, 0.5)], {"q": 3})
    assert all(r["pass"] for r in block.records())
    assert list(block.records(failed_only=True)) == []
    assert block.worst_margin == 0.5


def test_empty_block():
    block = ColumnBlock("s", [BoundColumn("a", np.zeros(0), np.zeros(0))],
                        {"q": [], "sqrt": False})
    assert len(block) == 0
    assert list(block.lines()) == [] == list(block.records())
    assert len(ColumnBlock("s", [], {})) == 0


def test_worst_margin_puts_nan_first_whatever_the_order():
    assert worst_margin([1.0, 0.5, 2.0]) == 0.5
    for order in ([1.0, NAN, 0.5], [NAN, 1.0, 0.5], [1.0, 0.5, NAN]):
        assert math.isnan(worst_margin(order))
    lhs = np.array([1.0, NAN, 0.5])
    block = ColumnBlock("s", [BoundColumn("a", lhs, 0.0),
                              BoundColumn("b", 1.0, np.zeros(3))],
                        {"i": [0, 1, 2]})
    assert math.isnan(block.worst_margin)
    block = ColumnBlock("s", [BoundColumn("a", np.array([1.0, 0.5]), 0.0),
                              BoundColumn("b", 0.25, np.zeros(2))],
                        {"i": [0, 1]})
    assert block.worst_margin == 0.25
