"""Tests for the bundled parameter tables and their loaders."""
from __future__ import annotations

import dataclasses
import math
from importlib.resources import files

import pytest

from apbounds import tables
from apbounds.tables import (
    ExceptionBlock,
    ParamSet,
    load_table2,
    load_table4,
    load_table5,
    load_table6,
    load_table7,
    load_table8,
)

T5_BLOCK_SIZES = [21, 3, 0, 36, 21, 11, 0, 38, 17, 10, 13]
T6_BLOCK_SIZES = [6, 1, 0, 9, 9, 4, 0, 9, 21, 8, 10]


def test_table2_coefficients():
    a_scaled = load_table2()
    assert len(a_scaled) == 23
    # alternating signs, starting negative
    for j, a in enumerate(a_scaled):
        assert (a < 0) == (j % 2 == 0), j
    assert a_scaled[0] == -10417203
    assert a_scaled[-1] == -7417073631321810
    assert sum(a_scaled) == 14999779


def test_table4_rows():
    rows = load_table4()
    assert len(rows) == 12
    r1 = rows[0]
    assert isinstance(r1, ParamSet)
    assert (r1.alpha, r1.delta, r1.rho) == (0.5, 1.0, 30.0)
    assert (r1.m, r1.ell, r1.q0) == (70.0, 6.0, 392975)
    assert (r1.m_sqrt, r1.ell_sqrt, r1.q0_sqrt) == (130.0, 5.3, 18886967)
    # exact fraction parsing
    assert rows[1].delta == 0.5
    assert rows[2].delta == 1.0 / 3.0
    assert rows[3].alpha == 1.253 / 2
    # the huge-modulus row: exact integer 10^438
    r12 = rows[11]
    assert r12.alpha == 0.627 and r12.m == 1e10 and r12.ell == 3480.0
    assert r12.q0 == 10**438 and r12.q0_sqrt == 10**438
    assert isinstance(r12.q0, int)
    assert r12.ell_sqrt == 4100.0


def test_table5_blocks():
    blocks = load_table5()
    assert [len(b.rows) for b in blocks] == T5_BLOCK_SIZES
    b1 = blocks[0]
    assert isinstance(b1, ExceptionBlock)
    assert (b1.alpha, b1.delta, b1.rho) == (0.5, 1.0, 30.0)
    assert b1.rows[0] == (3, 23656, 193269)
    assert b1.rows[-1] == (24, 3167368, 3372409)
    # q=23 is absent from the first block (not an exception there)
    assert all(q != 23 for q, _, _ in b1.rows)
    assert blocks[2].rows == ()  # vacuous block
    assert blocks[7].rows[-1] == (48, 16711648, 16766249)
    assert blocks[10].rows[-1] == (30, 118457790, 137497186)


def test_table6_blocks():
    blocks = load_table6()
    assert [len(b.rows) for b in blocks] == T6_BLOCK_SIZES
    b1 = blocks[0]
    assert (b1.alpha, b1.delta, b1.rho) == (0.5, 1.0, 30.0)
    assert b1.rows[0] == (3, 81589, 332263)
    assert b1.rows[-1] == (8, 1169230, 1295310)
    assert blocks[1].rows == ((3, 682534, 752106),)
    assert blocks[10].rows[-1] == (30, 510034825, 528007383)


@pytest.fixture
def fresh_exception_loaders():
    """Reload tables 5 and 6 in the test, and again after it."""
    for loader in (load_table5, load_table6):
        loader.cache_clear()
    yield
    for loader in (load_table5, load_table6):
        loader.cache_clear()


@pytest.mark.parametrize("loader, name",
                         [(load_table5, "table5.txt"),
                          (load_table6, "table6.txt")])
@pytest.mark.parametrize("field", ["alpha", "delta", "rho"])
def test_exception_header_off_table4_fails_closed(
        loader, name, field, monkeypatch, fresh_exception_loaders):
    rows = list(load_table4())
    rows[6] = dataclasses.replace(rows[6], **{field: 2 * getattr(rows[6],
                                                                 field)})
    monkeypatch.setattr(tables, "load_table4", lambda: tuple(rows))
    with pytest.raises(ValueError, match=rf"^{name} block 7: "):
        loader()


def _header_m_ell(name):
    """(m, ell) of each [block] header of a data file, as written there."""
    text = files("apbounds").joinpath("data", name).read_text()
    return [tuple(tables._num(t) for t in ln.split()[4:6])
            for ln in text.splitlines() if ln.startswith("[block]")]


_T6_BLOCK7 = pytest.mark.xfail(
    strict=True, reason="table 6 block 7 reads (m, ell) = (1000, 30) where "
                        "table-4 row 7 has (m_sqrt, ell_sqrt) = (1800, 100); "
                        "the block has no rows and no verdict reads the "
                        "header's m or ell (notes/decisions.md)")


@pytest.mark.parametrize("name, k", [
    pytest.param(name, k, id=f"{name[:6]}-block{k}",
                 marks=_T6_BLOCK7 if (name, k) == ("table6.txt", 7) else ())
    for name in ("table5.txt", "table6.txt") for k in range(1, 12)])
def test_exception_header_m_ell_match_table4(name, k):
    header = _header_m_ell(name)[k - 1]
    pinned = {("table5.txt", 1): (70.0, 6.0), ("table6.txt", 1): (130.0, 5.3)}
    assert header == pinned.get((name, k), header)
    row = load_table4()[k - 1]
    assert header == ((row.m, row.ell) if name == "table5.txt"
                      else (row.m_sqrt, row.ell_sqrt))


def test_table7():
    t7 = load_table7()
    assert sorted(t7.plain) == list(range(3, 13))
    assert sorted(t7.sqrt) == list(range(3, 13))
    assert t7.plain[3] == 743717 and t7.sqrt[3] == 921530
    assert t7.plain[11] == 10928153 and t7.sqrt[11] == 14110404
    assert t7.plain[12] == 2004486 and t7.sqrt[12] == 2523895
    assert t7.bands_plain == ((13, 100, 134), (100, 5670, 37))
    assert t7.bands_sqrt == ((13, 100, 152), (100, 4200, 43))


def test_table8():
    plain, sqrt = load_table8()
    assert plain == (
        (8, 3499716160977515659),
        (9, 41350334411),
        (10, 72969656),
        (11, 2206128),
        (12, 240344),
        (13, 51304),
        (14, 16241),
        (15, 5670),
    )
    assert sqrt == (
        (14, 21269072),
        (15, 970700),
        (16, 142565),
        (17, 37239),
        (18, 13590),
        (19, 4200),
        (20, 2310),
        (21, 1398),
    )
    assert all(isinstance(q0, int) for _, q0 in plain + sqrt)


def test_table7_band_thresholds_are_squares_of_ell():
    # spot-check the band formula x0 = (mult * phi(q) * log q loglog q)^2 stays
    # above the explicit q <= 12 anchors' scale at the crossover q = 13
    t7 = load_table7()
    lo, hi, mult = t7.bands_plain[0]
    q = 13
    ell = math.log(q) * math.log(math.log(q))
    x0 = (mult * 12 * ell) ** 2
    assert 10**5 < x0 < 10**8
