"""Bundled numeric tables and their loaders.

Every certified run starts from one of these: the majorant coefficients,
the large-modulus parameter rows, the two exception-interval tables for the
prime scans, and the starting thresholds for the rho = 100 bound family.
Data lives in text files under ``data/``.  Table 4 is the one source of
each parameter row: the [block] headers of tables 5 and 6 restate rows
1-11, and the loaders check each header's (alpha, delta, rho), the numbers
the scans use, against its row.  Their m and ell columns are not read (see
notes/decisions.md, "Exception block headers").
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib.resources import files
from typing import NamedTuple

__all__ = [
    "ExceptionBlock",
    "ParamSet",
    "Table7",
    "load_table2",
    "load_table4",
    "load_table5",
    "load_table6",
    "load_table7",
    "load_table8",
]


@dataclass(frozen=True)
class ParamSet:
    """One large-modulus parameter row: plain and sqrt-count variants."""

    alpha: float
    delta: float
    rho: float
    m: float
    ell: float
    q0: int
    m_sqrt: float
    ell_sqrt: float
    q0_sqrt: int


@dataclass(frozen=True)
class ExceptionBlock:
    """The window parameters of table-4 row k, for block k, plus the
    (q, x0, x) exception intervals they leave open."""

    alpha: float
    delta: float
    rho: float
    rows: tuple[tuple[int, int, int], ...]


class Table7(NamedTuple):
    plain: dict[int, int]
    sqrt: dict[int, int]
    bands_plain: tuple[tuple[int, int, int], ...]
    bands_sqrt: tuple[tuple[int, int, int], ...]


def _lines(name: str) -> list[str]:
    text = files("apbounds").joinpath("data", name).read_text()
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]


def _num(tok: str) -> float:
    """Parse a real parameter; a/b fractions are evaluated exactly as written."""
    if "/" in tok:
        a, b = tok.split("/")
        return float(a) / float(b)
    return float(tok)


def _big(tok: str) -> int:
    """Parse a threshold that may exceed float range, as an exact integer."""
    if "e" in tok.lower():
        mant, exp = tok.lower().split("e")
        return int(mant) * 10 ** int(exp)
    return int(tok)


@lru_cache(maxsize=None)
def load_table2() -> tuple[int, ...]:
    return tuple(int(ln) for ln in _lines("table2.txt"))


@lru_cache(maxsize=None)
def load_table4() -> tuple[ParamSet, ...]:
    rows = []
    for ln in _lines("table4.txt"):
        t = ln.split()
        rows.append(ParamSet(
            alpha=_num(t[0]), delta=_num(t[1]), rho=_num(t[2]),
            m=_num(t[3]), ell=_num(t[4]), q0=_big(t[5]),
            m_sqrt=_num(t[6]), ell_sqrt=_num(t[7]), q0_sqrt=_big(t[8]),
        ))
    return tuple(rows)


def _load_exception_blocks(name: str) -> tuple[ExceptionBlock, ...]:
    """The blocks of `name`, block k checked against table-4 row k.

    A header reads [block] alpha delta rho m ell.  Its (alpha, delta, rho)
    must be row k's, else ValueError; its m and ell are not read.
    """
    params = load_table4()
    blocks: list[tuple[tuple, list]] = []
    for ln in _lines(name):
        t = ln.split()
        if t[0] == "[block]":
            k = len(blocks) + 1
            header = tuple(_num(v) for v in t[1:4])
            row = params[k - 1] if k <= len(params) else None
            if row is None or header != (row.alpha, row.delta, row.rho):
                raise ValueError(f"{name} block {k}: (alpha, delta, rho) = "
                                 f"{header} differs from table-4 row {k}")
            blocks.append((header, []))
        else:
            q, x0, x = map(int, t)
            blocks[-1][1].append((q, x0, x))
    return tuple(ExceptionBlock(*header, tuple(rows))
                 for header, rows in blocks)


@lru_cache(maxsize=None)
def load_table5() -> tuple[ExceptionBlock, ...]:
    return _load_exception_blocks("table5.txt")


@lru_cache(maxsize=None)
def load_table6() -> tuple[ExceptionBlock, ...]:
    return _load_exception_blocks("table6.txt")


@lru_cache(maxsize=None)
def load_table7() -> Table7:
    plain: dict[int, int] = {}
    sqrt: dict[int, int] = {}
    bands_plain: list[tuple[int, int, int]] = []
    bands_sqrt: list[tuple[int, int, int]] = []
    for ln in _lines("table7.txt"):
        t = ln.split()
        if t[0] == "[band-plain]":
            bands_plain.append((int(t[1]), int(t[2]), int(t[3])))
        elif t[0] == "[band-sqrt]":
            bands_sqrt.append((int(t[1]), int(t[2]), int(t[3])))
        else:
            q, x0, x0s = (int(v) for v in t)
            plain[q] = x0
            sqrt[q] = x0s
    return Table7(plain, sqrt, tuple(bands_plain), tuple(bands_sqrt))


@lru_cache(maxsize=None)
def load_table8() -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    plain: list[tuple[int, int]] = []
    sqrt: list[tuple[int, int]] = []
    for ln in _lines("table8.txt"):
        mode, m, q0 = ln.split()
        (plain if mode == "plain" else sqrt).append((int(m), int(q0)))
    return tuple(plain), tuple(sqrt)
