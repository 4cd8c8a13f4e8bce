"""Tests for the fixed-parameter interval bounds, the exp-threshold variant,
and the explicit totient cap."""
from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import pytest

from apbounds import thm23
from apbounds.arith import phi_of
from apbounds.margins import DEFAULT_SLACK, clears
from apbounds.tables import load_table7, load_table8
from apbounds.thm23 import (
    RHO2,
    E_of,
    _a47,
    _side_evals,
    _tilde_context,
    corollary_default_n,
    ell_q,
    exact_refresh_scan,
    thm2_FG,
    thm2_context,
    thm2_tilde,
    tilde_threshold,
    verify_corollary,
    verify_thm2_at,
    verify_thm2_largeq,
    verify_thm3,
)

T7 = load_table7()
PLAIN_PAIRS, SQRT_PAIRS = load_table8()

# Frozen at the minimal starting points: the reciprocal-length side condition
# is the binding one, with these margins (60-digit recomputation, reproduced
# here in double precision).
ANCHOR_INVT_PLAIN = {
    3: 6.4173875e-9, 4: 7.731587e-9, 5: 8.6003035e-9, 6: 2.3826332e-8,
    7: 4.7798786e-9, 8: 8.5786792e-9, 9: 4.4666171e-9, 10: 1.1781791e-8,
    11: 1.3192422e-10, 12: 1.2144753e-8,
}
ANCHOR_INVT_SQRT = {
    3: 2.9111359e-8, 4: 2.9444827e-8, 5: 7.3816776e-9, 6: 1.269167e-8,
    7: 2.3368311e-9, 8: 4.0703577e-9, 9: 2.3371648e-9, 10: 7.0816356e-9,
    11: 1.5286193e-9, 12: 9.6499927e-9,
}

# The anchors sit so close to the boundary that the default relative slack
# (1e-9) would reject genuine sub-1e-9 margins; the certified slack for this
# suite is 1e-12.
ANCHOR_SLACK = 1e-12


def by_name(evals, name):
    for e in evals:
        if e.name == name:
            return e
    raise AssertionError(f"no eval named {name!r} in {[e.name for e in evals]}")


# ---------------------------------------------------------------- context / FG

def test_context_invariants():
    ctx = thm2_context(5, math.log(1e7))
    assert ctx.q == 5 and ctx.phi == 4
    L = 2 * math.log(5) + math.log(1e7)
    assert ctx.E_q == 9.3
    # plain-mode effective length parameter
    inv_T = (math.pi * phi_of(5) / math.sqrt(1e7)) * (0.5 + 100.0 / L)
    evals = verify_thm2_at(5, math.log(1e7))
    assert by_name(evals, "inv_T").rhs == pytest.approx(inv_T, rel=1e-13)
    assert thm2_context(13, 20.0).E_q == 4.0


def test_E_steps_down_after_twelve():
    assert E_of(12) == 9.3
    assert E_of(13) == 4.0
    assert E_of(13) < E_of(12)


def test_ell_q():
    assert ell_q(10) == pytest.approx(math.log(10) * math.log(math.log(10)), rel=1e-15)
    with pytest.raises(ValueError):
        ell_q(2)


def test_FG_recomputed_independently():
    # one (F, G) route for every claim: the refined swap E(q) -> _a47 first,
    # then the sqrt-count term
    q, log_x = 5, math.log(1e7)
    phi = phi_of(q)
    sx = math.sqrt(1e7)
    L = 2 * math.log(q) + log_x
    prod = (1 / math.pi) * math.log((2 / math.pi) * q * q * sx / phi) \
        * math.log((2 / math.pi) * sx / phi)
    F_want = ((prod + 13.42 * math.log(q) + 81.86 + 84.1 / phi) * phi / sx
              + (0.79 + 16.08 / L) * math.pi**2 * phi / (L * sx))
    G_want = (9.3
              + (prod + 13.42 * math.log(q)) * math.log(q * sx) * phi / sx
              - 0.747 * math.log(q)
              + (81.86 + 84.1 / phi) * L * phi / (2 * sx)
              + (0.79 + 16.08 / L) * math.pi**2 * phi / (2 * sx))
    ctx = thm2_context(q, log_x)
    for sqrt_mode in (False, True):
        for refined in (False, True):
            want = G_want
            if refined:
                want = want - 9.3 + _a47(ctx, sqrt_mode)
            if sqrt_mode:
                want = want + F_want * log_x + math.log(11 / 6)
            F, G = thm2_FG(ctx, sqrt_mode, refined)
            assert F == pytest.approx(F_want, rel=1e-14)
            assert G == pytest.approx(want, rel=1e-14), (sqrt_mode, refined)


# ---------------------------------------------------------------- anchors

@pytest.mark.parametrize("q", sorted(ANCHOR_INVT_PLAIN))
def test_anchor_plain(q):
    x0 = T7.plain[q]
    evals = verify_thm2_at(q, math.log(x0), slack=ANCHOR_SLACK)
    assert [e.name for e in evals] == ["main", "inv_T", "h_over_x"]
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    want = ANCHOR_INVT_PLAIN[q]
    assert abs(by_name(evals, "inv_T").margin - want) <= max(1e-14, 1e-3 * want)


@pytest.mark.parametrize("q", sorted(ANCHOR_INVT_SQRT))
def test_anchor_sqrt(q):
    x0 = T7.sqrt[q]
    evals = verify_thm2_at(q, math.log(x0), sqrt_mode=True, slack=ANCHOR_SLACK)
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    want = ANCHOR_INVT_SQRT[q]
    assert abs(by_name(evals, "inv_T").margin - want) <= max(1e-14, 1e-3 * want)


@pytest.mark.parametrize("sqrt_mode", [False, True])
def test_anchor_minimality(sqrt_mode):
    table = T7.sqrt if sqrt_mode else T7.plain
    for q, x0 in table.items():
        evals = verify_thm2_at(q, math.log(x0 - 1), sqrt_mode=sqrt_mode,
                               slack=ANCHOR_SLACK)
        assert not by_name(evals, "inv_T").passed, (q, x0)


def test_sqrt_inv_T_uses_enlarged_shift():
    q, x0 = 3, T7.sqrt[3]
    log_x = math.log(x0)
    phi, sx = phi_of(q), math.sqrt(x0)
    L = 2 * math.log(q) + log_x
    want = 1 / 20 - (math.pi * phi / sx) * (0.5 + (100.0 + log_x) / L)
    got = by_name(verify_thm2_at(q, log_x, sqrt_mode=True), "inv_T").margin
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("sqrt_mode,bands", [(False, "bands_plain"), (True, "bands_sqrt")])
def test_formula_bands(sqrt_mode, bands):
    for lo, hi, mult in getattr(T7, bands):
        for q in sorted({lo, lo + 1, (lo + hi) // 2, hi - 1, hi, 100}):
            if not (lo <= q <= hi):
                continue
            log_x = 2.0 * math.log(mult * phi_of(q) * ell_q(q))
            evals = verify_thm2_at(q, log_x, sqrt_mode=sqrt_mode,
                                   slack=ANCHOR_SLACK)
            assert all(e.passed for e in evals), (q, mult, sqrt_mode)


def test_pass_is_monotone_in_x():
    # once the anchor passes, larger x keeps passing (sampled consequence)
    for k in range(1, 30):
        log_x = math.log(T7.plain[3]) + 0.7 * k
        evals = verify_thm2_at(3, log_x)
        assert all(e.passed for e in evals), log_x


# ---------------------------------------------------------------- tilde layer

def test_tilde_is_pessimistic_against_exact():
    # every table-8 row, ten moduli from q0 to 10 q0: at x0(q) the majorized
    # F is no smaller, and no majorized margin is better, than the exact one
    for sqrt_mode, pairs in ((False, PLAIN_PAIRS), (True, SQRT_PAIRS)):
        for m, q0 in pairs:
            for k in range(10):
                q = int(round(q0 * 10 ** (k / 9)))
                log_x = 2.0 * math.log(m * phi_of(q) * ell_q(q))
                F, _G = thm2_FG(thm2_context(q, log_x), sqrt_mode)
                exact = {e.name: e.margin
                         for e in verify_thm2_at(q, log_x, sqrt_mode)}
                t = thm2_tilde(m, q, sqrt_mode=sqrt_mode)
                tilde = {e.name: e.margin for e in
                         _side_evals(_tilde_context(m, q), sqrt_mode, 0.0)}
                assert set(tilde) == {"inv_T", "h_over_x"}
                tilde["main"] = t.main
                assert t.F0t >= F - 1e-12, (m, q, sqrt_mode)
                for name, margin in tilde.items():
                    assert margin <= exact[name] + 1e-12, (m, q, sqrt_mode,
                                                           name)


def test_tilde_threshold_frozen():
    assert tilde_threshold(15, 5670) == 6709
    assert tilde_threshold(19, 4200, sqrt_mode=True) == 6154
    assert tilde_threshold(20, 2310, sqrt_mode=True) == 3276
    assert tilde_threshold(21, 1398, sqrt_mode=True) == 1947


@pytest.mark.parametrize("m, q0, sqrt_mode", [
    (15, 5670, False), (19, 4200, True), (20, 2310, True), (21, 1398, True)])
def test_tilde_threshold_bisects_a_monotone_margin(m, q0, sqrt_mode):
    # the bisection returns the first q that clears only if the majorized
    # main margin does not fall on [q0, q*]; walking every q shows it
    qstar = tilde_threshold(m, q0, sqrt_mode)
    mains = [thm2_tilde(m, q, sqrt_mode).main for q in range(q0, qstar + 1)]
    assert qstar > q0
    assert all(b >= a for a, b in zip(mains, mains[1:]))
    assert not clears(mains[-2], 0.0, DEFAULT_SLACK)  # q* - 1 fails
    assert clears(mains[-1], 0.0, DEFAULT_SLACK)


def test_refresh_and_handoff_take_the_run_slack():
    # at slack 1e-3 the majorized margin at the default hand-off q* = 6709
    # (8.3e-4) would fail its own record, so the hand-off moves on
    assert 0.0 < thm2_tilde(15, 6709).main < 1e-3
    qstar = tilde_threshold(15, 5670, slack=1e-3)
    assert qstar == 6710 and thm2_tilde(15, qstar).main > 1e-3
    evals = verify_thm2_largeq(15, 5670, slack=1e-3)
    assert [e.name for e in evals][-1] == "exact_refresh[5670,6710)"
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    # a refresh margin in (0, threshold] is a failure: at twice the smallest
    # margin one more modulus needs the refined form, and at slack 1 no
    # margin clears (the threshold is at least |margin|)
    d = exact_refresh_scan(15, 5670, 6709)
    assert d.min_margin > 0.0
    assert exact_refresh_scan(15, 5670, 6709,
                              slack=2.0 * d.min_margin).n_plain_fail == 330
    d1 = exact_refresh_scan(15, 5670, 6709, slack=1.0)
    assert d1.n_plain_fail == d1.n_refined_fail == len(d1.failures) == 6709 - 5670


def test_exact_refresh_rescues_m15():
    d = exact_refresh_scan(15, 5670, 6709)
    assert d.n_plain_fail == 329
    assert d.n_refined_fail == 0
    assert d.failures == ()
    assert d.min_margin > 0


def test_exact_refresh_sqrt_19_fails_honestly():
    d = exact_refresh_scan(19, 4200, 6154, sqrt_mode=True)
    assert d.n_plain_fail == 728
    assert d.n_refined_fail == 132
    assert (d.worst_q, round(d.worst_margin, 4)) == (4201, -0.8679)
    first = d.failures[:8]
    assert [q for q, _ in first] == [4201, 4203, 4205, 4207, 4211, 4213, 4217, 4219]
    want = [-0.8679, -0.0368, -0.3362, -0.5406, -0.8495, -0.6472, -0.8384, -0.8347]
    for (_, got), w in zip(first, want):
        assert got == pytest.approx(w, abs=1e-3)


def test_exact_refresh_sqrt_20_21_fail_honestly():
    d20 = exact_refresh_scan(20, 2310, 3276, sqrt_mode=True)
    assert (d20.n_plain_fail, d20.n_refined_fail) == (325, 54)
    assert (d20.worst_q, round(d20.worst_margin, 4)) == (2311, -0.8232)
    d21 = exact_refresh_scan(21, 1398, 1947, sqrt_mode=True)
    assert (d21.n_plain_fail, d21.n_refined_fail) == (173, 28)
    assert (d21.worst_q, round(d21.worst_margin, 4)) == (1399, -0.8225)


def refresh_oracle(m, q0, qstar, sqrt_mode):
    """The refresh scan one modulus at a time, phi(q) factored per q."""
    min_margin, n_plain, failures = math.inf, 0, []
    for q in range(q0, qstar):
        ctx = thm2_context(q, 2.0 * math.log(m * phi_of(q) * ell_q(q)))
        F, G = thm2_FG(ctx, sqrt_mode)
        margin = (1.0 - F) * RHO2 - G
        if not clears(margin, 0.0, DEFAULT_SLACK):
            n_plain += 1
            F, G = thm2_FG(ctx, sqrt_mode, refined=True)
            margin = (1.0 - F) * RHO2 - G
            if not clears(margin, 0.0, DEFAULT_SLACK):
                failures.append((q, margin))
        min_margin = min(min_margin, margin)
    return min_margin, n_plain, failures


@pytest.mark.parametrize("m, q0, qstar, sqrt_mode", [
    (15, 5670, 6709, False), (19, 4200, 6154, True),
    (20, 2310, 3276, True), (21, 1398, 1947, True)])
def test_exact_refresh_scan_matches_per_modulus_oracle(m, q0, qstar,
                                                        sqrt_mode,
                                                        monkeypatch):
    # the scan sieves phi a window at a time and factors no modulus for
    # it; every margin must keep the bits that phi_of per modulus gives
    with monkeypatch.context() as mp:
        mp.setattr(thm23, "phi_of", None)
        d = exact_refresh_scan(m, q0, qstar, sqrt_mode=sqrt_mode)
    min_margin, n_plain, failures = refresh_oracle(m, q0, qstar, sqrt_mode)
    assert qstar - q0 > 512  # the bundled rows span one or two windows
    assert d.min_margin.hex() == min_margin.hex()
    assert (d.n_plain_fail, d.n_refined_fail) == (n_plain, len(failures))
    assert [(q, g.hex()) for q, g in d.failures] \
        == [(q, g.hex()) for q, g in failures]
    if failures:
        worst = min(failures, key=lambda f: f[1])
        assert (d.worst_q, d.worst_margin.hex()) == (worst[0], worst[1].hex())


def test_thm2_context_takes_a_given_phi():
    for q in (3, 12, 1399, 5671):
        log_x = 2.0 * math.log(15 * phi_of(q) * ell_q(q))
        assert thm2_context(q, log_x, phi=phi_of(q)) == thm2_context(q, log_x)


NOTE = Path(__file__).resolve().parents[1] / "notes" / "decisions.md"


def test_decisions_note_lists_the_refresh_failures():
    # notes/decisions.md writes down the counterexamples behind the strict
    # xfail of the acceptance gate; it must list exactly what the scan finds
    text = NOTE.read_text(encoding="utf-8")
    for m, q0 in load_table8()[1]:
        if m not in (19, 20, 21):
            continue
        qstar = tilde_threshold(m, q0, sqrt_mode=True)
        d = exact_refresh_scan(m, q0, qstar, sqrt_mode=True)
        head = (f"### m = {m}: {len(d.failures)} moduli in "
                f"[{q0}, {qstar})\n\n```\n")
        assert head in text, head
        body = text.split(head, 1)[1].split("```", 1)[0]
        listed = [(int(q), float(g)) for q, g in
                  (ln.split() for ln in body.splitlines())]
        assert [q for q, _ in listed] == [q for q, _ in d.failures]
        for (_, got), (_, want) in zip(listed, d.failures):
            assert got == pytest.approx(want, abs=5e-7)


def test_decisions_note_recipe_prints_its_lists():
    # the note's python recipe must still run against the library and print
    # its three lists, "m q margin" per line, as they stand in the note
    text = NOTE.read_text(encoding="utf-8")
    recipe = text.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(recipe, str(NOTE), "exec"), {})
    listed = []
    for m in (19, 20, 21):
        body = text.split(f"### m = {m}: ", 1)[1].split("```\n", 1)[1]
        listed += [f"{m} {ln}" for ln in body.split("```", 1)[0].splitlines()]
    assert len(listed) == 214
    assert out.getvalue().splitlines() == listed



@pytest.mark.parametrize("m,q0", PLAIN_PAIRS)
def test_largeq_plain_rows(m, q0):
    evals = verify_thm2_largeq(m, q0)
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
    names = [e.name for e in evals]
    assert names[:4] == ["main", "inv_T", "h_over_x", "mono_scan"]
    if m == 15:
        assert names[4] == "exact_refresh[5670,6709)"
    else:
        assert len(names) == 4


@pytest.mark.parametrize("m,q0", SQRT_PAIRS)
def test_largeq_sqrt_rows(m, q0):
    evals = verify_thm2_largeq(m, q0, sqrt_mode=True)
    names = [e.name for e in evals]
    assert names[:4] == ["main", "inv_T", "h_over_x", "mono_scan"]
    for side in ("inv_T", "h_over_x", "mono_scan"):
        assert by_name(evals, side).passed
    if m <= 18:
        assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]
        assert len(names) == 4
    else:
        # genuinely false rows: the per-modulus refresh cannot rescue them
        worst = {19: -0.8679, 20: -0.8232, 21: -0.8225}[m]
        main = by_name(evals, "main")
        assert not main.passed
        assert main.margin == pytest.approx(worst, abs=1e-3)
        refresh = [e for e in evals if e.name.startswith("exact_refresh[")]
        assert len(refresh) == 1 and not refresh[0].passed


# ---------------------------------------------------------------- exp threshold

def test_thm3_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        verify_thm3(13)
    with pytest.raises(ValueError):
        verify_thm3(100, mode="other-claim")


def test_thm3_F_below_one_from_fourteen():
    evals = verify_thm3(14)
    assert [e.name for e in evals] == ["F_lt_1", "main"]
    assert by_name(evals, "F_lt_1").passed


@pytest.mark.parametrize("q,mode,refined", [
    (220, "first-claim", False),
    (221, "first-claim", False),
    (500, "sqrt-claim", False),
    (501, "sqrt-claim", False),
    (35, "first-claim", True),
    (36, "first-claim", True),
    (67, "sqrt-claim", True),
    (68, "sqrt-claim", True),
])
def test_thm3_thresholds_pass(q, mode, refined):
    evals = verify_thm3(q, mode=mode, refined=refined)
    assert all(e.passed for e in evals), [(e.name, e.margin) for e in evals]


def test_thm3_just_below_refined_thresholds_fail():
    assert not by_name(verify_thm3(34, refined=True), "main").passed
    assert not by_name(verify_thm3(66, mode="sqrt-claim", refined=True), "main").passed


def test_thm3_refined_sweep_clean():
    for q in range(35, 1001):
        assert by_name(verify_thm3(q, refined=True), "main").passed, q
    for q in range(67, 1001):
        assert by_name(verify_thm3(q, mode="sqrt-claim", refined=True), "main").passed, q


def test_thm3_refined_no_weaker_than_coarse():
    for q in range(35, 1001, 37):
        for mode in ("first-claim", "sqrt-claim"):
            coarse = by_name(verify_thm3(q, mode=mode), "main").margin
            refined = by_name(verify_thm3(q, mode=mode, refined=True), "main").margin
            assert refined >= coarse - 1e-12, (q, mode)


def test_thm3_works_beyond_float_range():
    # e^q overflows float64 for q >= 710; log-space evaluation must not
    evals = verify_thm3(1000)
    assert all(e.passed for e in evals)
    assert all(math.isfinite(e.margin) for e in evals)
    evals = verify_thm3(10**6, mode="sqrt-claim")
    assert all(math.isfinite(e.margin) for e in evals)


# ---------------------------------------------------------------- totient cap

def test_corollary_default_n():
    assert corollary_default_n(3) == 154
    for q in (5, 11, 101):
        assert corollary_default_n(q) == math.ceil(70 * phi_of(q) * math.log(q))


def test_corollary_reference_point():
    evals = verify_corollary(3, 154)
    assert [e.name for e in evals] == ["main", "growth", "exp_pos"]
    assert all(e.passed for e in evals)
    assert by_name(evals, "main").margin == pytest.approx(917.2, rel=1e-3)
    assert by_name(evals, "growth").margin == pytest.approx(10.38, rel=1e-3)


def test_corollary_sample_sweep():
    for q in list(range(3, 200)) + [997, 5040, 9973]:
        evals = verify_corollary(q, corollary_default_n(q))
        assert all(e.passed for e in evals), q


def test_corollary_small_n_fails_cleanly():
    evals = verify_corollary(3, 10)
    assert not by_name(evals, "growth").passed
    assert not by_name(evals, "exp_pos").passed
    assert not by_name(evals, "main").passed
    assert all(math.isfinite(e.lhs) and math.isfinite(e.rhs) for e in evals)


def test_corollary_rejects_tiny_modulus():
    with pytest.raises(ValueError):
        verify_corollary(2, 100)
