"""Half-line coding ranges, slope enclosures, and coordinate reversal.

W read off an automorphism's window (window_w) is cross-checked against the
literal two-point quantifier oracles on every system in a small pool, on
the one-edge codes and on the marker involutions, and the oracles'
one-output-per-group form against the pairwise comparison, on that pool,
on codes that are not automorphisms and on the acceptance suite's seeded
stream (window-1 codes read at an offset); the oracles read edge columns,
never word tuples, and see a group whole across chunks; the profile values
for the named examples are frozen from independent hand calculation (shift
powers code exactly by their exponent; the product examples code track by
track).  W read off each
iterate's window is the largest coded coordinate by the literal oracles on
the builtins and the marker involutions: nothing beyond an automorphism's
window is coded.
"""

from fractions import Fraction
import itertools
import random

import numpy as np
import pytest

from conftest import assert_w_attained_and_maximal, rule_code
from sftlab.builtins import DEFAULT_SUITE, make_builtin, product_automorphism, shift_builtin
from sftlab.coding_range import (
    coded_minus_naive,
    coded_plus_naive,
    coding_range_profile,
    lyapunov_bounds,
    reverse_automorphism,
    w_values,
    window_w,
)
from sftlab.codes import (
    RuleView,
    SlidingBlockCode,
    _RuleItems,
    codes_equal,
    compose,
    identity_code,
    inverse_shift_code,
    power,
    shift_code,
    verify_automorphism,
)
from sftlab.errors import PreconditionFailed, WindowBudgetExceeded
from sftlab.reports import _random_code
from sftlab.shifts import (
    WORD_CHUNK,
    EdgeShift,
    build_edge_shift,
    kronecker_product,
    transpose_shift,
    window_budget,
)


# -- frozen profiles for the named examples ---------------------------------


def test_shift_profile_is_linear():
    _, auto = make_builtin("shift")
    p = coding_range_profile(auto, 3)
    assert p.w_minus == (-1, -2, -3)
    assert p.w_plus == (-1, -2, -3)
    assert p.w_minus_inv == (1, 2, 3)
    assert p.w_plus_inv == (1, 2, 3)
    assert p.a_minus == (2, 4, 6)
    assert p.a_plus == (0, 0, 0)


def test_tau_profile():
    _, auto = make_builtin("tau_golden")
    p = coding_range_profile(auto, 4)
    assert p.w_minus == (0, 0, 0, 0)
    assert p.w_plus == (1, 2, 3, 4)
    assert p.w_minus_inv == (-1, -2, -3, -4)
    assert p.w_plus_inv == (0, 0, 0, 0)
    assert p.a_minus == (1, 2, 3, 4)
    assert p.a_plus == (1, 2, 3, 4)


def test_sigma_x_sigma_inv_profile():
    _, auto = make_builtin("sigma_x_sigma_inv")
    p = coding_range_profile(auto, 2)
    assert p.w_minus == (-1, -2)
    assert p.w_plus == (1, 2)
    assert p.w_minus_inv == (-1, -2)
    assert p.w_plus_inv == (1, 2)


def test_vertex_swap_profile_is_zero():
    _, auto = make_builtin("vertex_swap_B")
    p = coding_range_profile(auto, 2)
    assert p.w_minus == p.w_plus == p.w_minus_inv == p.w_plus_inv == (0, 0)


def test_five_symbol_profile():
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    p = coding_range_profile(auto, 2)
    assert p.w_minus == (-1, -2)
    assert p.w_plus == (1, 2)


def test_profile_at_accessor():
    _, auto = make_builtin("shift")
    p = coding_range_profile(auto, 3)
    v = p.at(2)
    assert (v.n, v.minus, v.plus, v.minus_inv, v.plus_inv) == (2, -2, -2, 2, 2)


@pytest.mark.parametrize("name,params", DEFAULT_SUITE, ids=[n for n, _ in DEFAULT_SUITE])
def test_profile_walk_matches_powers_built_from_scratch(name, params):
    # the profile builds phi^n from phi^(n-1); w_values composes phi^n anew
    _, auto = make_builtin(name, dict(params))
    p = coding_range_profile(auto, 3)
    for n in (1, 2, 3):
        assert p.at(n) == w_values(auto, n)
    assert coding_range_profile(auto.inverse_automorphism(), 3) == p.inverse()


def test_w_values_rejects_bad_n():
    _, auto = make_builtin("shift")
    with pytest.raises(ValueError):
        w_values(auto, 0)


def test_profile_rejects_bad_n_max():
    _, auto = make_builtin("shift")
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        coding_range_profile(auto, 0)


def test_w_values_budget():
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    with pytest.raises(WindowBudgetExceeded), window_budget(20):
        w_values(auto, 2)


# -- slope enclosures -------------------------------------------------------


def _bounds(auto, n_max):
    return lyapunov_bounds(auto, coding_range_profile(auto, n_max))


def test_shift_slopes_exact():
    _, auto = make_builtin("shift")
    b = _bounds(auto, 3)
    assert b.alpha_minus == (Fraction(-1), Fraction(-1))
    assert b.alpha_plus == (Fraction(-1), Fraction(-1))
    assert b.method == "exact-shift-power"
    assert b.verdict == "certified-not-distorted"
    assert not b.distorted_candidate()


def test_tau_slopes_exact_product():
    _, auto = make_builtin("tau_golden")
    b = _bounds(auto, 4)
    assert b.alpha_minus == (Fraction(0), Fraction(0))
    assert b.alpha_plus == (Fraction(1), Fraction(1))
    assert b.method == "exact-product"


def test_golden_times_cycle_slopes_are_exact():
    # the identity on a 2-cycle is a zero-entropy track, which codes every
    # coordinate: only the golden track's exponent enters the slopes
    _, sigma = make_builtin("shift", {"shift": shift_builtin("golden_mean")})
    _, ident = make_builtin("identity", {"shift": build_edge_shift([[0, 1], [1, 0]])})
    prod = kronecker_product(sigma.shift, ident.shift)
    auto = product_automorphism(sigma, ident, prod)
    assert prod.irreducible and prod.positive_entropy
    p = coding_range_profile(auto, 3)
    assert p.w_minus == (-1, -2, -3)
    b = lyapunov_bounds(auto, p)
    assert b.alpha_minus == b.alpha_plus == (Fraction(-1), Fraction(-1))
    assert b.method == "exact-product"


def test_vertex_swap_enclosure_contains_zero():
    _, auto = make_builtin("vertex_swap_B")
    b = _bounds(auto, 2)
    assert b.alpha_minus == (Fraction(0), Fraction(0))
    assert b.alpha_plus == (Fraction(0), Fraction(0))
    assert b.method == "interval"  # a finite-order map is no shift power
    assert b.distorted_candidate()


def test_five_symbol_enclosure_straddles():
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    b = _bounds(auto, 2)
    assert b.alpha_minus == (Fraction(-1), Fraction(1))
    assert b.alpha_plus == (Fraction(-1), Fraction(1))
    assert b.verdict == "consistent-with-distortion"


# -- coordinate reversal ----------------------------------------------------


@pytest.mark.parametrize(
    "name,params",
    [
        ("shift", {}),
        ("tau_golden", {}),
        ("vertex_swap_B", {}),
        ("sigma_x_sigma_inv", {}),
    ],
)
def test_reversal_swaps_and_negates_w(name, params):
    _, auto = make_builtin(name, dict(params))
    tshift, rev, bij = reverse_automorphism(auto)
    assert tshift.matrix == tuple(zip(*auto.shift.matrix))
    assert sorted(bij) == list(range(auto.shift.n_edges))
    p = coding_range_profile(auto, 2)
    rp = coding_range_profile(rev, 2)
    assert rp.w_minus == tuple(-x for x in p.w_plus)
    assert rp.w_plus == tuple(-x for x in p.w_minus)
    assert rp.w_minus_inv == tuple(-x for x in p.w_plus_inv)
    assert rp.w_plus_inv == tuple(-x for x in p.w_minus_inv)


def test_double_reversal_restores_behaviour():
    _, auto = make_builtin("tau_golden")
    _, rev, bij = reverse_automorphism(auto)
    _, back, bij2 = reverse_automorphism(rev)
    assert tuple(bij2[e] for e in bij) == tuple(range(auto.shift.n_edges))
    assert codes_equal(auto.forward, back.forward)


# -- W read off the window against the literal oracles -----------------------

ORACLE_POOL = [
    ("shift", {}),
    ("inverse_shift", {}),
    ("vertex_swap_B", {}),
    ("tau_golden", {}),
    ("full_shift_symbol_permutation", {"n": 3, "permutation": (2, 0, 1)}),
]


# The literal oracles in their pairwise form, which compares every two
# windows of a group: the reference for the one-output-per-group form.


def pairwise_minus(code, j):
    m, a = code.memory, code.anticipation
    if j + a <= 0:
        return True
    rule = dict(code.rule.items())
    shift = code.source
    if j - m <= 0:
        for w in shift.words(m - j + 1):
            tails = list(shift.words(j + a, start_state=shift.target(w[-1])))
            if any(rule[w + u] != rule[w + v] for u in tails for v in tails):
                return False
        return True
    reach = shift.reach_exact(j - m - 1)
    windows = list(shift.words(m + a + 1))
    for s in range(shift.k):
        group = [w for w in windows if reach[s][shift.source(w[0])]]
        if any(rule[u] != rule[v] for u in group for v in group):
            return False
    return True


def pairwise_plus(code, j):
    m, a = code.memory, code.anticipation
    if j - m >= 0:
        return True
    rule = dict(code.rule.items())
    shift = code.source
    if j + a >= 0:
        for w in shift.words(j + a + 1):
            heads = [
                u for u in shift.words(m - j) if shift.target(u[-1]) == shift.source(w[0])
            ]
            if any(rule[u + w] != rule[v + w] for u in heads for v in heads):
                return False
        return True
    reach = shift.reach_exact(-(j + a) - 1)
    windows = list(shift.words(m + a + 1))
    for s in range(shift.k):
        group = [w for w in windows if reach[shift.target(w[-1])][s]]
        if any(rule[u] != rule[v] for u in group for v in group):
            return False
    return True


def test_set_form_oracles_match_the_pairwise_reference_on_the_acceptance_stream():
    # the first 100 cases of acceptance criterion 12's seeded stream
    rng = random.Random(20260823)
    pool = [
        build_edge_shift([[2]]),
        build_edge_shift([[3]]),
        build_edge_shift([[4]]),
        shift_builtin("golden_mean"),
    ]
    for case in range(100):
        code = _random_code(rng, pool[rng.randrange(len(pool))])
        j = rng.randint(-5, 5)
        assert coded_minus_naive(code, j) == pairwise_minus(code, j), case
        assert coded_plus_naive(code, j) == pairwise_plus(code, j), case


# Each branch of each oracle on a code that outputs edge 0 everywhere but on
# one window: that window's group then has two outputs.  The odd window is a
# given one, then the first and the last in rank order, so the oracles must
# catch it whether it opens its group or comes after all of it.  The 2-state full shift has groups that the state splits (reach over
# 0 steps).
FULL_2X2 = build_edge_shift([[1, 1], [1, 1]])


def _one_window_differs(memory, anticipation, rank):
    column = np.zeros(FULL_2X2.word_count(memory + anticipation + 1), dtype=np.uint8)
    code = SlidingBlockCode.from_column(FULL_2X2, FULL_2X2, memory, anticipation, column)
    odd = column.copy()
    odd[rank] = 1
    return code, SlidingBlockCode.from_column(FULL_2X2, FULL_2X2, memory, anticipation, odd)


@pytest.mark.parametrize(
    "side,memory,anticipation,j,window",
    [
        ("minus", 1, 1, 0, (1, 2, 1)),  # shared prefix: j - m <= 0 < j + a
        ("minus", 0, 1, 1, (2, 1)),  # reach group: j - m > 0
        ("plus", 1, 1, 0, (1, 2, 1)),  # shared suffix: j - m < 0 <= j + a
        ("plus", 1, 0, -1, (0, 1)),  # reach group: j + a < 0
    ],
)
def test_one_odd_window_makes_its_group_uncoded(side, memory, anticipation, j, window):
    naive, pairwise = {
        "minus": (coded_minus_naive, pairwise_minus),
        "plus": (coded_plus_naive, pairwise_plus),
    }[side]
    for rank in (FULL_2X2.rank_of(window), 0, -1):
        constant, odd = _one_window_differs(memory, anticipation, rank)
        assert naive(constant, j) is True and pairwise(constant, j)
        assert naive(odd, j) is False, rank
        assert not pairwise(odd, j), rank


# An irreducible shift whose reach is not symmetric (the cycle 0 -> 1 -> 2 -> 0
# plus a loop at 0), so the far groups differ when read along the paths and
# against them.  Each code outputs edge 0 or 1 by the state at the window's
# end on the far side.
CYCLE_WITH_LOOP = build_edge_shift([[1, 1, 0], [0, 0, 1], [1, 0, 0]])


@pytest.mark.parametrize("side", ["minus", "plus"])
def test_far_groups_follow_the_paths(side):
    shift = CYCLE_WITH_LOOP
    naive, pairwise, state_at_end = {
        "minus": (coded_minus_naive, pairwise_minus, lambda w: shift.source(w[0])),
        "plus": (coded_plus_naive, pairwise_plus, lambda w: shift.target(w[-1])),
    }[side]
    seen = set()
    for g in itertools.product((0, 1), repeat=shift.k):
        for m, a in ((0, 0), (1, 0), (0, 1)):
            words = shift.words(m + a + 1)
            column = np.array([g[state_at_end(w)] for w in words], dtype=np.uint8)
            code = SlidingBlockCode.from_column(shift, shift, m, a, column)
            for j in range(-4, 5):
                expected = pairwise(code, j)
                assert naive(code, j) == expected, (g, m, a, j)
                seen.add(expected)
    assert seen == {True, False}


def _assert_w_read_matches_naive(code, js):
    """On an automorphism's code, (-inf, 0] codes j iff j <= W^-, and
    [0, +inf) codes j iff j >= W^+, by the literal oracles."""
    minus, plus = window_w(code)
    for j in js:
        assert coded_minus_naive(code, j) == (j <= minus), j
        assert coded_plus_naive(code, j) == (j >= plus), j


@pytest.mark.parametrize("name,params", ORACLE_POOL)
def test_grouped_scan_matches_naive(name, params):
    _, auto = make_builtin(name, dict(params))
    for code in (auto.forward, auto.inverse, auto.power(2)):
        _assert_w_read_matches_naive(code, range(-4, 5))
        for j in range(-4, 5):
            assert coded_minus_naive(code, j) == pairwise_minus(code, j), (name, j)
            assert coded_plus_naive(code, j) == pairwise_plus(code, j), (name, j)


@pytest.mark.parametrize("name,params", ORACLE_POOL)
def test_oracles_read_columns_not_word_tuples(name, params, monkeypatch):
    _, auto = make_builtin(name, dict(params))
    codes = (auto.forward, auto.inverse, auto.power(2))
    cases = [(c, j) for c in codes for j in range(-4, 5)]
    expected = [(pairwise_minus(c, j), pairwise_plus(c, j)) for c, j in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle read word tuples")

    monkeypatch.setattr(EdgeShift, "words", refuse)
    monkeypatch.setattr(RuleView, "__iter__", refuse)
    monkeypatch.setattr(_RuleItems, "__iter__", refuse)
    for (c, j), want in zip(cases, expected):
        assert (coded_minus_naive(c, j), coded_plus_naive(c, j)) == want, (name, j)


# A group that spans chunks: on the full 2-shift a window of 16 edges has
# 65,536 words in 4 chunks, and the words agreeing on all but the first
# edge sit 2^15 ranks apart, one in chunk 0 or 1 and the other in chunk 2
# or 3.  Output the first edge and each such group has two outputs.
def test_a_group_spanning_chunks_is_read_whole():
    shift = build_edge_shift([[2]])
    assert len(list(shift.ranked_words(16))) == 4
    first_edge = np.arange(2**16) >> 15
    for column, coded in ((first_edge, False), (np.zeros_like(first_edge), True)):
        code = SlidingBlockCode.from_column(shift, shift, 1, 14, column)
        assert coded_plus_naive(code, 0) == coded  # agreed: edges 1..15


# -- the window statistics at their edge cases --------------------------------


def test_constant_code_has_no_changes():
    shift = build_edge_shift([[2]])
    column = np.zeros(shift.word_count(3), dtype=np.uint8)
    code = SlidingBlockCode.from_column(shift, shift, 1, 1, column)
    assert (code.prefix_lcp, code.suffix_lcp) == (-1, -1)
    for j in range(-4, 5):  # a constant code codes every coordinate
        assert coded_minus_naive(code, j) and pairwise_minus(code, j), j
        assert coded_plus_naive(code, j) and pairwise_plus(code, j), j


@pytest.mark.parametrize(
    "build,lcps",
    [(identity_code, (0, 0)), (shift_code, (1, 0)), (inverse_shift_code, (0, 1))],
)
def test_far_branch_decides_when_one_edge_does(build, lcps):
    # D = 0 on a side: the output is a bijection of the window's edge at the
    # far end of that side, so nothing beyond the window is coded, which the
    # oracles' reach test finds
    for shift in (build_edge_shift([[2]]), FULL_2X2, CYCLE_WITH_LOOP):
        code = build(shift)
        assert (code.prefix_lcp, code.suffix_lcp) == lcps
        _assert_w_read_matches_naive(code, range(-4, 5))


def test_window_statistic_reads_across_chunks():
    # the 2^16 windows of the full 2-shift walk in four chunks, and the one
    # change of output is at the first boundary: ranks 16383 and 16384 are
    # 0011...1 and 0100...0, which share one edge; the output reads the
    # window's first two edges, at j - 15 and j - 14
    column = (np.arange(2**16) >= WORD_CHUNK).astype(np.uint8)
    code = SlidingBlockCode.from_column(FULL_2, FULL_2, 15, 0, column)
    assert code.prefix_lcp == 1
    coded = [(coded_minus_naive(code, j), coded_plus_naive(code, j)) for j in range(13, 17)]
    assert coded == [(True, False), (True, False), (False, True), (False, True)]


def test_transpose_record_is_kept():
    symmetric = build_edge_shift([[1, 2], [2, 0]])
    record = transpose_shift(symmetric)
    assert record[0] is symmetric
    assert transpose_shift(symmetric) is record
    assert record[1] == (0, 3, 4, 1, 2)  # (s, t, c) -> (t, s, c)
    tshift, bijection = transpose_shift(CYCLE_WITH_LOOP)
    assert tshift is not CYCLE_WITH_LOOP and transpose_shift(CYCLE_WITH_LOOP)[0] is tshift
    back = transpose_shift(tshift)
    assert back[0] is CYCLE_WITH_LOOP
    assert [back[1][bijection[e]] for e in range(CYCLE_WITH_LOOP.n_edges)] == list(
        range(CYCLE_WITH_LOOP.n_edges)
    )


# -- generated automorphisms: marker involutions on the full 2-shift ---------
#
# m flips x_0 iff (x_-2, x_-1, x_1, x_2) = 0010, and m' does so for 0100.
# The contexts cannot overlap a flipped coordinate, so each is an
# involution.  Their products read wide windows, which no builtin does.

FULL_2 = build_edge_shift([[2]])


def _marker(context):
    rule = {w: w[2] ^ (w[:2] + w[3:] == context) for w in FULL_2.words(5)}
    return verify_automorphism(*[rule_code(FULL_2, 2, 2, rule)] * 2)


MARKER = _marker((0, 0, 1, 0))
MARKER_PRIME = _marker((0, 1, 0, 0))


def _composed(outer, inner):
    """outer o inner, certified."""
    return verify_automorphism(
        compose(outer.forward, inner.forward), compose(inner.inverse, outer.inverse)
    )


def test_marker_product_profile():
    p = coding_range_profile(_composed(MARKER, MARKER_PRIME), 2)
    assert p.w_minus == p.w_minus_inv == (-4, -8)
    assert p.w_plus == p.w_plus_inv == (4, 8)


def test_shifted_marker_profile():
    _, sigma = make_builtin("shift", {"shift": FULL_2})
    p = coding_range_profile(_composed(sigma, MARKER), 3)
    assert p.w_minus == (-3, -2, -5)
    assert p.w_plus == (1, -2, -1)
    assert p.w_minus_inv == (-1, 2, 1)
    assert p.w_plus_inv == (3, 2, 5)
    assert p.at(2) == coding_range_profile(sigma, 2).at(2)  # (sigma o m)^2 = sigma^2


# -- W is read off the window: nothing beyond it is coded ---------------------


@pytest.mark.parametrize("name,params", DEFAULT_SUITE, ids=[n for n, _ in DEFAULT_SUITE])
def test_w_read_off_the_builtins_is_attained_and_maximal(name, params):
    assert_w_attained_and_maximal(make_builtin(name, params)[1], 3)


@pytest.mark.parametrize(
    "auto",
    [MARKER, MARKER_PRIME, _composed(MARKER, MARKER_PRIME)],
    ids=["m", "m_prime", "m_m_prime"],
)
def test_w_read_off_the_markers_is_attained_and_maximal(auto):
    with window_budget(2 ** 17):  # (m o m')^2 has 17 edges
        assert_w_attained_and_maximal(auto, 2)


# -- depth: the iterates as decision diagrams ---------------------------------
#
# The word budget still counts each iterate's formal window, so each profile
# runs under a budget sized to its deepest window; no window is enumerated.


def test_marker_product_profile_to_depth_five():
    # (m o m')^n reads its whole formal window of 8n + 1 edges
    with window_budget(2 ** 41):
        p = coding_range_profile(_composed(MARKER, MARKER_PRIME), 5)
    assert p.w_minus == p.w_minus_inv == tuple(-4 * n for n in range(1, 6))
    assert p.w_plus == p.w_plus_inv == tuple(4 * n for n in range(1, 6))


def test_shifted_marker_profile_to_depth_eight():
    # (sigma o m)^2 = sigma^2, so two more iterates move every W by -2
    _, sigma = make_builtin("shift", {"shift": FULL_2})
    with window_budget(2 ** 41):  # (sigma o m)^8 has 5 * 8 + 1 edges
        p = coding_range_profile(_composed(sigma, MARKER), 8)
    for seq, step in ((p.w_minus, -2), (p.w_plus, -2), (p.w_minus_inv, 2), (p.w_plus_inv, 2)):
        assert all(seq[n + 1] == seq[n - 1] + step for n in range(1, 7)), seq
    assert p.w_minus[:2] == (-3, -2) and p.w_plus[:2] == (1, -2)
    assert p.w_minus_inv[:2] == (-1, 2) and p.w_plus_inv[:2] == (3, 2)


def test_five_symbol_profile_to_depth_six():
    _, five = make_builtin("five_symbol", {"completion": "swap"})
    with window_budget(5 ** 13):  # phi^6 has 13 edges
        p = coding_range_profile(five, 6)
    assert p.w_minus == p.w_minus_inv == tuple(-n for n in range(1, 7))
    assert p.w_plus == p.w_plus_inv == tuple(range(1, 7))


def test_vertex_swap_after_shift_profile_to_depth_ten():
    # on the two-state shift [[2, 1], [1, 2]]: the swap is a one-edge
    # involution that commutes with the shift, so (v o sigma)^n = v^n o
    # sigma^n codes exactly as sigma^n
    shift, swap = make_builtin("vertex_swap_B")
    _, sigma = make_builtin("shift", {"shift": shift})
    auto = _composed(swap, sigma)
    with window_budget(shift.word_count(12)):  # (v o sigma)^10 has 11 edges
        p = coding_range_profile(auto, 10)
    assert p.w_minus == p.w_plus == tuple(-n for n in range(1, 11))
    assert p.w_minus_inv == p.w_plus_inv == tuple(range(1, 11))
    assert p.at(2) == w_values(auto, 2)
    for code in (auto.forward, auto.inverse, auto.power(3)):
        _assert_w_read_matches_naive(code, range(-code.window, code.window + 1))


def test_five_symbol_over_budget_stops_at_its_third_iterate():
    # the budget counts phi^3's formal window, 5^7 words, as the bench's
    # five_symbol_over_budget item does; phi^2's 5^5 fit
    _, five = make_builtin("five_symbol", {"completion": "swap"})
    with window_budget(20000):
        assert coding_range_profile(five, 2).w_minus == (-1, -2)
        with pytest.raises(WindowBudgetExceeded) as info:
            coding_range_profile(five, 3)
    assert (info.value.needed, info.value.budget) == (78125, 20000)


@pytest.mark.parametrize("which", ["product", "shifted"])
def test_marker_codes_match_naive(which):
    _, sigma = make_builtin("shift", {"shift": FULL_2})
    outer, inner = (MARKER, MARKER_PRIME) if which == "product" else (sigma, MARKER)
    auto = _composed(outer, inner)
    for code in (auto.forward, auto.inverse):
        _assert_w_read_matches_naive(code, range(-code.window, code.window + 1))


def test_scan_rejects_zero_entropy():
    shift = build_edge_shift([[0, 1], [1, 0]])
    code = shift_code(shift)
    with pytest.raises(PreconditionFailed):
        coded_minus_naive(code, 0)


def test_scan_rejects_reducible():
    shift = build_edge_shift([[1, 1], [0, 2]])
    code = shift_code(shift)
    with pytest.raises(PreconditionFailed):
        coded_plus_naive(code, 0)
