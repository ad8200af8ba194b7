"""Half-line coding ranges, slope enclosures, and coordinate reversal.

The grouped scans (coded_minus / coded_plus) are cross-checked against the
literal two-point quantifier oracles on every system in a small pool; the
profile values for the named examples are frozen from independent hand
calculation (shift powers code exactly by their exponent; the product
examples code track by track).
"""

from fractions import Fraction

import pytest

from sftlab.builtins import DEFAULT_SUITE, make_builtin
from sftlab.coding_range import (
    coded_minus,
    coded_minus_naive,
    coded_plus,
    coded_plus_naive,
    coding_range_profile,
    lyapunov_bounds,
    reverse_automorphism,
    w_values,
)
from sftlab.codes import codes_equal, power, shift_code
from sftlab.errors import PreconditionFailed, WindowBudgetExceeded
from sftlab.shifts import build_edge_shift


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


def test_w_values_budget():
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    with pytest.raises(WindowBudgetExceeded):
        w_values(auto, 2, budget=20)


# -- slope enclosures -------------------------------------------------------


def test_shift_slopes_exact():
    _, auto = make_builtin("shift")
    b = lyapunov_bounds(auto, 3)
    assert b.alpha_minus == (Fraction(-1), Fraction(-1))
    assert b.alpha_plus == (Fraction(-1), Fraction(-1))
    assert b.method == "exact-shift-power"
    assert b.verdict == "certified-not-distorted"
    assert not b.distorted_candidate()


def test_tau_slopes_exact_product():
    _, auto = make_builtin("tau_golden")
    b = lyapunov_bounds(auto, 4)
    assert b.alpha_minus == (Fraction(0), Fraction(0))
    assert b.alpha_plus == (Fraction(1), Fraction(1))
    assert b.method == "exact-product"


def test_vertex_swap_enclosure_contains_zero():
    _, auto = make_builtin("vertex_swap_B")
    b = lyapunov_bounds(auto, 2)
    assert b.alpha_minus == (Fraction(0), Fraction(0))
    assert b.alpha_plus == (Fraction(0), Fraction(0))
    assert b.method == "interval"  # a finite-order map is no shift power
    assert b.distorted_candidate()


def test_five_symbol_enclosure_straddles():
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    b = lyapunov_bounds(auto, 2)
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
    roundtrip = tuple(bij2[e] for e in bij)
    assert codes_equal(auto.forward, back.forward, edge_map=roundtrip)


# -- the grouped scans against the literal oracles --------------------------

ORACLE_POOL = [
    ("shift", {}),
    ("inverse_shift", {}),
    ("vertex_swap_B", {}),
    ("tau_golden", {}),
    ("full_shift_symbol_permutation", {"n": 3, "permutation": (2, 0, 1)}),
]


@pytest.mark.parametrize("name,params", ORACLE_POOL)
def test_grouped_scan_matches_naive(name, params):
    _, auto = make_builtin(name, dict(params))
    for code in (auto.forward, auto.inverse, auto.power(2)):
        for j in range(-4, 5):
            assert coded_minus(code, j) == coded_minus_naive(code, j), (name, j)
            assert coded_plus(code, j) == coded_plus_naive(code, j), (name, j)


def test_scan_rejects_zero_entropy():
    shift = build_edge_shift([[0, 1], [1, 0]])
    code = shift_code(shift)
    with pytest.raises(PreconditionFailed):
        coded_minus(code, 0)


def test_scan_rejects_reducible():
    shift = build_edge_shift([[1, 1], [0, 2]])
    code = shift_code(shift)
    with pytest.raises(PreconditionFailed):
        coded_plus(code, 0)
