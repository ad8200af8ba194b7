"""Realizability conditions and the primitive-matrix search.

Trace oracles are independent: power sums are cross-checked against literal
matrix powers, and the Mobius-inverted sums against a divisor
inclusion-exclusion that never calls the library's moebius.
"""

import math

import pytest

from sftlab.ratmat import char_poly, mat_mul, mat_pow
from sftlab.shifts import build_edge_shift
from sftlab.spectra import (
    IntPolynomial,
    check_conditions,
    moebius,
    net_trace,
    power_traces,
    search_primitive_realization,
    verify_eb_failure,
)
from sftlab.errors import (
    NonMonic,
    NotPrimitive,
    PreconditionFailed,
    ZeroConstantTerm,
)

CUBIC = IntPolynomial((1, -5, -6, 1))
GOLDEN = IntPolynomial((1, -1, -1))


# -- polynomial type --------------------------------------------------------


def test_polynomial_rejects_non_monic_input():
    for coeffs in ((), (2, -1), (1.5, 0), (1, 0.5)):
        with pytest.raises(NonMonic):
            IntPolynomial(coeffs)


def test_polynomial_str():
    assert str(IntPolynomial((1,))) == "1"
    assert str(IntPolynomial((1, -2))) == "t - 2"
    assert str(GOLDEN) == "t^2 - t - 1"
    assert str(CUBIC) == "t^3 - 5t^2 - 6t + 1"
    assert str(IntPolynomial((1, 0, 3))) == "t^2 + 3"


def test_polynomial_accessors():
    assert CUBIC.degree == 3
    assert CUBIC.constant == 1
    assert GOLDEN.coeffs == (1, -1, -1)


# -- exact trace arithmetic -------------------------------------------------


def test_power_traces_full_shift():
    assert power_traces(IntPolynomial((1, -2)), 10) == [2**k for k in range(1, 11)]


def test_power_traces_golden_gives_lucas():
    lucas = [1, 3]
    while len(lucas) < 12:
        lucas.append(lucas[-1] + lucas[-2])
    assert power_traces(GOLDEN, 12) == lucas


def test_power_traces_match_matrix_powers():
    companion = [[5, 6, -1], [1, 0, 0], [0, 1, 0]]
    assert char_poly(companion) == list(CUBIC.coeffs)
    expected = []
    for k in range(1, 9):
        m = mat_pow(companion, k)
        expected.append(sum(m[i][i] for i in range(3)))
    assert power_traces(CUBIC, 8) == expected


def test_moebius_against_sieve():
    # squarefree sieve, structurally unlike the trial division in the library
    limit = 30
    counts = [0] * (limit + 1)
    square_hit = [False] * (limit + 1)
    for p in range(2, limit + 1):
        if counts[p] == 0 and not square_hit[p]:
            for k in range(p, limit + 1, p):
                counts[k] += 1
            for k in range(p * p, limit + 1, p * p):
                square_hit[k] = True
    expected = [0 if square_hit[n] else (-1) ** counts[n] for n in range(1, limit + 1)]
    assert [moebius(n) for n in range(1, limit + 1)] == expected
    with pytest.raises(ValueError):
        moebius(0)


def test_net_trace_by_divisor_inclusion_exclusion():
    # least-period counts: subtract every proper divisor's contribution from
    # the fixed-point count of the n-th power, no Mobius function involved
    for poly in (IntPolynomial((1, -2)), GOLDEN, CUBIC):
        traces = power_traces(poly, 12)
        least = {}
        for n in range(1, 13):
            least[n] = traces[n - 1] - sum(
                least[d] for d in range(1, n) if n % d == 0
            )
            assert net_trace(poly, n) == least[n]


def test_net_trace_frozen_values():
    assert [net_trace(CUBIC, n) for n in range(1, 13)] == [
        5,
        32,
        207,
        1240,
        7615,
        45306,
        272188,
        1625368,
        9720621,
        58084190,
        347157558,
        2074571244,
    ]


# -- condition reports ------------------------------------------------------


def test_conditions_cubic_all_ok():
    report = check_conditions(CUBIC)
    assert report.all_ok
    assert report.traces[:3] == (5, 37, 212)
    assert report.net_traces == tuple(net_trace(CUBIC, n) for n in range(1, 13))
    assert 5.9 < report.lambda_dominant < 6.0
    assert report.min_modulus == pytest.approx(0.1487713595235835)
    # the small root's reciprocal clears the dominant root by a wide margin
    assert 1.0 / report.min_modulus == pytest.approx(6.721723880203422)
    assert report.reciprocal_margin > 0.7
    assert report.indeterminate == ()


def test_conditions_golden_reciprocal_indeterminate():
    # the two roots multiply to -1, so 1/|small| equals the dominant root
    report = check_conditions(GOLDEN)
    assert report.perron_ok and report.net_trace_ok
    assert not report.reciprocal_ok
    assert report.indeterminate == ("reciprocal",)
    assert abs(report.reciprocal_margin) < 1e-9
    assert not report.all_ok


def test_conditions_complex_dominant_fails_perron():
    report = check_conditions(IntPolynomial((1, 0, 1)))
    assert not report.perron_ok
    assert not report.all_ok


def test_conditions_repeated_dominant_root_fails():
    # (t - 2)^2: dominant root exists but is not simple
    report = check_conditions(IntPolynomial((1, -4, 4)))
    assert not report.perron_ok


def test_conditions_guards():
    with pytest.raises(ZeroConstantTerm):
        check_conditions(IntPolynomial((1, 0)))
    with pytest.raises(ValueError):
        check_conditions(IntPolynomial((1,)))
    with pytest.raises(ValueError):
        check_conditions(GOLDEN, n_max=0)


# -- realization search -----------------------------------------------------


def test_search_finds_known_matrices():
    assert search_primitive_realization(IntPolynomial((1, -2))) == [[2]]
    assert search_primitive_realization(GOLDEN) == [[1, 1], [1, 0]]
    assert search_primitive_realization(CUBIC) == [[5, 1, 0], [5, 0, 1], [4, 1, 0]]


def test_search_pads_with_a_zero_eigenvalue_when_needed():
    # trace 9 cannot sit on a 1x1 diagonal with entries capped at 8
    found = search_primitive_realization(IntPolynomial((1, -9)), max_entry=8)
    assert found == [[8, 1], [8, 1]]
    assert char_poly(found) == [1, -9, 0]


def test_search_is_deterministic():
    first = search_primitive_realization(CUBIC)
    second = search_primitive_realization(CUBIC)
    assert first == second


def test_search_result_is_certified_by_char_poly():
    found = search_primitive_realization(CUBIC)
    assert char_poly(found) == list(CUBIC.coeffs)
    assert build_edge_shift(found).primitive


def test_search_requires_preconditions():
    with pytest.raises(PreconditionFailed) as info:
        search_primitive_realization(IntPolynomial((1, 0, 1)))
    assert "dominant-root and net-trace conditions" in str(info.value)


def test_search_budget_exhaustion_returns_none():
    assert search_primitive_realization(CUBIC, budget=0) is None


def test_search_empty_space_returns_none():
    # entries capped at 1 cannot reach a trace of 5 within size 3, and the
    # companion rows need an entry 5 or 6; absence is a legitimate answer
    assert search_primitive_realization(CUBIC, max_size=4, max_entry=1) is None


# -- the witness check ------------------------------------------------------


def test_eb_failure_confirmed_for_cubic_realization():
    out = verify_eb_failure(search_primitive_realization(CUBIC))
    assert out["status"] == "Confirmed"
    assert out["lhs"] == pytest.approx(1.905344651429093)
    assert out["rhs"] == pytest.approx(1.7877535743089603)
    assert out["gap"] == pytest.approx(0.11759107712013273)


def test_eb_failure_values_do_not_depend_on_tol():
    # tol is the verdict band; the entropy comes from one eigen-solve at a
    # fixed precision
    matrix = search_primitive_realization(CUBIC)
    loose, tight = verify_eb_failure(matrix, tol=0.5), verify_eb_failure(matrix, tol=1e-9)
    assert loose["rhs"] == tight["rhs"] == pytest.approx(1.7877535743089603)


def test_eb_failure_inconclusive_for_full_shift():
    out = verify_eb_failure([[2]])
    assert out["status"] == "Inconclusive"
    assert out["gap"] == pytest.approx(-math.log(2) * 2)


def test_eb_failure_not_strict_for_golden():
    out = verify_eb_failure([[1, 1], [1, 0]])
    assert out["status"] == "NotStrict"
    assert abs(out["gap"]) < 1e-9


def test_eb_failure_needs_primitive():
    with pytest.raises(NotPrimitive):
        verify_eb_failure([[0, 1], [1, 0]])


def test_eb_failure_invariant_under_conjugation():
    rows = search_primitive_realization(CUBIC)
    perm = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    inv = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    conjugated = mat_mul(mat_mul(perm, rows), inv)
    out = verify_eb_failure([[int(v) for v in row] for row in conjugated])
    assert out["status"] == "Confirmed"
    assert out["gap"] == pytest.approx(0.11759107712013273)
