"""Spacetime column censuses, iterate-window counts, and restrictions.

Frozen counts are backed by independent closed forms where possible: a
recognized track contributes the word count of its shift over the span the
iterates sweep, so the product examples have censuses that are plain
products of word counts computed here from scratch.  The census of
five_symbol enumerates no word.
"""

import math

import pytest

from conftest import rule_code
from sftlab.builtins import (
    DEFAULT_SUITE,
    five_symbol_code,
    five_symbol_no_wall_edges,
    make_builtin,
)
from sftlab.codes import (
    Automorphism,
    codes_equal,
    identity_code,
    recognized_exponents,
    verify_automorphism,
)
from sftlab.coding_range import coding_range_profile, lyapunov_bounds
from sftlab.entropy import (
    c_phi_count,
    c_phi_diagnostic,
    column_census,
    exact_entropy_of,
    restrict_code_to_subsystem,
    restrict_to_subsystem,
)
from sftlab.dimension import dimension_matrix
from sftlab.errors import NilpotentMatrix, NotInvariant, WindowBudgetExceeded, ZeroMatrix
from sftlab.shifts import EdgeShift, build_edge_shift, count_words, window_budget

PHI = (1 + math.sqrt(5)) / 2


# -- column census ----------------------------------------------------------


def test_census_shift_closed_form():
    _, auto = make_builtin("shift")
    full2 = build_edge_shift([[2]])
    for n in (1, 2, 3):
        census = column_census(auto, 1, n)
        # sliding sigma over n iterates reveals a span of 3 + (n-1) symbols
        assert census.count == count_words(full2, 3 + (n - 1))
        assert census.certified
        assert census.method == "product-form"
        assert census.estimate == pytest.approx(math.log(census.count) / n)


def test_census_tau_is_a_product_of_word_counts():
    _, auto = make_builtin("tau_golden")
    golden = build_edge_shift([[1, 1], [1, 0]])
    expected = {
        n: count_words(golden, 3) * count_words(golden, 3 + (n - 1))
        for n in (1, 2, 3)
    }
    assert expected == {1: 64, 2: 104, 3: 168}
    for n, count in expected.items():
        census = column_census(auto, 1, n)
        assert census.count == count
        assert census.certified


def test_census_vertex_swap_saturates():
    _, auto = make_builtin("vertex_swap_B")
    counts = [column_census(auto, 1, n) for n in (1, 2, 3)]
    assert [c.count for c in counts] == [54, 54, 54]
    assert all(not c.certified and c.method == "enumeration" for c in counts)
    # a symbol permutation adds no information beyond the first layer, so
    # the per-step estimate decays like log(54)/n
    assert counts[2].estimate == pytest.approx(math.log(54) / 3)


def test_census_five_symbol_counts():
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    assert [column_census(auto, 1, n).count for n in (1, 2, 3, 4)] == [125, 405, 1445, 5445]


def test_census_enumerates_no_word_longer_than_phi(monkeypatch):
    _, five = make_builtin("five_symbol")

    def refuse(shift, length, start_state=None):
        # shift_power_of compares levels, so no word is enumerated at all
        raise AssertionError(f"the census enumerates words of {length} edges")

    monkeypatch.setattr(EdgeShift, "ranked_words", refuse)
    assert column_census(five, 1, 3).count == 1445
    assert c_phi_count(five, 2) == 6980
    # the words charged are 3 + 2 (m + a) = 7 edges wide: 5^7 of them
    with pytest.raises(WindowBudgetExceeded) as refused, window_budget(78_124):
        column_census(five, 1, 3)
    assert refused.value.needed == 78_125
    with window_budget(78_125):
        assert column_census(five, 1, 3).count == 1445


def test_census_enumeration_agrees_with_closed_form():
    # same rule, but on a flat full 4-shift with no recorded product
    # structure: the enumeration path must reproduce the closed form
    prod_shift, auto = make_builtin("sigma_x_sigma_inv")
    flat = build_edge_shift([[4]])
    fwd = rule_code(flat, 1, 1, auto.forward.rule)
    inv = rule_code(flat, 1, 1, auto.inverse.rule)
    flat_auto = Automorphism(fwd, inv, {"method": "relabel"})
    for n in (1, 2):
        closed = column_census(auto, 1, n)
        brute = column_census(flat_auto, 1, n)
        assert closed.certified and not brute.certified
        assert closed.count == brute.count


def test_census_rejects_bad_arguments_and_budget():
    _, auto = make_builtin("vertex_swap_B")
    with pytest.raises(ValueError):
        column_census(auto, -1, 1)
    with pytest.raises(ValueError):
        column_census(auto, 1, 0)
    with pytest.raises(WindowBudgetExceeded), window_budget(10):
        column_census(auto, 2, 3)


# -- iterate-window counts --------------------------------------------------


def test_iterate_window_counts_sigma():
    _, auto = make_builtin("shift")
    assert c_phi_count(auto, 2) == 59


def test_iterate_window_count_takes_n_from_zero():
    _, auto = make_builtin("shift")
    assert c_phi_count(auto, 0) == 16  # the words of 4 edges: one window each
    with pytest.raises(ValueError, match="n must be >= 0"):
        c_phi_count(auto, -1)


def test_iterate_window_diagnostic_shape():
    _, auto = make_builtin("shift")
    action = dimension_matrix(auto)
    out = c_phi_diagnostic(auto, 2, action)
    assert out.status == "Inconclusive"
    assert c_phi_count(auto, 2) == 59
    assert out.detail == "card=59 at n=2"
    assert out.lhs == pytest.approx(math.log(59) / 2)
    assert out.rhs == pytest.approx(math.log(2))
    assert not out.lhs < out.rhs


def test_iterate_window_diagnostic_rejects_bad_n():
    _, auto = make_builtin("shift")
    with pytest.raises(ValueError, match="n must be >= 1"):
        c_phi_diagnostic(auto, 0, dimension_matrix(auto))


# -- restriction to invariant subsystems ------------------------------------


def test_five_symbol_restriction_is_the_product_reference():
    _, reference = make_builtin("sigma_x_sigma_inv")
    no_wall = five_symbol_no_wall_edges()
    for completion in ("identity", "swap", "first", "second", "wall"):
        shift, code = five_symbol_code(completion)
        sub, restricted, edge_map = restrict_code_to_subsystem(code, no_wall)
        assert sub.matrix == ((4,),)
        assert edge_map == {0: 0, 1: 1, 2: 2, 3: 3}
        assert codes_equal(restricted, reference.forward)


def test_restrict_automorphism_certifies():
    _, five = make_builtin("five_symbol", {"completion": "swap"})
    sub, rauto = restrict_to_subsystem(five, five_symbol_no_wall_edges())
    assert sub.matrix == ((4,),)
    assert rauto.certificate["method"] == "verify"


def test_restriction_not_invariant():
    _, swap = make_builtin("vertex_swap_B")
    with pytest.raises(NotInvariant) as info:
        restrict_code_to_subsystem(swap.forward, (0,))
    assert info.value.witness == (0,)


def outputs_in_rank_order(code):
    """The code's outputs on its windows, in rank order."""
    words = code.source.ranked_words(code.window)
    return [out for _, cols in words for out in code.outputs(cols).tolist()]


def _restrict_by_lookup(code, allowed_edges):
    """The restriction, one window lookup at a time: the reference for the
    gathered restriction.  The subsystem and its edge map come from
    restricting the identity, which every edge subset leaves invariant."""
    sub, _, to_sub = restrict_code_to_subsystem(identity_code(code.source), allowed_edges)
    to_orig = {v: e for e, v in to_sub.items()}
    rule = {}
    for sub_word in sub.words(code.window):
        window = tuple(to_orig[e] for e in sub_word)
        out = code.rule[window]
        if out not in to_sub:
            raise NotInvariant(witness=window, output=out)
        rule[sub_word] = to_sub[out]
    return sub, rule_code(sub, code.memory, code.anticipation, rule)


@pytest.mark.parametrize("completion", ["identity", "swap", "first", "second", "wall"])
def test_restriction_matches_the_window_by_window_reference(completion):
    _, code = five_symbol_code(completion)
    sub, restricted, _ = restrict_code_to_subsystem(code, five_symbol_no_wall_edges())
    ref_sub, reference = _restrict_by_lookup(code, five_symbol_no_wall_edges())
    assert sub.matrix == ref_sub.matrix
    assert codes_equal(restricted, reference)
    assert outputs_in_rank_order(restricted) == outputs_in_rank_order(reference)


def test_census_refuses_a_shift_whose_words_die_out():
    # [[0, 1], [0, 0]] has one edge and no two-edge word, so no points
    shift = build_edge_shift([[0, 1], [0, 0]])
    ident = verify_automorphism(identity_code(shift), identity_code(shift))
    with pytest.raises(NilpotentMatrix):
        column_census(ident, 1, 2)
    with pytest.raises(NilpotentMatrix):
        c_phi_count(ident, 2)


def test_restriction_witness_is_the_first_bad_window_in_rank_order():
    _, code = five_symbol_code("swap")
    allowed = (0, 1, 2, 4)
    with pytest.raises(NotInvariant) as got:
        restrict_code_to_subsystem(code, allowed)
    with pytest.raises(NotInvariant) as want:
        _restrict_by_lookup(code, allowed)
    assert (got.value.witness, got.value.output) == (want.value.witness, want.value.output)
    assert (got.value.witness, got.value.output) == ((1, 0, 2), 3)


def test_restriction_can_empty_out():
    _, auto = make_builtin("shift")
    with pytest.raises(ZeroMatrix):
        restrict_code_to_subsystem(auto.forward, ())


# the 4-cycle 0 -> 1 -> 2 -> 3 -> 0 with a loop at 0; edges 0 (the loop),
# 1 (0 -> 1), 2 (1 -> 2), 3 (2 -> 3), 4 (3 -> 0)
CYCLE_WITH_LOOP = [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]


def test_restriction_prunes_in_cascade():
    # without 3 -> 0, state 3 has no way out, then state 2, then state 1
    code = identity_code(build_edge_shift(CYCLE_WITH_LOOP))
    sub, restricted, to_sub = restrict_code_to_subsystem(code, (0, 1, 2, 3))
    assert sub.matrix == ((1,),)
    assert to_sub == {0: 0}
    assert outputs_in_rank_order(restricted) == [0]


def test_restriction_without_a_cycle_empties_out():
    # the path 0 -> 1 -> 2 -> 3: states 0 and 3 fall first, then 1 and 2
    code = identity_code(build_edge_shift(CYCLE_WITH_LOOP))
    with pytest.raises(ZeroMatrix):
        restrict_code_to_subsystem(code, (1, 2, 3))


# -- exact entropies --------------------------------------------------------


def test_exact_entropy_values():
    cases = {
        "shift": math.log(2),
        "inverse_shift": math.log(2),
        "identity": 0.0,
        "tau_golden": math.log(PHI),
        "sigma_x_sigma_inv": 2 * math.log(2),
    }
    for name, value in cases.items():
        _, auto = make_builtin(name)
        assert exact_entropy_of(auto) == pytest.approx(value, abs=1e-12), name


def test_exact_entropy_unrecognized_is_none():
    for name, params in (
        ("vertex_swap_B", {}),
        ("five_symbol", {"completion": "swap"}),
    ):
        _, auto = make_builtin(name, dict(params))
        assert exact_entropy_of(auto) is None


@pytest.mark.parametrize("name,params", DEFAULT_SUITE, ids=[n for n, _ in DEFAULT_SUITE])
def test_exact_cases_follow_the_recognizer(name, params):
    _, auto = make_builtin(name, dict(params))
    recognized = recognized_exponents(auto)
    exact = recognized is not None
    kind = recognized[0] if exact else None
    bounds = lyapunov_bounds(auto, coding_range_profile(auto, 2))
    assert (bounds.method == f"exact-{kind}") is exact
    assert (exact_entropy_of(auto) is not None) is exact
    assert (column_census(auto, 1, 2).method == "product-form") is exact
