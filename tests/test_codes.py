"""Sliding block codes, composition, and certified automorphisms.

Claims covered:
    - construction rejects non-composable outputs and negative window shapes
      (rule-table entries are checked, with locations, in test_systems)
    - image, composition, powers, and padding show consistent behaviour;
      image equals per-window rule lookups
    - verify_automorphism certifies both orders, with a witness on failure
    - infer_inverse finds a radius-bounded inverse or reports its absence
    - shift-power recognition and product-code factorization round-trip;
      recognized_exponents names the paper's exact cases with their tracks
    - sigma and sigma^-1, the identity read at +-1, have the levels of their
      tables; shift_power_of compares levels with the identity read at each
      s that D^- and D^+ allow, enumerates no window, and answers as the
      window walk on shift powers and their pads, seeded random columns and
      the builtins' codes and tracks, on nine small shifts (reducible and
      non-essential ones included)
    - compose by a code that is sigma^s pads the outer code to the levels
      that the reduced product gives, on those nine shifts; iterates of
      shift powers (the builtins sigma, sigma^-1, tau_golden and sigma x
      sigma^-1, and sigma/sigma^-1 tables on a cycle plus a chord) build no
      product, while five_symbol's do; the composite window is charged
      before the pad; each code is recognized once across compose,
      recognized_exponents and column_census
    - the window budget resolves from the innermost window_budget scope,
      the environment, then the default, and bounds compose, padding and
      reversal
"""

import itertools
import random

import numpy as np
import pytest

from conftest import rule_code
from sftlab import codes
from sftlab.builtins import DEFAULT_SUITE, make_builtin
from sftlab.codes import (
    SlidingBlockCode,
    _product,
    _reduce,
    automorphism_power,
    codes_equal,
    compose,
    compose_automorphisms,
    factor_product_code,
    identity_code,
    infer_inverse,
    inverse_shift_code,
    pad_code,
    power,
    product_code,
    read_at,
    recognized_exponents,
    shift_code,
    shift_power_of,
    verify_automorphism,
)
from sftlab.coding_range import coding_range_profile, lyapunov_bounds, reverse_code
from sftlab.entropy import column_census
from sftlab.errors import (
    NotInverse,
    NotInvertibleWithin,
    ParseError,
    ShiftMismatch,
    WindowBudgetExceeded,
)
from sftlab.reports import _random_code
from sftlab.shifts import (
    DEFAULT_BUDGET,
    EdgeShift,
    build_edge_shift,
    kronecker_product,
    resolve_budget,
    window_budget,
)


@pytest.fixture
def full2():
    return build_edge_shift([[2]])


@pytest.fixture
def golden():
    return build_edge_shift([[1, 1], [1, 0]])


def xor_code(shift):
    """x_i + x_{i+1} mod 2 on the full 2-shift: the classic 2-to-1 rule."""
    rule = {(a, b): a ^ b for a in range(2) for b in range(2)}
    return rule_code(shift, 0, 1, rule)


# -- construction-time validation ------------------------------------------


def test_rejects_non_composable_outputs(golden):
    # constant rule to edge 1 (state 0 -> 1): 1 cannot follow 1
    rule = {w: 1 for w in golden.words(1)}
    with pytest.raises(ValueError, match="composable"):
        rule_code(golden, 0, 0, rule)


def test_rejects_negative_window_shape(full2):
    with pytest.raises(ValueError, match="nonnegative"):
        SlidingBlockCode.from_column(full2, full2, -1, 0, [])
    with pytest.raises(ValueError, match="nonnegative"):
        SlidingBlockCode.from_column(full2, full2, 1, -2, [])


def test_checked_column_refuses_outputs_that_are_not_target_edges(full2):
    for column, out in (([-1, 0], -1), ([5, 0], 5)):
        with pytest.raises(ValueError, match=f"rule output {out} is not a target edge"):
            SlidingBlockCode.from_column(full2, full2, 0, 0, column, check=True)


def test_constructor_reads_a_rule_table_as_its_checked_column(full2, golden):
    rule = {(a, b): a ^ b for a in range(2) for b in range(2)}
    assert codes_equal(SlidingBlockCode(full2, full2, 0, 1, rule), xor_code(full2))
    with pytest.raises(ValueError, match="not admissible"):
        SlidingBlockCode(golden, golden, 0, 0, {(0,): 0, (1,): 1, (2,): 2, (3,): 0})
    with pytest.raises(ValueError, match="composable"):
        SlidingBlockCode(golden, golden, 0, 0, {(0,): 1, (1,): 1, (2,): 1})


def test_valid_identity_passes_check(golden):
    code = rule_code(golden, 0, 0, {(e,): e for e in range(3)})
    assert code.window == 1


# -- applying and combining -------------------------------------------------


def test_image_matches_rule_lookups(full2, golden):
    prod = kronecker_product(golden, full2)
    for code in (
        power(shift_code(golden), 3),
        pad_code(inverse_shift_code(golden), extra_memory=1, extra_anticipation=2),
        product_code(shift_code(golden), inverse_shift_code(full2), prod),
    ):
        w = code.window
        for word in code.source.words(w + 3):
            looked_up = tuple(code.rule[word[i : i + w]] for i in range(4))
            image = code.image(tuple(np.array([e]) for e in word))
            assert tuple(int(c[0]) for c in image) == looked_up


def test_rule_items_are_python_ints_equal_to_lookups(full2, golden):
    prod = kronecker_product(golden, full2)
    for code in (
        pad_code(inverse_shift_code(golden), extra_memory=1, extra_anticipation=2),
        product_code(shift_code(golden), inverse_shift_code(full2), prod),
        shift_code(full2),
    ):
        items = list(code.rule.items())
        assert [w for w, _ in items] == list(code.source.words(code.window))
        for w, out in items:
            assert type(out) is int and out == code.rule[w]
    # the shift map on the full 2-shift: one root and one node reading the last edge
    assert [level.tolist() for level in shift_code(full2).levels] == [[[0, 0]], [[0, 1]]]


def test_compose_adds_window_shape(full2):
    sigma = shift_code(full2)
    twice = compose(sigma, sigma)
    assert (twice.memory, twice.anticipation) == (0, 2)
    assert twice.rule[(0, 1, 1)] == 1
    assert codes_equal(twice, power(sigma, 2))


def test_a_composed_code_has_one_rule_entry_per_window(golden):
    # the rule view of a diagram counts the composite window's words, not
    # its nodes; the benchmark's tracer reads len(result.rule) per compose
    sigma = shift_code(golden)
    code = compose(inverse_shift_code(golden), compose(sigma, sigma))
    assert (code.memory, code.anticipation) == (1, 2)
    assert len(code.rule) == code.source.word_count(code.window) == 13
    assert len(code.rule) == sum(1 for _ in code.rule.items())


def test_compose_requires_matching_shifts(full2, golden):
    with pytest.raises(ShiftMismatch):
        compose(shift_code(full2), shift_code(golden))


def test_power_zero_is_identity(full2):
    sigma = shift_code(full2)
    assert codes_equal(power(sigma, 0), identity_code(full2))


def test_pad_code_same_behaviour(golden):
    sigma = shift_code(golden)
    padded = pad_code(sigma, extra_memory=1, extra_anticipation=1)
    assert (padded.memory, padded.anticipation) == (1, 2)
    assert codes_equal(sigma, padded)


def test_codes_equal_distinguishes(full2):
    assert not codes_equal(shift_code(full2), inverse_shift_code(full2))


# -- certified automorphisms ------------------------------------------------


def test_verify_automorphism_shift_pair(full2):
    auto = verify_automorphism(shift_code(full2), inverse_shift_code(full2))
    assert auto.shift == full2
    assert auto.certificate["method"] == "verify"
    assert {c["order"] for c in auto.certificate["checks"]} == {
        "inverse_after_forward",
        "forward_after_inverse",
    }


def test_verify_automorphism_witness(full2):
    sigma = shift_code(full2)
    with pytest.raises(NotInverse) as info:
        verify_automorphism(sigma, sigma)
    assert len(info.value.witness) == 3  # the two windows overlap to width 3


def test_automorphism_power_and_inverse(full2):
    auto = verify_automorphism(shift_code(full2), inverse_shift_code(full2))
    assert codes_equal(auto.power(3), power(shift_code(full2), 3))
    assert codes_equal(auto.power(-2), power(inverse_shift_code(full2), 2))
    assert codes_equal(auto.power(0), identity_code(full2))
    inv = auto.inverse_automorphism()
    assert codes_equal(inv.forward, auto.inverse)


def test_compose_automorphisms_cancels(full2):
    auto = verify_automorphism(shift_code(full2), inverse_shift_code(full2))
    around = compose_automorphisms(auto, auto.inverse_automorphism())
    assert codes_equal(around.forward, pad_code(identity_code(full2), 1, 1))


def test_infer_inverse_finds_shift(full2):
    auto = infer_inverse(shift_code(full2), r_max=2)
    assert codes_equal(auto.inverse, inverse_shift_code(full2))


def test_infer_inverse_refuses_xor(full2):
    with pytest.raises(NotInvertibleWithin) as info:
        infer_inverse(xor_code(full2), r_max=2)
    assert info.value.r_max == 2


def test_automorphism_power_object(full2):
    auto = verify_automorphism(shift_code(full2), inverse_shift_code(full2))
    cube = automorphism_power(auto, -3)
    assert codes_equal(cube.forward, power(inverse_shift_code(full2), 3))
    assert codes_equal(cube.inverse, power(shift_code(full2), 3))


# -- recognition and products -----------------------------------------------


def test_shift_power_recognition(full2):
    assert shift_power_of(shift_code(full2)) == 1
    assert shift_power_of(inverse_shift_code(full2)) == -1
    assert shift_power_of(identity_code(full2)) == 0
    assert shift_power_of(power(shift_code(full2), 3)) == 3
    assert shift_power_of(xor_code(full2)) is None
    flip = rule_code(full2, 0, 0, {(0,): 1, (1,): 0})
    assert shift_power_of(flip) is None


def test_shift_power_prefers_smallest_window(full2):
    # a padded identity matches s = 0 even though wider shifts also fit
    padded = pad_code(identity_code(full2), 1, 1)
    assert shift_power_of(padded) == 0


def ref_shift_power_of(code):
    """The window walk that recognized shift powers by enumeration: the s
    in [-m, a] whose edge column equals the output on every window, least
    |s| first and then s > 0."""
    if code.source != code.target:
        return None
    matches = range(-code.memory, code.anticipation + 1)
    for _, cols in code.source.ranked_words(code.window):
        out = code.outputs(cols)
        matches = [s for s in matches if np.array_equal(out, cols[code.memory + s])]
        if not matches:
            return None
    return min(matches, key=lambda s: (abs(s), s < 0))


#: [[1]], the 2- and 3-cycles, full shifts, the golden mean, an irreducible
#: 2-state shift, a reducible one and one that is not essential
RECOGNITION_SHIFTS = tuple(
    build_edge_shift(m)
    for m in (
        [[1]],
        [[0, 1], [1, 0]],
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[2]],
        [[3]],
        [[1, 1], [1, 0]],
        [[2, 1], [1, 2]],
        [[1, 1], [0, 1]],
        [[1, 1], [0, 0]],
    )
)


def test_shift_power_of_enumerates_no_window(monkeypatch, full2, golden):
    cycle2 = build_edge_shift([[0, 1], [1, 0]])
    padded_cube = pad_code(power(shift_code(full2), 3), 2, 1)
    five = make_builtin("five_symbol")[1].forward
    prod = kronecker_product(golden, cycle2)
    tracks = verify_automorphism(
        product_code(shift_code(golden), identity_code(cycle2), prod),
        product_code(inverse_shift_code(golden), identity_code(cycle2), prod),
    ).tracks

    def refuse(*args, **kwargs):
        raise AssertionError("a window was enumerated")

    monkeypatch.setattr(EdgeShift, "ranked_words", refuse)
    assert shift_power_of(padded_cube) == 3
    assert shift_power_of(inverse_shift_code(golden)) == -1
    assert shift_power_of(five) is None
    assert [shift_power_of(t.forward) for t in tracks] == [1, 0]


def test_shift_and_inverse_are_their_tables():
    for shift in RECOGNITION_SHIFTS:
        for code, read in ((shift_code(shift), 1), (inverse_shift_code(shift), 0)):
            table = rule_code(shift, 1 - read, read, {w: w[read] for w in shift.words(2)})
            assert (code.memory, code.anticipation) == (table.memory, table.anticipation)
            assert all(map(np.array_equal, code.levels, table.levels)), shift


def test_shift_power_of_agrees_with_the_window_walk():
    rng = np.random.default_rng(30)
    for shift in RECOGNITION_SHIFTS:
        powers = [identity_code(shift)]
        for sigma in (shift_code(shift), inverse_shift_code(shift)):
            powers += [power(sigma, n) for n in range(4)]
        pads = ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2))
        codes = [pad_code(c, *pad) for c in powers for pad in pads]
        for memory, anticipation in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
            window = memory + anticipation + 1
            for edge in rng.integers(window, size=3):
                # a column that reads one edge, the same with one entry changed, and noise
                read = np.concatenate([cols[edge] for _, cols in shift.ranked_words(window)])
                changed = read.copy()
                changed[rng.integers(len(read))] = rng.integers(shift.n_edges)
                noise = rng.integers(shift.n_edges, size=len(read))
                codes += [
                    SlidingBlockCode.from_column(shift, shift, memory, anticipation, column)
                    for column in (read, changed, noise)
                ]
        for code in codes:
            assert shift_power_of(code) == ref_shift_power_of(code), (shift, code)


def test_shift_power_of_agrees_with_the_window_walk_on_the_builtins():
    for name, params in DEFAULT_SUITE:
        _, auto = make_builtin(name, params)
        for a in {auto, *auto.tracks}:
            for code in (a.forward, a.inverse):
                assert shift_power_of(code) == ref_shift_power_of(code), name


def test_product_code_and_factorization(full2, golden):
    prod = kronecker_product(golden, full2)
    left = shift_code(golden)
    right = inverse_shift_code(full2)
    joint = product_code(left, right, prod)
    assert (joint.memory, joint.anticipation) == (1, 1)
    factors = factor_product_code(joint)
    assert factors is not None
    assert codes_equal(factors[0], left)
    assert codes_equal(factors[1], right)


def test_factor_product_code_refuses_entangled(full2):
    prod = kronecker_product(full2, full2)
    pairs = prod.edge_to_pair
    # swap the two tracks: coordinatewise in no fixed track assignment
    rule = {
        (e,): prod.pair_to_edge[(pairs[e][1], pairs[e][0])]
        for e in range(prod.n_edges)
    }
    swap = rule_code(prod, 0, 0, rule)
    assert factor_product_code(swap) is None


def test_recognized_exponents_shift_power(full2):
    _, inv = make_builtin("inverse_shift")
    assert recognized_exponents(inv) == ("shift-power", ((full2, -1),))


def test_recognized_exponents_tau(golden):
    _, tau = make_builtin("tau_golden")
    assert recognized_exponents(tau) == ("product", ((golden, 0), (golden, -1)))


def test_recognized_exponents_needs_product_shift():
    _, swap = make_builtin("vertex_swap_B")
    assert recognized_exponents(swap) is None


def test_product_code_requires_recorded_product(full2):
    with pytest.raises(ShiftMismatch):
        product_code(shift_code(full2), shift_code(full2), full2)


# -- compose by a shift power -----------------------------------------------


def test_compose_by_a_shift_power_gives_the_reduced_product():
    # on zero-entropy cycles the inner code is sigma^s for several s, so the
    # s recognized is not asserted, only the levels
    rng, draw = np.random.default_rng(33), random.Random(33)
    for shift in RECOGNITION_SHIFTS:
        outers = [_random_code(draw, shift) for _ in range(2)]
        for memory, anticipation in ((0, 1), (1, 1)):  # random columns, windows 2 and 3
            column = rng.integers(shift.n_edges, size=shift.word_count(memory + anticipation + 1))
            outers.append(SlidingBlockCode.from_column(shift, shift, memory, anticipation, column))
        for s, (extra_m, extra_a) in itertools.product(range(-3, 4), ((0, 0), (1, 0), (0, 1))):
            inner = read_at(identity_code(shift), s, max(-s, 0) + extra_m, max(s, 0) + extra_a)
            assert shift_power_of(inner) is not None
            for outer in outers:
                got = compose(outer, inner)
                expected = _reduce(_product(outer, inner))
                assert got.memory == outer.memory + inner.memory
                assert got.anticipation == outer.anticipation + inner.anticipation
                assert len(got.levels) == len(expected)
                assert all(map(np.array_equal, got.levels, expected)), (shift, s, outer)


def test_iterates_of_shift_powers_build_no_product(monkeypatch):
    # sigma and sigma^-1 as explicit rule tables on a 4-cycle plus the chord 0 -> 2
    chord = build_edge_shift([[0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    tables = verify_automorphism(
        rule_code(chord, 0, 1, {w: w[1] for w in chord.words(2)}),
        rule_code(chord, 1, 0, {w: w[0] for w in chord.words(2)}),
    )
    names = ("shift", "inverse_shift", "tau_golden", "sigma_x_sigma_inv")
    autos = [make_builtin(name)[1] for name in names] + [tables]
    _, five = make_builtin("five_symbol", {"completion": "swap"})
    product = codes._product

    def refuse(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(codes, "_product", refuse)
    for auto in autos:
        # the exact slopes are checked against the profile's W data
        assert lyapunov_bounds(auto, coding_range_profile(auto, 4)).method.startswith("exact")
    built = []
    monkeypatch.setattr(codes, "_product", lambda *args: built.append(args) or product(*args))
    coding_range_profile(five, 2)
    assert built


def test_compose_by_sigma_charges_the_composite_window_first(monkeypatch, full2, golden):
    def refuse(*args):
        raise AssertionError("padded before the budget was charged")

    for outer in (xor_code(full2), shift_code(golden)):
        sigma = shift_code(outer.source)
        assert shift_power_of(sigma) == 1
        count = outer.source.word_count(outer.window + sigma.window - 1)
        with monkeypatch.context() as patch:
            patch.setattr(codes, "_padded", refuse)
            with pytest.raises(WindowBudgetExceeded), window_budget(count - 1):
                compose(outer, sigma)
        with window_budget(count):
            assert compose(outer, sigma).window == outer.window + 1


def test_each_code_is_recognized_once(monkeypatch):
    _, auto = make_builtin("sigma_x_sigma_inv")
    tracks = auto.tracks
    read = codes.read_at
    compared = []
    monkeypatch.setattr(
        codes, "read_at", lambda code, s, m, a: compared.append((m, a)) or read(code, s, m, a)
    )
    assert [s for _, s in recognized_exponents(auto)[1]] == [1, -1]
    for track in tracks:
        compose(track.forward, track.forward)
    assert column_census(auto, 1, 3).certified
    recognized_exponents(auto)
    # sigma and sigma^-1 on the full 2-shift each allow one s, so one
    # comparison each
    assert compared == [(t.forward.memory, t.forward.anticipation) for t in tracks]


# -- budget resolution ------------------------------------------------------


def test_resolve_budget_priority(monkeypatch):
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    assert resolve_budget() == DEFAULT_BUDGET
    with window_budget(123):
        assert resolve_budget() == 123
    monkeypatch.setenv("SFTLAB_BUDGET", "1e4")
    assert resolve_budget() == 10000
    with window_budget(77):
        assert resolve_budget() == 77
    monkeypatch.setenv("SFTLAB_BUDGET", "abc")
    with pytest.raises(ParseError, match="SFTLAB_BUDGET"):
        resolve_budget()


def test_window_budget_scopes_nest_and_reset(monkeypatch):
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    with window_budget(50):
        with window_budget(None):  # None keeps the enclosing budget
            assert resolve_budget() == 50
        with pytest.raises(WindowBudgetExceeded):
            with window_budget(7):
                assert resolve_budget() == 7
                build_edge_shift([[2]]).ensure_budget(3)
        assert resolve_budget() == 50
    assert resolve_budget() == DEFAULT_BUDGET


def test_budget_stops_compose(full2):
    sigma = shift_code(full2)
    with pytest.raises(WindowBudgetExceeded), window_budget(3):
        compose(sigma, sigma)


def test_budget_stops_padding_and_reversal(full2, monkeypatch):
    # a padded window of 12 edges has 4,096 words, over a budget of 100
    monkeypatch.setenv("SFTLAB_BUDGET", "100")
    sigma = shift_code(full2)
    with pytest.raises(WindowBudgetExceeded):
        pad_code(sigma, 10, 0)
    with window_budget(4096):
        wide = pad_code(sigma, 10, 0)
    assert wide.window == 12
    with pytest.raises(WindowBudgetExceeded):
        reverse_code(wide)
    with window_budget(4096):
        assert reverse_code(wide).window == 12


def test_pad_code_refuses_negative_extras(full2):
    # a negative extra would narrow the window: shift_code padded by -1 in
    # anticipation would be the identity's shape with the shift's outputs
    sigma = shift_code(full2)
    for extra in ((0, -1), (-1, 0), (-2, 3)):
        with pytest.raises(ValueError):
            pad_code(sigma, *extra)
    assert codes_equal(pad_code(sigma, 0, 0), sigma)


def test_from_column_checks_the_window_count(full2):
    # the shift code's window has 2 edges, so 4 windows on the full 2-shift
    with pytest.raises(ValueError, match="3 entries.*4 admissible"):
        SlidingBlockCode.from_column(full2, full2, 0, 1, [0, 1, 0])
    with pytest.raises(ValueError, match="5 entries.*4 admissible"):
        SlidingBlockCode.from_column(full2, full2, 0, 1, [0, 1, 0, 1, 0])
    code = SlidingBlockCode.from_column(full2, full2, 0, 1, [0, 1, 0, 1])
    assert codes_equal(code, shift_code(full2))


def test_wide_rows_are_deduplicated_in_lexicographic_order():
    # a level's rows against a sort of Python tuples, up to 30 columns with
    # entries far past what one int64 key could pack, below and above the
    # size at which the rows themselves are sorted as tuples
    from sftlab.codes import _nodes

    rng = np.random.default_rng(7)
    for (base, columns), size in itertools.product(((2, 3), (50, 12), (10**6, 30)), (20, 60)):
        rows = rng.integers(-1, base, size=(size, columns))
        rows[::4] = rows[1]
        rows[7] = -1  # a row with no child is dropped
        got, ids = _nodes(rows)
        listed = list(map(tuple, rows.tolist()))
        distinct = sorted(set(listed))[1:]  # the row of -1s sorts first
        assert list(map(tuple, got.tolist())) == distinct
        index = {row: i for i, row in enumerate(distinct)}
        assert ids.tolist() == [index.get(row, -1) for row in listed] + [-1]


def test_sorted_rows_on_any_layout_and_dtype():
    # order and starts against a sort of Python tuples, on layouts and
    # dtypes the callers may pass: Fortran-ordered, transposed and
    # column-sliced views, int8 and int16 index tables, a constant and a
    # single column, and wide entries whose keys are re-ranked mid-row
    from sftlab.codes import _sorted_rows

    rng = np.random.default_rng(11)
    wide = rng.integers(-1, 10**6, size=(70, 12))
    wide[::3] = wide[2]
    wide[5::7, 6:] = wide[4, 6:]  # rows that differ only in their first 6 columns
    narrow = rng.integers(-1, 3, size=(40, 9))
    constant = narrow.copy()
    constant[:, 2] = 5
    cases = [
        np.asfortranarray(wide),
        np.ascontiguousarray(wide.T).T,
        wide[:, 1::2],
        wide[:, 7:],
        narrow.astype(np.int8),
        np.asfortranarray(narrow.astype(np.int16))[:, ::3],
        constant,
        narrow[:, 4:5],
        wide[:, :1].astype(np.int32),
        np.hstack([narrow[:, :2], wide[:40, 3:6]]),
        narrow[:1],
    ]
    for rows in cases:
        order, starts = _sorted_rows(rows)
        listed = list(map(tuple, rows.tolist()))
        ordered = [listed[i] for i in order.tolist()]
        assert sorted(order.tolist()) == list(range(len(rows)))
        assert ordered == sorted(listed)
        assert starts.tolist() == [i == 0 or ordered[i] != ordered[i - 1] for i in range(len(rows))]
        assert [ordered[i] for i in np.flatnonzero(starts)] == sorted(set(listed))
