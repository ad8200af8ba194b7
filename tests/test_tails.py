"""Long words as top edges over a kept tail.

Claims covered:
    - unrank reads a word past one chunk as its top edges over a tail of
      s edges, s the longest length whose words fit in one chunk: it keeps
      the words of s edges and of no longer length, and keeps nothing when
      not even the one-edge words fit
    - unrank refuses ranks outside 0..word_count(length), and its columns,
      over any range and from every start state, are byte-identical to the
      all-levels searchsorted unrank
    - the outputs of compose and pad_code, read over the all-levels walk,
      are byte-identical to the ``outputs(image(cols))`` forms, and the
      census counts what the ``rank(image(cols))`` form of the composed
      iterates counts, for windows up to 3 edges past one chunk on full,
      golden mean, two-state, cycle-plus-chord and product shifts,
      five_symbol's iterates up to phi^4, the marker involutions m, m' and
      m o m' at up to three iterates, and (with a small chunk) every split
      down to s = 0
"""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sftlab import shifts
from sftlab.builtins import make_builtin
from sftlab.codes import (
    Automorphism,
    SlidingBlockCode,
    compose,
    inverse_shift_code,
    iterates,
    pad_code,
    power,
    product_code,
    shift_code,
)
from sftlab.entropy import _distinct_windows, column_census
from sftlab.shifts import build_edge_shift, kronecker_product, window_budget
from test_coding_range import MARKER, MARKER_PRIME, _composed

GOLDEN = [[1, 1], [1, 0]]


# -- the references: every level read off the rank tables, iterates composed --


def ref_unrank(shift, length, start, stop):
    """Every level read off the rank tables by searchsorted."""
    tables = shift._rank_tables(length)
    x = np.arange(start, stop, dtype=np.int64)
    cols = []
    for r in range(length - 1, -1, -1):
        e = np.searchsorted(tables[r][0], x, side="right") - 1
        cols.append(e)
        if r:
            x -= tables[r][3][e]
    return tuple(cols)


def ref_walk(shift, length):
    count = shift.word_count(length)
    for first in range(0, count, shifts.WORD_CHUNK):
        yield first, ref_unrank(shift, length, first, min(first + shifts.WORD_CHUNK, count))


def ref_column(source, target, length, outputs):
    column = np.empty(source.word_count(length), dtype=np.min_scalar_type(target.n_edges - 1))
    for first, cols in ref_walk(source, length):
        column[first : first + len(cols[0])] = outputs(cols)
    return column


def column_of(code):
    """The code's outputs on its windows in rank order, over the all-levels walk."""
    return ref_column(code.source, code.target, code.window, code.outputs)


def ref_compose(outer, inner):
    length = outer.window + inner.window - 1
    return ref_column(
        inner.source, outer.target, length, lambda cols: outer.outputs(inner.image(cols))
    )


def ref_pad(code, extra_memory, extra_anticipation):
    length = code.window + extra_memory + extra_anticipation
    inner = slice(extra_memory, extra_memory + code.window)
    return ref_column(code.source, code.target, length, lambda cols: code.outputs(cols[inner]))


def ref_distinct_windows(auto, count, width, ordered):
    shift = auto.shift
    powers = list(itertools.islice(iterates(auto.forward), count))
    mem = max(code.memory for code in powers)
    ant = max(code.anticipation for code in powers)
    found = []
    for _, cols in ref_walk(shift, width + mem + ant):
        rows = np.stack([
            shift.rank(code.image(cols[mem - code.memory : mem + width + code.anticipation]))
            for code in powers
        ], axis=1)
        if not ordered:
            rows.sort(axis=1)
            rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = -1
            rows.sort(axis=1)
        found.append(distinct_rows(rows))
    return len(distinct_rows(np.concatenate(found)))


def distinct_rows(rows):
    """The distinct rows of a 2-d array by lexsort, apart from the
    dedup kernel that the census itself uses."""
    ordered = rows[np.lexsort(rows.T[::-1])]
    return ordered[np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]]


def assert_same_column(column, reference):
    assert column.dtype == reference.dtype
    assert column.tobytes() == reference.tobytes()


def _same_columns(cols, reference):
    assert len(cols) == len(reference)
    for c, r in zip(cols, reference):
        assert_same_column(c, r)


# -- the shifts and their codes ---------------------------------------------


def _cycle_with_chord(k):
    matrix = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    matrix[0][2] = 1
    return matrix


SHIFTS = {
    "full-2": lambda: build_edge_shift([[2]]),
    "full-3": lambda: build_edge_shift([[3]]),
    "full-5": lambda: build_edge_shift([[5]]),
    "golden": lambda: build_edge_shift(GOLDEN),
    "two-state": lambda: build_edge_shift([[2, 1], [1, 2]]),
    "cycle-4-chord": lambda: build_edge_shift(_cycle_with_chord(4)),
    "golden-x-full-2": lambda: kronecker_product(
        build_edge_shift(GOLDEN), build_edge_shift([[2]])
    ),
}

#: s for each shift: its longest length whose words fit in one chunk
TAILS = {
    "full-2": 14, "full-3": 8, "full-5": 6, "golden": 18, "two-state": 8,
    "cycle-4-chord": 41, "golden-x-full-2": 7,
}


def random_code(shift, memory, anticipation, seed):
    """A code whose output on each window is a random edge parallel to the
    window's edge at a seeded position: its outputs concatenate, since
    parallel edges share their endpoints, and depend on the whole window."""
    rng = np.random.default_rng(seed)
    window = memory + anticipation + 1
    follow = int(rng.integers(window))
    ends = list(zip(shift.edge_sources.tolist(), shift.edge_targets.tolist()))
    first = np.array([ends.index(pair) for pair in ends], dtype=np.intp)
    copies = np.array([ends.count(pair) for pair in ends], dtype=np.intp)
    column = np.empty(shift.word_count(window), dtype=np.min_scalar_type(shift.n_edges - 1))
    for start, cols in ref_walk(shift, window):
        e = cols[follow]
        column[start : start + len(e)] = first[e] + rng.integers(1 << 30, size=len(e)) % copies[e]
    return SlidingBlockCode.from_column(shift, shift, memory, anticipation, column, check=True)


@pytest.mark.parametrize("name", SHIFTS)
def test_the_tail_is_the_longest_length_that_fits(name):
    shift = SHIFTS[name]()
    s = TAILS[name]
    assert shift.word_count(s) <= shifts.WORD_CHUNK < shift.word_count(s + 1)
    for length in (1, s - 1, s, s + 1, s + 3):
        count = shift.word_count(length)
        for start, stop in {(0, min(count, 900)), (max(0, count - 700), count)}:
            _same_columns(shift.unrank(length, start, stop), ref_unrank(shift, length, start, stop))
    # the words past one chunk read their tail from the kept words of s edges
    assert s in shift._one_chunk
    assert set(shift._one_chunk) <= set(range(1, s + 1))


def test_no_tail_when_one_edge_words_do_not_fit():
    shift = build_edge_shift([[shifts.WORD_CHUNK + 1]])
    for length in (1, 2):
        # rank WORD_CHUNK + 1 is the first two-edge word with top edge 1
        stop = min(shifts.WORD_CHUNK + 2, shift.word_count(length))
        for start, stop in ((0, 3), (shifts.WORD_CHUNK - 1, stop)):
            _same_columns(
                shift.unrank(length, start, stop), ref_unrank(shift, length, start, stop)
            )
    assert not shift._one_chunk


def test_ranks_outside_the_words_are_refused():
    golden = build_edge_shift(GOLDEN)
    assert golden.word_count(3) == 8
    for start, stop in ((-2, 1), (6, 10), (3, 2), (0, 9), (-1, -1)):
        with pytest.raises(ValueError):
            golden.unrank(3, start, stop)
    assert [c.tolist() for c in golden.unrank(3, 8, 8)] == [[], [], []]
    _same_columns(golden.unrank(3, 0, 8), ref_unrank(golden, 3, 0, 8))
    long = build_edge_shift([[2]])
    with pytest.raises(ValueError):
        long.unrank(15, -1, 4)
    with pytest.raises(ValueError):
        long.unrank(15, 0, 2**15 + 1)


@pytest.mark.parametrize("name", SHIFTS)
def test_unrank_equals_the_all_levels_reference(name):
    shift = SHIFTS[name]()
    s = TAILS[name]
    chunk = shifts.WORD_CHUNK
    for length in range(s, s + 4):
        count = shift.word_count(length)
        ranges = {(0, min(count, chunk)), (count - 5, count), (count // 3, count // 3 + 700)}
        for start, stop in ranges:
            _same_columns(shift.unrank(length, start, stop), ref_unrank(shift, length, start, stop))
        # chunks start at each state's block, so their edges fall inside it
        for state in (None, *range(shift.k)):
            for first, cols in shift.ranked_words(length, state):
                _same_columns(cols, ref_unrank(shift, length, first, first + len(cols[0])))
        if length > s:
            assert length not in shift._one_chunk


@pytest.mark.parametrize("name", [n for n in SHIFTS if n != "full-5"])
def test_compose_and_pad_equal_the_image_forms(name):
    shift = SHIFTS[name]()
    s = TAILS[name]
    inner = random_code(shift, 1, 1, seed=1)
    for p in range(4):
        length = s + p
        outer = random_code(shift, length - 5, 2, seed=p)
        assert_same_column(column_of(compose(outer, inner)), ref_compose(outer, inner))
        # the outer at the front of the window: straddling positions only
        front = random_code(shift, 0, 1, seed=10 + p)
        wide = random_code(shift, 2, length - 4, seed=20 + p)
        assert_same_column(column_of(compose(front, wide)), ref_compose(front, wide))
        # pads whose extra memory exceeds p read the tail only
        for extra_memory in {0, p, p + 1, length - 3}:
            padded = pad_code(inner, extra_memory, length - 3 - extra_memory)
            assert padded.window == length
            assert_same_column(
                column_of(padded), ref_pad(inner, extra_memory, length - 3 - extra_memory)
            )


def test_a_product_code_composes_like_its_image_form():
    golden, full = build_edge_shift(GOLDEN), build_edge_shift([[2]])
    prod = kronecker_product(golden, full)
    inner = product_code(shift_code(golden), random_code(full, 1, 1, seed=3), prod)
    outer = product_code(inverse_shift_code(golden), random_code(full, 3, 3, seed=4), prod)
    assert outer.window + inner.window - 1 == TAILS["golden-x-full-2"] + 2
    assert_same_column(column_of(compose(outer, inner)), ref_compose(outer, inner))


@pytest.fixture(scope="module")
def five():
    return make_builtin("five_symbol")[1]


@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_five_symbol_iterates_equal_the_image_forms(five, direction):
    code = getattr(five, direction)
    previous = code
    for n in range(2, 5 if direction == "forward" else 4):
        # phi^3 is 7 edges wide (p = 1), phi^4 is 9 (p = 3)
        current = power(code, n)
        assert_same_column(column_of(current), ref_compose(previous, code))
        previous = current


def test_five_symbol_census_equals_the_image_form(five):
    assert column_census(five, 1, 3).count == ref_distinct_windows(five, 3, 3, True) == 1445
    with window_budget(10**8):
        got = _distinct_windows(five, 3, 4, False)
    assert got == ref_distinct_windows(five, 3, 4, False)


@pytest.mark.parametrize("name", ["full-2", "golden", "two-state", "golden-x-full-2"])
def test_census_equals_the_image_form(name):
    shift = SHIFTS[name]()
    s = TAILS[name]
    # iterate i's window starts at (count - 1 - i) m, so memory and
    # anticipation are also drawn unequal
    for seed, (memory, anticipation) in enumerate(((1, 1), (0, 2), (2, 0)), start=5):
        code = random_code(shift, memory, anticipation, seed)
        auto = Automorphism(code, code, {})  # the count reads only the forward iterates
        # words of 1, 2 and 3 edges past one chunk
        for count, width in ((3, s - 3), (2, s), (1, s + 3)):
            for ordered in (True, False):
                with window_budget(10**8):
                    got = _distinct_windows(auto, count, width, ordered)
                assert got == ref_distinct_windows(auto, count, width, ordered)


def test_census_equals_the_image_form_on_marker_involutions():
    # m, m' and m o m' read 5- and 9-edge windows, wider than any builtin's
    for auto in (MARKER, MARKER_PRIME, _composed(MARKER, MARKER_PRIME)):
        for count, width in itertools.product((1, 2, 3), (1, 2)):
            for ordered in (True, False):
                with window_budget(10**8):
                    got = _distinct_windows(auto, count, width, ordered)
                assert got == ref_distinct_windows(auto, count, width, ordered)


# -- every split, with a small chunk ----------------------------------------


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k
        )
    ).filter(lambda m: any(map(any, m))),
    st.sampled_from([1, 2, 3, 5, 8, 64]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 2**16),
)
def test_every_split_equals_the_references(matrix, chunk, extra_memory, extra_anticipation, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shifts, "WORD_CHUNK", chunk)
        shift = build_edge_shift(matrix)
        assume(0 < shift.word_count(8) and shift.word_count(4) <= 100)
        inner = random_code(shift, 1, 0, seed)
        outer = random_code(shift, 0, 2, seed + 1)
        for length in range(1, 6):
            count = shift.word_count(length)
            _same_columns(shift.unrank(length, 0, count), ref_unrank(shift, length, 0, count))
            for first, cols in shift.ranked_words(length):
                _same_columns(cols, ref_unrank(shift, length, first, first + len(cols[0])))
        assert_same_column(column_of(compose(outer, inner)), ref_compose(outer, inner))
        assert_same_column(column_of(compose(inner, outer)), ref_compose(inner, outer))
        assert_same_column(
            column_of(pad_code(inner, extra_memory, extra_anticipation)),
            ref_pad(inner, extra_memory, extra_anticipation),
        )
        auto = Automorphism(inner, inner, {})
        for ordered in (True, False):
            with window_budget(10**8):
                got = _distinct_windows(auto, 3, 2, ordered)
            assert got == ref_distinct_windows(auto, 3, 2, ordered)
