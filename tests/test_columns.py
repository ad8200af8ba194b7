"""Output columns against dict rule tables.

Codes store their rules as decision diagrams, read as output columns over
ranked windows.  The dict implementations below (rule tables keyed by window
tuples, walked one window at a time) are the reference: a property test
draws random automorphism codes and checks every operation against them.

Claims covered:
    - on automorphisms from the acceptance suite's generator (window-1 codes
      read at an offset, then padded) and on random codes that permute
      parallel edges, compose/power, pad_code, product_code, codes_equal, reverse_code and
      infer_inverse build the same rule table as the dict implementation
    - prefix_lcp and suffix_lcp, read off the diagram's levels, equal the
      longest common prefix and suffix of windows with different outputs,
      found over words(), on those codes, their compositions and pads, and
      on the vertex_swap_B and golden mean builtins
    - (m o m')^2, 131,072 windows, outputs the column of its dict table
    - on the drawn automorphism codes, the literal oracles
      coded_minus_naive/coded_plus_naive (whose own reference is the
      pairwise comparison in test_coding_range.py) code j iff W read off
      the window (window_w) says so; on the automorphisms found, W of
      phi^+-1 and phi^+-2 is coded by them and one coordinate further is
      not
    - the census counts the same distinct iterate windows, as tuples and
      as sets
    - save_system followed by load_system_file round-trips
"""

import itertools
import os
import random
import tempfile

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from conftest import assert_w_attained_and_maximal, rule_code
from sftlab.builtins import make_builtin
from sftlab.codes import (
    codes_equal,
    compose,
    infer_inverse,
    iterates,
    pad_code,
    power,
    product_code,
    verify_automorphism,
)
from sftlab.coding_range import coded_minus_naive, coded_plus_naive, reverse_code, window_w
from sftlab.entropy import _distinct_windows
from sftlab.errors import NotInvertibleWithin
from sftlab.reports import _random_code
from sftlab.shifts import build_edge_shift, kronecker_product, transpose_shift, window_budget
from sftlab.systems import load_system_file, save_system

POOL = (
    build_edge_shift([[2]]),
    build_edge_shift([[3]]),
    build_edge_shift([[1, 1], [1, 0]]),
    build_edge_shift([[2, 1], [1, 2]]),
    build_edge_shift([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
)
GOLDEN = POOL[2]


# -- the dict reference -------------------------------------------------------


def apply_rule(rule, window, word):
    return tuple(rule[word[i : i + window]] for i in range(len(word) - window + 1))


def ref_compose(outer, inner):
    length = outer.window + inner.window - 1
    o, i = dict(outer.rule), dict(inner.rule)
    return {w: o[apply_rule(i, inner.window, w)] for w in inner.source.words(length)}


def ref_pad(code, extra_memory, extra_anticipation):
    rule = dict(code.rule)
    length = code.window + extra_memory + extra_anticipation
    return {
        w: rule[w[extra_memory : extra_memory + code.window]]
        for w in code.source.words(length)
    }


def ref_product(left, right, prod):
    m = max(left.memory, right.memory)
    a = max(left.anticipation, right.anticipation)
    lr, rr = dict(left.rule), dict(right.rule)
    table = {}
    for w in prod.words(m + a + 1):
        wa = tuple(prod.edge_to_pair[e][0] for e in w)
        wb = tuple(prod.edge_to_pair[e][1] for e in w)
        oa = lr[wa[m - left.memory : m + left.anticipation + 1]]
        ob = rr[wb[m - right.memory : m + right.anticipation + 1]]
        table[w] = prod.pair_to_edge[(oa, ob)]
    return table


def ref_equal(c1, c2):
    m = max(c1.memory, c2.memory)
    a = max(c1.anticipation, c2.anticipation)
    r1, r2 = dict(c1.rule), dict(c2.rule)
    return all(
        r1[w[m - c1.memory : m + c1.anticipation + 1]]
        == r2[w[m - c2.memory : m + c2.anticipation + 1]]
        for w in c1.source.words(m + a + 1)
    )


def ref_reverse(code, bijection):
    return {
        tuple(bijection[e] for e in reversed(w)): bijection[out]
        for w, out in code.rule.items()
    }


def ref_inverse(code, r_max):
    """(radius, inverse table) of the first consistent, total radius."""
    shift, rule = code.source, dict(code.rule)
    m, a = code.memory, code.anticipation
    for r in range(r_max + 1):
        candidate = {}
        for w in shift.words(2 * r + 1 + m + a):
            out = apply_rule(rule, code.window, w)
            if candidate.setdefault(out, w[r + m]) != w[r + m]:
                break
        else:
            if all(w in candidate for w in shift.words(2 * r + 1)):
                return r, candidate
    return None


def ref_lcps(code):
    """(D^-, D^+) by brute force over the windows: the longest common prefix
    and suffix of two windows with different outputs, -1 when none differ.
    A prefix of L edges shared by two such windows is one whose windows do
    not all have one output."""
    rule = dict(code.rule)
    windows = list(code.source.words(code.window))

    def longest(part):
        for length in range(code.window - 1, -1, -1):
            seen = {}
            for w in windows:
                if seen.setdefault(part(w, length), rule[w]) != rule[w]:
                    return length
        return -1

    return longest(lambda w, n: w[:n]), longest(lambda w, n: w[len(w) - n :])


def ref_distinct_windows(auto, count, width, ordered):
    powers = list(itertools.islice(iterates(auto.forward), count))
    mem = max(c.memory for c in powers)
    ant = max(c.anticipation for c in powers)
    rules = [dict(c.rule) for c in powers]
    seen = set()
    for word in auto.shift.words(width + mem + ant):
        windows = tuple(
            tuple(
                rule[word[j - c.memory : j + c.anticipation + 1]]
                for j in range(mem, mem + width)
            )
            for c, rule in zip(powers, rules)
        )
        seen.add(windows if ordered else frozenset(windows))
    return len(seen)


# -- the property -------------------------------------------------------------


def small_code(seed, shift):
    code = _random_code(random.Random(seed), shift)
    assume(code.window <= 5)
    return code


def noisy_code(seed, shift, memory, anticipation):
    """A code, rarely invertible, that follows each window's centre edge
    between the same states but picks a random parallel copy."""
    rng = random.Random(seed)
    rule = {}
    for w in shift.words(memory + anticipation + 1):
        s, t, _ = shift.edges[w[memory]]
        rule[w] = shift.edge_index[(s, t, rng.randrange(shift.matrix[s][t]))]
    return rule_code(shift, memory, anticipation, rule)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    shift=st.sampled_from(POOL),
    seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    shape=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    pad=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    j=st.integers(-6, 6),
)
def test_columns_match_dict_tables(shift, seeds, shape, pad, j):
    code = small_code(seeds[0], shift)
    other = noisy_code(seeds[1], shift, *shape)

    if code.window + other.window <= 6:
        assert dict(compose(code, other).rule) == ref_compose(code, other)
        assert dict(compose(other, code).rule) == ref_compose(other, code)
    assert dict(power(other, 2).rule) == ref_compose(other, other)
    assert codes_equal(code, other) == ref_equal(code, other)

    minus, plus = window_w(code)
    assert coded_minus_naive(code, j) == (j <= minus)
    assert coded_plus_naive(code, j) == (j >= plus)

    bijection = transpose_shift(shift)[1]
    track = small_code(seeds[1], GOLDEN)
    for c in (code, other, compose(code, other)):
        assert (c.prefix_lcp, c.suffix_lcp) == ref_lcps(c)
    for c in (code, other):
        padded = pad_code(c, *pad)
        assert (padded.prefix_lcp, padded.suffix_lcp) == ref_lcps(padded)
        assert dict(padded.rule) == ref_pad(c, *pad)
        assert codes_equal(c, padded)
        assert dict(reverse_code(c).rule) == ref_reverse(c, bijection)
        if max(c.memory, track.memory) + max(c.anticipation, track.anticipation) < 4:
            prod = kronecker_product(shift, GOLDEN)
            assert dict(product_code(c, track, prod).rule) == ref_product(c, track, prod)

    for c, r_max in ((other, 1), (code, 2)):
        expected = ref_inverse(c, r_max)
        try:
            auto = infer_inverse(c, r_max=r_max)
        except NotInvertibleWithin:
            assert expected is None
            continue
        radius, table = expected
        assert auto.inverse.memory == radius
        assert dict(auto.inverse.rule) == table
    if expected is None:
        return  # a shift power beyond the searched radius
    assert_w_attained_and_maximal(auto, 2)

    if code.window <= 3:
        for ordered in (True, False):
            with window_budget(10**6):
                got = _distinct_windows(auto, 2, 1, ordered)
            assert got == ref_distinct_windows(auto, 2, 1, ordered)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.json")
        save_system(path, shift, {"a": auto})
        loaded = load_system_file(path).automorphisms["a"]
    for before, after in ((auto.forward, loaded.forward), (auto.inverse, loaded.inverse)):
        assert (after.memory, after.anticipation) == (before.memory, before.anticipation)
        assert dict(after.rule) == dict(before.rule)


@pytest.mark.parametrize("name", ["vertex_swap_B", "tau_golden", "shift", "inverse_shift"])
def test_lcps_of_builtins_equal_the_brute_force(name):
    _, auto = make_builtin(name, {"shift": GOLDEN} if "shift" in name else {})
    for code in (auto.forward, auto.inverse, auto.power(2), auto.power(-3)):
        assert (code.prefix_lcp, code.suffix_lcp) == ref_lcps(code), code


def test_marker_product_square_outputs_its_dict_column():
    # m flips x_0 iff (x_-2, x_-1, x_1, x_2) = 0010 and m' iff it is 0100; on
    # the full 2-shift a word's rank is its edges read in binary, so the
    # dict table of m o m' (window 9) is an array over 9-bit numbers, and
    # (m o m')^2 reads it at the nine 9-bit slices of each 17-bit number
    full = build_edge_shift([[2]])

    def marker(context):
        rule = {w: w[2] ^ (w[:2] + w[3:] == context) for w in full.words(5)}
        code = rule_code(full, 2, 2, rule)
        return verify_automorphism(code, code)

    m, m_prime = marker((0, 0, 1, 0)), marker((0, 1, 0, 0))
    table = ref_compose(m.forward, m_prime.forward)
    once = np.array([table[tuple((x >> (8 - i)) & 1 for i in range(9))] for x in range(512)])
    words = np.arange(2**17)
    image = sum(once[(words >> (8 - j)) & 511] << (8 - j) for j in range(9))
    column = once[image]
    square = power(compose(m.forward, m_prime.forward), 2)
    assert square.window == 17
    with window_budget(2**17):
        got = np.concatenate([square.outputs(cols) for _, cols in full.ranked_words(17)])
    assert np.array_equal(got, column)

