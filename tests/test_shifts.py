"""Edge shifts, word counting, Perron data, and eventual-range data.

Claims covered:
    - edge enumeration and admissibility follow the matrix; ranks number
      the words in the order words() yields, base q on a full q-shift
    - a length whose words fit in one chunk is unranked once per shift and
      kept read-only; longer lengths stream anew; lengths below 1 (below 0
      for words) raise ValueError
    - count_words is the entry sum of A^n (Fibonacci on the golden mean)
    - irreducible / primitive / positive_entropy flags on standard examples;
      irreducible and positive_entropy agree with a reachability oracle on
      every 0/1 3x3 matrix, primitive with networkx there; on random
      matrices with entries 0-2 all three flags agree with networkx, and
      reach_exact(n) is the zero pattern of ratmat.mat_pow(A, n)
    - perron_data: eigenvalue, eigenvector, entropy in nats, including the
      periodic (irreducible, non-primitive) case; the Perron kernel runs
      once per shift, and a reducible shift is refused on every call; lambda
      and h are within 1e-15 relative of the 40-digit root on every builtin
      shift and on the cubic realization [[5,1,0],[5,0,1],[4,1,0]]; the
      kernel reads [[n]] (n = 1..5) with no eigensolver and no solve
    - entries outside the edge indices are inadmissible, at their position
    - dimension_data: exact restricted action, rank, inverse, rho_minus
      (also with a repeated eigenvalue); integer input keeps Python ints
      where no division is made, integral bases included; computed once
      per shift, and a nilpotent matrix is refused on every call
    - kronecker products record a consistent edge/pair correspondence
    - transpose_shift's bijection really transposes edges
"""

import math
from fractions import Fraction

import mpmath
import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_perron_root
from sftlab import ratmat, shifts
from sftlab.builtins import _SHIFT_MATRICES, _SQUARES, shift_builtin
from sftlab.errors import (
    InadmissibleWord,
    InternalInvariantViolation,
    NilpotentMatrix,
    ReducibleInput,
    WindowBudgetExceeded,
)
from sftlab.shifts import (
    WORD_CHUNK,
    build_edge_shift,
    count_words,
    dimension_data,
    kronecker_product,
    perron_data,
    transpose_shift,
    window_budget,
)

GOLDEN = [[1, 1], [1, 0]]
PHI = (1 + math.sqrt(5)) / 2


# -- construction and enumeration ------------------------------------------


def test_edges_follow_matrix():
    shift = build_edge_shift(GOLDEN)
    assert shift.k == 2
    assert shift.n_edges == 3
    assert shift.edges == ((0, 0, 0), (0, 1, 0), (1, 0, 0))


def test_full_shift_edges_are_loops():
    shift = build_edge_shift([[3]])
    assert shift.edges == ((0, 0, 0), (0, 0, 1), (0, 0, 2))


def test_admissibility():
    shift = build_edge_shift(GOLDEN)
    assert shift.is_admissible((0, 0, 1, 2))
    assert not shift.is_admissible((1, 1))  # edge 1 ends at state 1


@pytest.mark.parametrize("word,position", [((-1, 0), 0), ((0, -1), 1), ((3, 0), 0), ((1, 2, 5), 2)])
def test_entries_outside_the_edges_are_inadmissible(word, position):
    # the golden mean has edges 0..2; -1 must not wrap around to edge 2
    shift = build_edge_shift(GOLDEN)
    assert not shift.is_admissible(word)
    with pytest.raises(InadmissibleWord) as info:
        shift.check_admissible(word)
    assert info.value.position == position


def test_words_match_count():
    shift = build_edge_shift(GOLDEN)
    for n in range(5):
        listed = list(shift.words(n))
        assert len(listed) == count_words(shift, n)
        assert len(set(listed)) == len(listed)
        assert all(shift.is_admissible(w) for w in listed)
        assert listed == sorted(listed)


def _rank(shift, word):
    """Rank of one admissible word, read through the column form."""
    return int(shift.rank([np.array([e]) for e in word])[0])


@pytest.mark.parametrize("matrix", [[[3]], GOLDEN, [[2, 1], [1, 2]], [[1, 1], [0, 1]]])
def test_ranks_number_the_words_in_order(matrix):
    shift = build_edge_shift(matrix)
    for n in range(1, 6):
        listed = list(shift.words(n))
        cols = shift.unrank(n, 0, len(listed))
        assert list(zip(*(c.tolist() for c in cols))) == listed
        assert shift.rank(cols).tolist() == list(range(len(listed)))
        assert [_rank(shift, w) for w in listed] == list(range(len(listed)))
        for state in range(shift.k):
            assert list(shift.words(n, start_state=state)) == [
                w for w in listed if shift.source(w[0]) == state
            ]
    assert not shift.is_admissible((shift.n_edges,))


def test_start_states_outside_the_shift_are_refused():
    golden = build_edge_shift(GOLDEN)
    for state in (-1, 2):
        for length in (0, 2):
            with pytest.raises(ValueError):
                list(golden.words(length, start_state=state))
        with pytest.raises(ValueError):
            list(golden.ranked_words(2, start_state=state))
    assert list(golden.words(2, start_state=1)) == [(2, 0), (2, 1)]
    chunks = golden.ranked_words(2, start_state=1)
    assert [(first, [c.tolist() for c in cols]) for first, cols in chunks] == [
        (3, [[2, 2], [0, 1]])
    ]
    assert list(golden.words(0, start_state=1)) == [()]


def test_full_shift_ranks_are_base_q():
    shift = build_edge_shift([[3]])
    assert _rank(shift, (2, 0, 1)) == 2 * 9 + 0 * 3 + 1
    golden = build_edge_shift(GOLDEN)
    assert not golden.is_admissible((1, 1))  # edge 1 cannot follow itself


# -- the one-chunk memo: each short length is enumerated once per shift -----


def _walk(shift, length, start_state):
    """words() and ranked_words() over one length, as plain values."""
    ranked = [
        (first, tuple(c.tolist() for c in cols))
        for first, cols in shift.ranked_words(length, start_state)
    ]
    return list(shift.words(length, start_state)), ranked


def _counting_unrank(mp, shift):
    calls = []
    unrank = shift.unrank

    def counted(*args):
        calls.append(args)
        return unrank(*args)

    mp.setattr(shift, "unrank", counted)
    return calls


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k
        )
    ).filter(lambda m: any(map(any, m))),
    st.integers(1, 6),
)
def test_second_walk_is_kept_and_matches_a_fresh_shift(m, length):
    shift = build_edge_shift(m)
    kept = shift.word_count(length) <= WORD_CHUNK
    for start_state in (None, *range(shift.k)):
        first = _walk(shift, length, start_state)
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_unrank(mp, shift)
            second = _walk(shift, length, start_state)
        assert second == first == _walk(build_edge_shift(m), length, start_state)
        # a kept length is never unranked again; a longer one is streamed anew
        assert len(calls) == (0 if kept else len(second[1]))
        for begin, cols in shift.ranked_words(length, start_state):
            end = begin + len(cols[0])
            unranked = shift.unrank(length, begin, end)
            assert [c.tolist() for c in unranked] == [c.tolist() for c in cols]
            assert shift.rank(unranked).tolist() == list(range(begin, end))
            if kept:
                with pytest.raises(ValueError):
                    cols[0][0] = 0


def test_a_length_past_one_chunk_is_streamed_and_not_kept():
    shift = build_edge_shift([[2]])
    assert shift.word_count(15) == 32768 == 2 * WORD_CHUNK
    streamed = [(15, 0, WORD_CHUNK), (15, WORD_CHUNK, 2 * WORD_CHUNK)]
    # the first walk also unranks its tail length 14 once; the second builds
    # no tail
    for tail in ([(14, 0, WORD_CHUNK)], []):
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting_unrank(mp, shift)
            chunks = list(shift.ranked_words(15))
        assert [first for first, _ in chunks] == [0, WORD_CHUNK]
        assert calls == streamed[:1] + tail + streamed[1:]
        assert 15 not in shift._one_chunk
        chunks[0][1][0][0] = chunks[0][1][-1][0] = 1  # the caller's own arrays
    assert list(shift.words(15))[:2] == [(0,) * 15, (0,) * 14 + (1,)]


def test_lengths_below_one_are_refused():
    fresh = build_edge_shift([[2]])
    used = build_edge_shift([[2]])
    list(used.words(3))  # rank tables for lengths up to 3 now exist
    for shift in (fresh, used):
        for length in (0, -1):
            with pytest.raises(ValueError):
                list(shift.ranked_words(length))
            with pytest.raises(ValueError):
                shift.unrank(length, 0, 1)
        with pytest.raises(ValueError):
            list(shift.words(-1))
        assert list(shift.words(0)) == [()]


def test_count_words_golden_is_fibonacci_like():
    shift = build_edge_shift(GOLDEN)
    assert [count_words(shift, n) for n in range(7)] == [1, 3, 5, 8, 13, 21, 34]


def test_count_words_full_shift():
    shift = build_edge_shift([[2]])
    assert [count_words(shift, n) for n in range(6)] == [1, 2, 4, 8, 16, 32]


def _cycle_with_chord(k):
    matrix = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    matrix[0][2] = 1
    return matrix


@pytest.mark.parametrize(
    "matrix",
    [[[2]], GOLDEN, [[1, 1, 0], [0, 1, 1], [0, 0, 2]], _cycle_with_chord(24)],
    ids=["full-2", "golden", "reducible-3", "cycle-24-chord"],
)
def test_count_words_is_the_entry_sum_of_matrix_powers(matrix):
    shift = build_edge_shift(matrix)
    assert count_words(shift, 0) == 1  # the empty word, by convention
    for n in range(1, 13):
        assert count_words(shift, n) == sum(map(sum, ratmat.mat_pow(matrix, n))), n
    with pytest.raises(ValueError):
        count_words(shift, -1)


def test_ensure_budget_raises_past_cap():
    shift = build_edge_shift([[2]])
    with window_budget(100):
        assert shift.ensure_budget(3) == 8
        with pytest.raises(WindowBudgetExceeded):
            shift.ensure_budget(10)


# -- structural flags -------------------------------------------------------


def test_flags_standard_examples():
    golden = build_edge_shift(GOLDEN)
    assert golden.irreducible and golden.primitive and golden.positive_entropy

    periodic = build_edge_shift([[0, 1], [1, 0]])
    assert periodic.irreducible and not periodic.primitive
    assert not periodic.positive_entropy

    upper = build_edge_shift([[1, 1], [0, 1]])
    assert not upper.irreducible

    single = build_edge_shift([[1]])
    assert single.irreducible and not single.positive_entropy


def test_flags_match_reachability_on_all_3x3_zero_one_matrices():
    for bits in range(1, 2**9):
        m = [[(bits >> (3 * i + j)) & 1 for j in range(3)] for i in range(3)]
        # Warshall closure: reach[i][j] iff a path i -> j of one or more edges
        reach = [row[:] for row in m]
        for l in range(3):
            for i in range(3):
                for j in range(3):
                    reach[i][j] = reach[i][j] or (reach[i][l] and reach[l][j])
        # positive entropy iff some state has two out-edges that both lie on
        # cycles through it
        two_cycles = any(
            m[s][t] and m[s][u] and reach[t][s] and reach[u][s]
            for s in range(3)
            for t in range(3)
            for u in range(t + 1, 3)
        )
        shift = build_edge_shift(m)
        assert shift.irreducible == all(map(all, reach)), m
        assert shift.positive_entropy == two_cycles, m
        g = nx.from_numpy_array(np.array(m), create_using=nx.DiGraph)
        assert shift.primitive == (nx.is_strongly_connected(g) and nx.is_aperiodic(g)), m


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(0, 2), min_size=k, max_size=k), min_size=k, max_size=k
        )
    )
)
def test_flags_and_reach_match_networkx_and_matrix_powers(m):
    if not any(map(any, m)):
        return  # the zero matrix presents no shift
    shift = build_edge_shift(m)
    g = nx.from_numpy_array(np.array(m), parallel_edges=True, create_using=nx.MultiDiGraph)
    strong = nx.is_strongly_connected(g)
    assert shift.irreducible == strong
    assert shift.primitive == (strong and nx.is_aperiodic(g))
    # positive entropy iff some component has more edges than states
    assert shift.positive_entropy == any(
        g.subgraph(c).number_of_edges() > len(c) for c in nx.strongly_connected_components(g)
    )
    for n in range(7):
        power = ratmat.mat_pow(m, n)
        reach = shift.reach_exact(n)
        assert reach.dtype == bool and not reach.flags.writeable
        assert np.array_equal(reach, np.array(power) > 0)


def test_reach_exact_rejects_negative_lengths():
    with pytest.raises(ValueError):
        build_edge_shift(GOLDEN).reach_exact(-1)


def test_shift_equality_is_by_matrix():
    assert build_edge_shift(GOLDEN) == build_edge_shift(GOLDEN)
    assert build_edge_shift(GOLDEN) != build_edge_shift([[2]])


# -- Perron data ------------------------------------------------------------


def test_perron_golden():
    data = perron_data(build_edge_shift(GOLDEN))
    assert data.lambda_ == pytest.approx(PHI, abs=1e-9)
    assert data.entropy == pytest.approx(math.log(PHI), abs=1e-9)
    assert sum(data.v_right) == pytest.approx(1.0)


def test_perron_full_shift():
    data = perron_data(build_edge_shift([[2]]))
    assert data.lambda_ == pytest.approx(2.0, abs=1e-12)
    assert data.v_right == (1.0,)


def test_perron_periodic_irreducible():
    # the roots +1 and -1 share the spectral radius of a period-2 matrix
    data = perron_data(build_edge_shift([[0, 1], [1, 0]]))
    assert data.lambda_ == pytest.approx(1.0, abs=1e-9)
    assert data.entropy == pytest.approx(0.0, abs=1e-9)


def test_perron_rejects_reducible():
    shift = build_edge_shift([[1, 1], [0, 1]])
    for _ in range(2):  # a refusal is not kept as a result
        with pytest.raises(ReducibleInput):
            perron_data(shift)


def test_perron_kernel_runs_once_per_shift(monkeypatch):
    calls = []

    def counted(matrix):
        calls.append(matrix)
        return kernel(matrix)

    kernel = shifts._perron_kernel
    monkeypatch.setattr(shifts, "_perron_kernel", counted)
    shift = build_edge_shift(GOLDEN)
    data = perron_data(shift)
    assert perron_data(shift) is data
    assert calls == [shift.matrix]
    # the kept result is the one a fresh shift computes
    assert perron_data(build_edge_shift(GOLDEN)) == data


def test_perron_kernel_of_a_one_by_one_matrix_needs_no_eigensolver(monkeypatch):
    def refuse(*args):
        raise AssertionError("LAPACK was called on a 1 x 1 matrix")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for n in range(1, 6):
        data = shifts._perron_kernel(((n,),))
        assert data == shifts.PerronData(
            lambda_=float(n), v_right=(1.0,), entropy=math.log(n), enclosure=(n, n)
        )
        assert type(data.lambda_) is float and data.enclosure[0] == Fraction(n)


@pytest.mark.parametrize("name", [*_SHIFT_MATRICES, *_SQUARES, "cubic"])
def test_perron_root_and_entropy_to_the_last_bits(name):
    # the cubic realization is the entropy-bound-failure witness's matrix
    cubic = name == "cubic"
    shift = build_edge_shift([[5, 1, 0], [5, 0, 1], [4, 1, 0]]) if cubic else shift_builtin(name)
    root = reference_perron_root(shift.matrix)
    data = perron_data(shift)
    assert abs(data.lambda_ - root) <= root / 10**15
    with mpmath.workdps(40):
        h = mpmath.log(mpmath.mpf(root.numerator) / root.denominator)
        assert abs(data.entropy - h) <= h / 10**15


# -- eventual-range data ----------------------------------------------------


def test_dimension_data_golden_is_full_rank():
    dim = dimension_data(build_edge_shift(GOLDEN))
    assert dim.d == 2
    assert dim.basis == ratmat.identity(2)
    assert dim.delta_restricted == ((1, 1), (1, 0))
    assert dim.delta_inverse == ((0, 1), (1, -1))
    # eigenvalues phi and -1/phi, so rho_minus = phi
    assert dim.rho_minus == pytest.approx(PHI, abs=1e-9)
    assert dim.char_poly == (1, -1, -1)


def test_dimension_data_rank_deficient():
    dim = dimension_data(build_edge_shift([[1, 1], [1, 1]]))
    assert dim.d == 1
    assert dim.basis == ((Fraction(1), Fraction(1)),)
    assert dim.delta_restricted == ((Fraction(2),),)
    assert dim.rho_minus == pytest.approx(0.5, abs=1e-12)


def test_dimension_data_nilpotent_raises():
    shift = build_edge_shift([[0, 1], [0, 0]])
    for _ in range(2):  # a refusal is not kept as a result
        with pytest.raises(NilpotentMatrix):
            dimension_data(shift)


def test_dimension_data_is_computed_once_per_shift(monkeypatch):
    calls = []

    def counted(shift):
        calls.append(shift)
        return compute(shift)

    compute = shifts._eventual_range
    monkeypatch.setattr(shifts, "_eventual_range", counted)
    shift = build_edge_shift(GOLDEN)
    dim = dimension_data(shift)
    assert dimension_data(shift) is dim
    assert calls == [shift]
    assert dimension_data(build_edge_shift(GOLDEN)) == dim


def test_dimension_coords_and_membership():
    dim = dimension_data(build_edge_shift([[1, 1], [1, 1]]))
    assert dim.coords((2, 2)) == (Fraction(2),)
    with pytest.raises(InternalInvariantViolation):
        dim.coords((1, 0))  # not in the eventual range


def test_apply_delta_power_negative():
    dim = dimension_data(build_edge_shift(GOLDEN))
    v = (Fraction(1), Fraction(0))
    fwd = dim.apply_delta_power(v, 3)
    assert fwd == (3, 2)  # (1, 0) A^3
    assert dim.apply_delta_power(fwd, -3) == v


@pytest.mark.parametrize("matrix", [GOLDEN, [[1, 1], [1, 1]], [[0, 2, 1], [1, 0, 0], [1, 1, 0]]])
def test_integer_data_stays_int(matrix):
    # no division is involved, so no Fraction may appear
    shift = build_edge_shift(matrix)
    dim = dimension_data(shift)
    values = [count_words(shift, n) for n in range(6)]
    values += list(dim.char_poly)
    values += [x for row in dim.eventual_power for x in row]
    # these bases are integral, so the basis and the restricted action are too
    values += [x for m in (dim.basis, dim.delta_restricted) for row in m for x in row]
    assert all(type(x) is int for x in values)


def test_rho_minus_with_a_repeated_root():
    # char poly (t - 1)^2 (t^3 - 2t^2 - 2t - 1): the squarefree part needs a
    # quotient with a zero coefficient
    matrix = [[1, 0, 0, 1, 1], [0, 0, 0, 0, 1], [0, 1, 1, 1, 0], [0, 0, 1, 2, 0], [1, 0, 1, 2, 0]]
    dim = dimension_data(build_edge_shift(matrix))
    assert dim.char_poly == (1, -4, 3, 1, 0, -1)
    smallest = min(abs(z) for z in np.linalg.eigvals(np.array(matrix, dtype=float)))
    assert dim.rho_minus == pytest.approx(1 / smallest, rel=1e-12)
    assert dim.rho_minus == pytest.approx(1.6826102362723, rel=1e-12)


# -- products and transposes ------------------------------------------------


def test_kronecker_matrix_and_edges():
    golden = build_edge_shift(GOLDEN)
    prod = kronecker_product(golden, golden)
    assert prod.k == 4
    assert prod.n_edges == 9
    assert prod.product_of == (golden, golden)
    # pair correspondence is a bijection respecting sources and targets
    seen = set()
    for (ea, eb), e in prod.pair_to_edge.items():
        assert prod.edge_to_pair[e] == (ea, eb)
        seen.add(e)
        sa, ta, _ = golden.edges[ea]
        sb, tb, _ = golden.edges[eb]
        s, t, _ = prod.edges[e]
        assert (s, t) == (sa * 2 + sb, ta * 2 + tb)
    assert seen == set(range(prod.n_edges))


def test_kronecker_word_counts_multiply():
    a = build_edge_shift(GOLDEN)
    b = build_edge_shift([[2]])
    prod = kronecker_product(a, b)
    for n in range(4):
        assert count_words(prod, n) == count_words(a, n) * count_words(b, n)


def test_transpose_bijection():
    shift = build_edge_shift([[1, 2], [1, 0]])
    tshift, bij = transpose_shift(shift)
    assert tshift.matrix == ((1, 1), (2, 0))
    assert sorted(bij) == list(range(shift.n_edges))
    for e, (s, t, c) in enumerate(shift.edges):
        assert tshift.edges[bij[e]] == (t, s, c)
