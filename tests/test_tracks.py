"""Products read by their tracks.

An automorphism of a recorded product that acts coordinatewise splits into
track automorphisms, and W, the column census and h_top are read from them:
W^- is the tracks' min and W^+ their max, census counts multiply and
entropies add.  The oracle is the same rule relabelled onto a flat shift
with the same matrix and no recorded factors, where the product table is
scanned and enumerated whole; exact entropies are checked against numpy's
spectral radius of each factor matrix.

Claims covered:
    - on the product builtins, on the golden mean shift times the identity
      of a 2-cycle, and on drawn products of shift powers, symbol
      permutations and identities, the track path and the flat path give
      equal W profiles for n <= 3 and equal census counts for w <= 1, n <= 2
    - exact_entropy_of is the sum over the tracks of |s| log(rho)
    - each direction of an automorphism is factored once, also when the
      automorphism is inverted
    - the ray image on a product reads W from the tracks and builds phi^n
      once on the product shift, and phi^-n not at all
    - the split read off the diagram gives the levels of the walk over
      every product window, or None with it, on seeded codes over products
      of essential and non-essential shifts: products of random columns,
      random columns on the product, and drawn products composed with the
      track swap
    - product_code, the split and recognized_exponents enumerate no window
      on the product builtins and (sigma x sigma^-1)^5, and product_code
      charges its window before it builds
"""

import math
import random

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from sftlab import codes
from sftlab.builtins import make_builtin, product_automorphism
from sftlab.codes import (
    Automorphism,
    SlidingBlockCode,
    automorphism_power,
    compose,
    factor_product_code,
    product_code,
    recognized_exponents,
)
from sftlab.coding_range import coding_range_profile, lyapunov_bounds
from sftlab.dimension import apply_automorphism_to_ray, canonical_zero_ray
from sftlab.entropy import column_census, exact_entropy_of
from sftlab.errors import WindowBudgetExceeded
from sftlab.reports import _random_code
from sftlab.shifts import EdgeShift, build_edge_shift, kronecker_product, window_budget

GOLDEN = build_edge_shift([[1, 1], [1, 0]])
CYCLE = build_edge_shift([[0, 1], [1, 0]])
PIECE_SHIFTS = (build_edge_shift([[2]]), build_edge_shift([[3]]), GOLDEN)
#: Largest flat window table the oracle may enumerate, in words.
FLAT_WORDS = 20000


def column(code):
    """The code's outputs on its windows, in rank order."""
    return np.concatenate([code.outputs(cols) for _, cols in code.source.ranked_words(code.window)])


def flat(auto):
    """The same rule on a shift with the same matrix and no recorded factors."""
    shift = build_edge_shift(auto.shift.matrix)
    fwd, inv = (
        SlidingBlockCode.from_column(shift, shift, c.memory, c.anticipation, column(c))
        for c in (auto.forward, auto.inverse)
    )
    return Automorphism(fwd, inv, {"method": "relabel"})


def log_rho(shift):
    return math.log(max(abs(np.linalg.eigvals(np.array(shift.matrix, dtype=float)))))


def check_against_flat(auto, exponents):
    """Track path against the flat product table; ``exponents`` holds each
    factor's shift power s, or None when the factor is no shift power."""
    flat_auto = flat(auto)
    assert len(auto.tracks) == 2 and flat_auto.tracks == (flat_auto,)
    assert coding_range_profile(auto, 3) == coding_range_profile(flat_auto, 3)
    for w in (0, 1):
        for n in (1, 2):
            assert column_census(auto, w, n).count == column_census(flat_auto, w, n).count
    entropy = exact_entropy_of(auto)
    if None in exponents:
        assert entropy is None
    else:
        expected = sum(abs(s) * log_rho(f) for s, f in zip(exponents, auto.shift.product_of))
        assert entropy == pytest.approx(expected, abs=1e-9)
        assert entropy == pytest.approx(sum(exact_entropy_of(t) for t in auto.tracks), abs=1e-12)


def golden_times_cycle():
    _, sigma = make_builtin("shift", {"shift": GOLDEN})
    _, ident = make_builtin("identity", {"shift": CYCLE})
    return product_automorphism(sigma, ident, kronecker_product(GOLDEN, CYCLE))


@pytest.mark.parametrize(
    "make,exponents",
    [
        (lambda: make_builtin("tau_golden")[1], (0, -1)),
        (lambda: make_builtin("sigma_x_sigma_inv")[1], (1, -1)),
        (golden_times_cycle, (1, 0)),
    ],
    ids=["tau_golden", "sigma_x_sigma_inv", "golden_x_cycle"],
)
def test_named_products_match_the_flat_table(make, exponents):
    check_against_flat(make(), exponents)


@st.composite
def factors(draw):
    """(automorphism, s) for a shift power sigma^s, a symbol permutation of
    a full shift (s = 0 for the identity, else None) or an identity."""
    shift = draw(st.sampled_from(PIECE_SHIFTS))
    if draw(st.booleans()):
        s = draw(st.integers(-2, 2))
        return automorphism_power(make_builtin("shift", {"shift": shift})[1], s), s
    if shift.k > 1:
        return make_builtin("identity", {"shift": shift})[1], 0
    perm = draw(st.permutations(range(shift.n_edges)))
    params = {"n": shift.n_edges, "permutation": tuple(perm)}
    identity = list(perm) == sorted(perm)
    return make_builtin("full_shift_symbol_permutation", params)[1], 0 if identity else None


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(left=factors(), right=factors())
def test_drawn_products_match_the_flat_table(left, right):
    (a, s), (b, t) = left, right
    prod = kronecker_product(a.shift, b.shift)
    auto = product_automorphism(a, b, prod)
    # the flat oracle tabulates phi^3 and phi^-3 on the product shift
    window = max(1 + 3 * (c.memory + c.anticipation) for c in (auto.forward, auto.inverse))
    assume(prod.word_count(window) <= FLAT_WORDS)
    check_against_flat(auto, (s, t))


def test_each_direction_is_factored_once(monkeypatch):
    factored = []
    real = codes.factor_product_code

    def counted(code):
        factored.append(code)
        return real(code)

    monkeypatch.setattr(codes, "factor_product_code", counted)
    _, auto = make_builtin("tau_golden")
    profile = coding_range_profile(auto, 3)
    lyapunov_bounds(auto, profile)
    column_census(auto, 1, 2)
    exact_entropy_of(auto)
    inv = auto.inverse_automorphism()
    for a in (inv, inv.inverse_automorphism()):
        lyapunov_bounds(a, coding_range_profile(a, 3))
    assert [t.forward for t in inv.tracks] == [t.inverse for t in auto.tracks]
    assert auto.forward in factored and auto.inverse in factored
    assert len({id(code) for code in factored}) == len(factored)


def test_ray_image_on_a_product_reads_w_from_the_tracks(monkeypatch):
    built = []
    real = Automorphism.power

    def recorded(self, n):
        built.append((self.shift, n))
        return real(self, n)

    monkeypatch.setattr(Automorphism, "power", recorded)
    _, auto = make_builtin("sigma_x_sigma_inv")
    apply_automorphism_to_ray(auto, 2, canonical_zero_ray(auto.shift, 0))
    on_product = [n for shift, n in built if shift == auto.shift]
    assert on_product == [2]


# -- the split against the window walk -------------------------------------

#: Factor shifts of the seeded products: essential, reducible, a cycle, the
#: non-essential [[1, 1], [0, 0]] (state 1 has no edge out) and one edge.
SPLIT_SHIFTS = tuple(
    map(
        build_edge_shift,
        (
            [[2]],
            [[1, 1], [1, 0]],
            [[0, 1], [1, 0]],
            [[1, 1], [0, 1]],
            [[1, 1], [0, 0]],
            [[1]],
            [[2, 1], [1, 0]],
        ),
    )
)
#: Largest product window the walk may enumerate, in words.
SPLIT_WORDS = 4096


def ref_factor_product_code(code):
    """The split as a walk over every window of the product: each track's
    output, recorded at the rank of the track's window, must take one value
    per track window and cover them all."""
    prod = code.source
    if prod.product_of is None or code.target != prod:
        return None
    factors = []
    for i, shift in enumerate(prod.product_of):
        track = np.array([pair[i] for pair in prod.edge_to_pair])
        column = np.full(shift.word_count(code.window), -1, dtype=np.int64)
        for _, cols in prod.ranked_words(code.window):
            keys, values = shift.rank(tuple(track[c] for c in cols)), track[code.outputs(cols)]
            held = column[keys]
            if np.any((held >= 0) & (held != values)):
                return None
            column[keys] = values
            if np.any(column[keys] != values):
                return None
        if np.any(column < 0):
            return None
        factors.append(
            SlidingBlockCode.from_column(shift, shift, code.memory, code.anticipation, column)
        )
    return tuple(factors)


def random_column_code(rng, shift, memory, anticipation):
    """A code whose output on each window is a drawn edge, composable or not."""
    count = shift.word_count(memory + anticipation + 1)
    column = [rng.randrange(shift.n_edges) for _ in range(count)]
    return SlidingBlockCode.from_column(shift, shift, memory, anticipation, column)


def track_swap(prod):
    """The code on a product of a shift with itself that swaps the tracks."""
    column = [prod.pair_to_edge[(eb, ea)] for ea, eb in prod.edge_to_pair]
    return SlidingBlockCode.from_column(prod, prod, 0, 0, column)


def seeded_product_code(seed):
    """The code of one seed: kind seed % 3 picks products of random columns,
    random columns on the product, or a product of acceptance-suite codes
    composed with the track swap; draws whose window has more than
    SPLIT_WORDS product words are drawn again."""
    rng = random.Random(seed)
    while True:
        a, b = rng.choice(SPLIT_SHIFTS), rng.choice(SPLIT_SHIFTS)
        if seed % 3 == 0:
            prod = kronecker_product(a, b)
            left, right = (
                random_column_code(rng, s, rng.randint(0, 2), rng.randint(0, 2)) for s in (a, b)
            )
            window = max(left.memory, right.memory) + max(left.anticipation, right.anticipation) + 1
            if prod.word_count(window) <= SPLIT_WORDS:
                return product_code(left, right, prod)
        elif seed % 3 == 1:
            prod = kronecker_product(a, b)
            memory, anticipation = rng.randint(0, 1), rng.randint(0, 1)
            if prod.word_count(memory + anticipation + 1) <= SPLIT_WORDS:
                return random_column_code(rng, prod, memory, anticipation)
        else:
            prod = kronecker_product(a, a)
            left, right = _random_code(rng, a), _random_code(rng, a)
            window = max(left.memory, right.memory) + max(left.anticipation, right.anticipation) + 1
            if prod.word_count(window) <= SPLIT_WORDS:
                pair = product_code(left, right, prod)
                swap = track_swap(prod)
                return compose(swap, pair) if rng.random() < 0.5 else compose(pair, swap)


def test_split_matches_the_window_walk():
    split = 0
    for seed in range(600):
        code = seeded_product_code(seed)
        got, want = factor_product_code(code), ref_factor_product_code(code)
        assert (got is None) == (want is None), seed
        if got is None:
            continue
        split += 1
        for g, w in zip(got, want):
            assert (g.memory, g.anticipation) == (w.memory, w.anticipation), seed
            assert len(g.levels) == len(w.levels), seed
            assert all(map(np.array_equal, g.levels, w.levels)), seed
    assert 200 < split < 400  # both answers are drawn often
    # a product with no window of two edges, though its second track has some
    prod = kronecker_product(build_edge_shift([[0, 1], [0, 0]]), build_edge_shift([[2]]))
    empty = SlidingBlockCode.from_column(prod, prod, 0, 1, [])
    assert factor_product_code(empty) is None and ref_factor_product_code(empty) is None


def test_products_are_built_and_split_without_enumerating(monkeypatch):
    # make_builtin verifies its automorphisms by enumeration, so they are
    # built first
    _, tau = make_builtin("tau_golden")
    _, sigma_pair = make_builtin("sigma_x_sigma_inv")
    fifth = automorphism_power(sigma_pair, 5)
    autos = (tau, sigma_pair, fifth)
    assert all("tracks" not in auto.__dict__ for auto in autos)

    def refuse(*args, **kwargs):
        raise AssertionError("a window was enumerated")

    monkeypatch.setattr(EdgeShift, "ranked_words", refuse)
    monkeypatch.setattr(EdgeShift, "words", refuse)
    for auto in autos:
        left, right = auto.tracks
        for pair, code in (
            ((left.forward, right.forward), auto.forward),
            ((left.inverse, right.inverse), auto.inverse),
        ):
            built = product_code(*pair, auto.shift)
            assert (built.memory, built.anticipation) == (code.memory, code.anticipation)
            assert all(map(np.array_equal, built.levels, code.levels))
        assert recognized_exponents(auto) is not None
    full2 = sigma_pair.shift.product_of[0]
    assert recognized_exponents(fifth) == ("product", ((full2, 5), (full2, -5)))


def test_product_code_charges_its_window_before_it_builds(monkeypatch):
    _, sigma_pair = make_builtin("sigma_x_sigma_inv")
    fifth = automorphism_power(sigma_pair, 5)
    left, right = fifth.tracks
    count = fifth.shift.word_count(fifth.forward.window)

    def refuse(*args, **kwargs):
        raise AssertionError("built before the budget was charged")

    with monkeypatch.context() as patch:
        patch.setattr(codes, "_padded", refuse)
        patch.setattr(codes, "_pair_arrays", refuse)
        with window_budget(count - 1), pytest.raises(WindowBudgetExceeded):
            product_code(left.forward, right.forward, fifth.shift)
    with window_budget(count):
        built = product_code(left.forward, right.forward, fifth.shift)
    assert all(map(np.array_equal, built.levels, fifth.forward.levels))
