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
"""

import math

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from sftlab import codes
from sftlab.builtins import make_builtin, product_automorphism
from sftlab.codes import Automorphism, SlidingBlockCode, automorphism_power
from sftlab.coding_range import coding_range_profile, lyapunov_bounds
from sftlab.dimension import apply_automorphism_to_ray, canonical_zero_ray
from sftlab.entropy import column_census, exact_entropy_of
from sftlab.shifts import build_edge_shift, kronecker_product

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
