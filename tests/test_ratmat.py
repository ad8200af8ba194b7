"""Exact integer/rational linear algebra: the kit every other module leans on.

Claims covered:
    - matrix product/power agree with naive definitions, exactly
    - rref produces a reduced echelon basis with the right rank
    - clear_denominators scales int and Fraction entries to ints and
      refuses floats
    - inverse() really inverts over Q and refuses singular input
    - char_poly matches hand-computed polynomials (companion, diagonal,
      rows with one entry in a shared column, a zero row)
    - char_poly, rref, inverse, mat_mul, vec_mat and mat_pow agree with
      sympy on seeded integer matrices, singular and nilpotent ones
      included, and integer input keeps Python ints where no division is
      made
    - char_poly agrees with sympy on seeded rational matrices, with ints
      exactly where the coefficient is integral; so do rref, inverse,
      mat_mul and vec_mat.  char_poly also agrees on 0/1 cycles plus a
      chord up to 24 states
    - the row-combination mat_mul/vec_mat and the fraction-free rref give
      the values of the column-dot products and the Fraction elimination
      kept here as references, on seeded integer and rational matrices and
      on zero rows and columns, rank-deficient, 1 x n, n x 1, empty and
      all-zero input; rref and inverse give an int for an integral entry
      and a Fraction otherwise; vec_mat, started from its first weighted
      row, gives the values and types of the combination added into a row
      of int zeros, for int, Fraction and Fraction(1) weights
    - polynomial division, gcd, square-free part, and zero-root stripping
      behave on exact integer/rational coefficients; division, the monic
      gcd and the square-free part agree with sympy on polynomials with
      repeated factors, scaled by negative, rational and non-unit factors;
      the square-free part builds no Fraction and has int coefficients
    - cyclotomic_indices factors products of cyclotomic polynomials and
      rejects everything else
"""

import math
import random
from fractions import Fraction

import pytest

from sftlab import ratmat
from sftlab.errors import InternalInvariantViolation


F = Fraction


def test_mat_mul_matches_naive():
    a = ((1, 2), (3, 4))
    b = ((5, 6), (7, 8))
    assert ratmat.mat_mul(a, b) == ((19, 22), (43, 50))


def test_mat_pow_by_squaring_matches_repeated_mul():
    a = ((1, 1), (1, 0))
    by_mul = ratmat.identity(2)
    for n in range(8):
        assert ratmat.mat_pow(a, n) == by_mul
        by_mul = ratmat.mat_mul(by_mul, a)


def test_mat_pow_rejects_negative():
    with pytest.raises(ValueError):
        ratmat.mat_pow(ratmat.identity(2), -1)


def test_vec_mat_is_row_vector_convention():
    a = ((0, 1), (2, 3))
    assert ratmat.vec_mat((F(1), F(1)), a) == (F(2), F(4))


def zero_start_vec_mat(x, a):
    """The combination added into a row of int zeros, one row at a time."""
    out = [0] * (len(a[0]) if a else 0)
    for c, row in zip(x, a):
        if c:
            out = [s + c * v for s, v in zip(out, row)]
    return tuple(out)


@pytest.mark.parametrize(
    "x", [(1, 0, 2), (0, F(1), 1), (0, 0, F(2, 3)), (-1, 1, 0), (0, 0, 0), (True, 0, 1)]
)
@pytest.mark.parametrize(
    "a", [((1, 2), (3, 4), (5, 6)), ((F(1, 2), 2), (3, F(4)), (0, F(-5, 6))), ()]
)
def test_vec_mat_starts_from_the_first_weighted_row(x, a):
    got, want = ratmat.vec_mat(x, a), zero_start_vec_mat(x, a)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


def test_rref_full_rank():
    basis, pivots = ratmat.rref(((2, 0), (1, 1)))
    assert basis == ratmat.identity(2)
    assert pivots == (0, 1)


def test_rref_rank_deficient():
    # rank one: second row is twice the first
    basis, pivots = ratmat.rref(((1, 2), (2, 4)))
    assert basis == ((F(1), F(2)),)
    assert pivots == (0,)


def test_rref_pivot_columns_are_standard_basis():
    m = ((1, 2, 3), (0, 1, 4), (1, 3, 7))
    basis, pivots = ratmat.rref(m)
    for i, row in enumerate(basis):
        for j, p in enumerate(pivots):
            assert row[p] == (1 if i == j else 0)


def test_clear_denominators_takes_ints_and_fractions():
    den, ints = ratmat.clear_denominators(((1, F(1, 2)), (F(2, 3), -4)))
    assert den == 6
    assert ints == ((6, 3), (4, -24))
    assert all(type(x) is int for row in ints for x in row)
    assert ratmat.clear_denominators(((2, 3),)) == (1, ((2, 3),))
    with pytest.raises(AttributeError):  # floats are not exact entries
        ratmat.clear_denominators(((0.5,),))


def test_inverse_roundtrip_exact():
    a = ((1, 1), (1, 0))
    inv = ratmat.inverse(a)
    assert ratmat.mat_mul(a, inv) == ratmat.identity(2)
    assert ratmat.mat_mul(inv, a) == ratmat.identity(2)
    assert inv == ((0, 1), (1, -1))


def test_inverse_rejects_singular():
    with pytest.raises(InternalInvariantViolation):
        ratmat.inverse(((1, 2), (2, 4)))


def test_char_poly_companion():
    # companion matrix of t^3 - 5t^2 - 6t + 1
    c = [[5, 6, -1], [1, 0, 0], [0, 1, 0]]
    assert ratmat.char_poly(c) == [1, -5, -6, 1]


def test_char_poly_small_cases():
    assert ratmat.char_poly([[2]]) == [1, -2]
    assert ratmat.char_poly([[1, 1], [1, 0]]) == [1, -1, -1]
    assert ratmat.char_poly([[2, 0], [0, 3]]) == [1, -5, 6]
    # rows with one entry into the same column, and a zero row
    assert ratmat.char_poly([[0, 1, 0], [0, 1, 0], [1, 0, 1]]) == [1, -2, 1, 0]
    assert ratmat.char_poly([[0, 1, 0], [0, 1, 0], [0, 0, 0]]) == [1, -1, 0, 0]


def test_char_poly_fraction_entries():
    a = ((F(1, 2), 0), (0, F(1, 3)))
    assert ratmat.char_poly(a) == [1, F(-5, 6), F(1, 6)]


def _seeded_matrices(n, seed):
    """A general, a singular and a nilpotent integer n x n matrix."""
    rng = random.Random(seed)

    def draw():
        return [rng.randint(-3, 3) for _ in range(n)]

    general = [draw() for _ in range(n)]
    singular = [draw() for _ in range(n - 1)]
    singular.append([2 * x for x in singular[0]] if n > 1 else [0])
    # strictly upper triangular, then conjugated by a permutation
    perm = list(range(n))
    rng.shuffle(perm)
    upper = [[rng.randint(-3, 3) if i < j else 0 for j in range(n)] for i in range(n)]
    nilpotent = [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return [tuple(map(tuple, m)) for m in (general, singular, nilpotent)]


def _from_sympy(matrix):
    return tuple(tuple(Fraction(int(x.p), int(x.q)) for x in row) for row in matrix.tolist())


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_kernel_agrees_with_sympy(n):
    sympy = pytest.importorskip("sympy")
    matrices = _seeded_matrices(n, seed=n)
    assert ratmat.char_poly(matrices[2]) == [1] + [0] * n  # really nilpotent
    for a, other in zip(matrices, matrices[1:] + matrices[:1]):
        m = sympy.Matrix(a)
        coeffs = ratmat.char_poly(a)
        assert all(type(c) is int for c in coeffs)
        assert coeffs == [int(c) for c in m.charpoly().all_coeffs()]
        reduced, pivots = ratmat.rref(a)
        expected, expected_pivots = m.rref()
        assert pivots == expected_pivots
        assert reduced == _from_sympy(expected)[: len(pivots)]
        if m.det() == 0:
            with pytest.raises(InternalInvariantViolation):
                ratmat.inverse(a)
        else:
            assert ratmat.inverse(a) == _from_sympy(m.inv())
        assert ratmat.mat_mul(a, other) == _from_sympy(m * sympy.Matrix(other))
        assert ratmat.vec_mat(other[0], a) == _from_sympy(sympy.Matrix([other[0]]) * m)[0]
        for k in range(5):
            power = ratmat.mat_pow(a, k)
            assert all(type(x) is int for row in power for x in row)
            assert power == _from_sympy(m**k)


def test_poly_derivative():
    p = [1, -1, -1]  # t^2 - t - 1
    assert ratmat.poly_derivative(p) == [2, -1]
    assert ratmat.poly_derivative([7]) == [0]


def test_poly_divmod_exact_division():
    quot, rem = ratmat.poly_divmod([1, 0, -1], [1, -1])  # (t^2-1)/(t-1)
    assert quot == [F(1), F(1)]
    assert rem == [F(0)]


def test_poly_divmod_with_remainder():
    quot, rem = ratmat.poly_divmod([1, 0, 0], [1, -1])  # t^2 = (t+1)(t-1) + 1
    assert quot == [F(1), F(1)]
    assert rem == [F(1)]


def test_poly_divmod_keeps_zero_quotient_coefficients():
    quot, rem = ratmat.poly_divmod([1, 0, 0, 0, -1], [1, 0, 1])  # (t^4-1)/(t^2+1)
    assert quot == [1, 0, -1]
    assert rem == [0]
    # (t^2 - 4)^2 has the square-free part t^2 - 4, roots +-2
    assert ratmat.squarefree_part([1, 0, -8, 0, 16]) == [1, 0, -4]


def _product(*polys):
    out = [1]
    for p in polys:
        nxt = [0] * (len(out) + len(p) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(p):
                nxt[i + j] += x * y
        out = nxt
    return out


def _seeded_polynomials(seed):
    """Integer polynomials with repeated factors, and divisors of them and
    of other degrees."""
    rng = random.Random(seed)

    def draw(degree):
        return [rng.choice([1, -1, 2])] + [rng.randint(-3, 3) for _ in range(degree)]

    cases = []
    for _ in range(12):
        f, g = draw(rng.randint(1, 3)), draw(rng.randint(1, 3))
        num = _product(f, f, g, [1] + [0] * rng.randint(0, 2) + [rng.choice([1, -1])])
        cases.append((num, f))
        cases.append((num, draw(rng.randint(1, len(num) + 1))))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_polynomial_helpers_agree_with_sympy(seed):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    for num, den in _seeded_polynomials(seed):
        p, q = sympy.Poly(num, t, domain="QQ"), sympy.Poly(den, t, domain="QQ")
        quot, rem = ratmat.poly_divmod(num, den)
        want_quot, want_rem = sympy.div(p, q)
        assert quot == [F(int(c.p), int(c.q)) for c in want_quot.all_coeffs()]
        assert rem == [F(int(c.p), int(c.q)) for c in want_rem.all_coeffs()]
        # primitive with a positive leading coefficient, like sympy's
        sqf = sympy.Poly(num, t).sqf_part()
        want = [int(c) for c in sqf.all_coeffs()]
        content = math.gcd(*want) if want[0] > 0 else -math.gcd(*want)
        want = [c // content for c in want]
        want_gcd = [F(int(c.p), int(c.q)) for c in sympy.gcd(p, q).monic().all_coeffs()]
        # the same primitive part and monic gcd from any nonzero multiple,
        # negative, rational or with content other than 1
        multiples = [[scale * c for c in num] for scale in (1, -1, 6, F(-3, 4), F(5, 2))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ratmat, "Fraction", None)  # the square-free part builds none
            parts = [ratmat.squarefree_part(m) for m in multiples]
        assert all(out == want and all(type(c) is int for c in out) for out in parts)
        for m in multiples:
            for gcd in (ratmat.poly_gcd(m, den), ratmat.poly_gcd(den, [-c for c in m])):
                assert gcd == want_gcd and all(type(c) is F for c in gcd)


def _cyclotomic(n):
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    return [int(c) for c in sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()]


def test_cyclotomic_indices():
    phi = {n: _cyclotomic(n) for n in (1, 2, 3, 4, 7, 12, 30)}
    assert ratmat.cyclotomic_indices([1]) == []
    assert ratmat.cyclotomic_indices(phi[1]) == [1]
    assert ratmat.cyclotomic_indices(_product(phi[7], phi[12])) == [7, 12]
    assert ratmat.cyclotomic_indices(_product(phi[1], phi[1], phi[2], phi[30])) == [1, 1, 2, 30]
    assert ratmat.cyclotomic_indices(_product(phi[4], phi[3], phi[4])) == [3, 4, 4]
    # not integral; not palindromic; palindromic with real roots off the
    # circle; Lehmer's polynomial, palindromic with a root outside
    assert ratmat.cyclotomic_indices([1, F(-5, 2), 1]) is None
    assert ratmat.cyclotomic_indices([1, -1, -1]) is None
    assert ratmat.cyclotomic_indices([1, -3, 1]) is None
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    assert ratmat.cyclotomic_indices(lehmer) is None


def _seeded_rational_matrices(n, seed):
    rng = random.Random(seed)
    return [
        tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)) for _ in range(n))
        for _ in range(3)
    ]


def _cycles_plus_chord(k, seed):
    """0/1 k-cycles 0 -> 1 -> ... -> k-1 -> 0 plus a seeded chord (a
    doubled cycle edge when it lands on one), and the cycle with no chord."""
    rng = random.Random(seed)
    cycle = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
    matrices = [cycle]
    for _ in range(2):
        chorded = [list(row) for row in cycle]
        chorded[rng.randrange(k)][rng.randrange(k)] += 1
        matrices.append(chorded)
    return matrices


@pytest.mark.parametrize("n", range(1, 6))
def test_rational_char_poly_agrees_with_sympy(n):
    sympy = pytest.importorskip("sympy")
    for a in _seeded_rational_matrices(n, seed=n):
        coeffs = ratmat.char_poly(a)
        want = [F(int(c.p), int(c.q)) for c in sympy.Matrix(a).charpoly().all_coeffs()]
        assert coeffs == want
        # ints where integral, Fractions elsewhere
        assert [type(c) for c in coeffs] == [int if c.denominator == 1 else F for c in want]
    # integer cycle-plus-chord matrices of 4, 9, 14, 19 and 24 states
    for a in _cycles_plus_chord(5 * n - 1, seed=n):
        coeffs = ratmat.char_poly(a)
        assert coeffs == [int(c) for c in sympy.Matrix(a).charpoly().all_coeffs()]
        assert all(type(c) is int for c in coeffs)


@pytest.mark.parametrize("n", range(1, 6))
def test_rational_rref_inverse_and_products_agree_with_sympy(n):
    sympy = pytest.importorskip("sympy")
    a, b, c = _seeded_rational_matrices(n, seed=n)
    for x in (a, b, c):
        m = sympy.Matrix(x)
        reduced, pivots = ratmat.rref(x)
        expected, expected_pivots = m.rref()
        assert pivots == expected_pivots
        assert reduced == _from_sympy(expected)[: len(pivots)]
        if m.det() != 0:
            assert ratmat.inverse(x) == _from_sympy(m.inv())
        else:
            with pytest.raises(InternalInvariantViolation):
                ratmat.inverse(x)
    assert ratmat.mat_mul(a, b) == _from_sympy(sympy.Matrix(a) * sympy.Matrix(b))
    assert ratmat.vec_mat(c[0], a) == _from_sympy(sympy.Matrix([c[0]]) * sympy.Matrix(a))[0]


# -- the kernels against the plain definitions --------------------------------
#
# The column-dot product and the Fraction Gauss-Jordan elimination that the
# row-combination products and the fraction-free rref replaced, kept as the
# reference: every entry a full dot product, every pivot row scaled by a
# Fraction.


def dot_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def dot_vec_mat(x, a):
    return tuple(sum(x[i] * a[i][j] for i in range(len(x))) for j in range(len(a[0])))


def fraction_rref(rows):
    m = [list(row) for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def int_where_integral(m):
    """Every entry of ``m`` is an int when integral and a Fraction otherwise."""
    return all(type(x) is (int if x.denominator == 1 else F) for row in m for x in row)


def _shaped_matrices(rng, rational):
    """Seeded matrices of every shape from 1 x 1 to 6 x 6, with zero rows,
    zero columns, repeated (rank-deficient) rows and all-zero ones among
    them."""

    def entry():
        if rational:
            return F(rng.randint(-4, 4), rng.randint(1, 5))
        return rng.randint(-3, 3)

    out = []
    for nrows in range(1, 7):
        for ncols in range(1, 7):
            m = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            shape = rng.randrange(4)
            if shape == 1:
                m[rng.randrange(nrows)] = [0] * ncols
            elif shape == 2:
                j = rng.randrange(ncols)
                for row in m:
                    row[j] = 0
            elif shape == 3 and nrows > 1:
                m[-1] = [2 * x - y for x, y in zip(m[0], m[1 % (nrows - 1)])]
            out.append(tuple(map(tuple, m)))
            out.append(tuple((0,) * ncols for _ in range(nrows)))
    return out


@pytest.mark.parametrize("rational", [False, True])
def test_kernels_match_the_reference(rational):
    rng = random.Random(int(rational))
    matrices = _shaped_matrices(rng, rational)
    for a in matrices:
        reduced, pivots = ratmat.rref(a)
        assert (reduced, pivots) == fraction_rref(a), a
        assert int_where_integral(reduced)
        b = rng.choice([m for m in matrices if len(m) == len(a[0])])
        assert ratmat.mat_mul(a, b) == dot_mat_mul(a, b), (a, b)
        for row in a:
            assert ratmat.vec_mat(row, b) == dot_vec_mat(row, b)
        if len(a) == len(a[0]) and len(reduced) == len(a):
            inv = ratmat.inverse(a)
            assert int_where_integral(inv)
            assert dot_mat_mul(a, inv) == ratmat.identity(len(a))
    # the empty matrix and products through an empty inner dimension
    assert ratmat.rref(()) == fraction_rref(()) == ((), ())
    assert ratmat.rref(((), ())) == fraction_rref(((), ())) == ((), ())
    assert ratmat.mat_mul((), ()) == dot_mat_mul((), ()) == ()
    assert ratmat.mat_mul(((), ()), ()) == dot_mat_mul(((), ()), ()) == ((), ())


def test_poly_gcd_common_factor():
    # gcd((t-1)(t+1), (t-1)^2) = t - 1, returned monic
    g = ratmat.poly_gcd([1, 0, -1], [1, -2, 1])
    assert g == [F(1), F(-1)]


def test_poly_gcd_coprime():
    g = ratmat.poly_gcd([1, 0, -1], [1, 0, -2])
    assert g == [F(1)]


def test_squarefree_part_removes_multiplicity():
    # (t-1)^2 (t-2) = t^3 - 4t^2 + 5t - 2  ->  (t-1)(t-2) = t^2 - 3t + 2
    assert ratmat.squarefree_part([1, -4, 5, -2]) == [1, -3, 2]


def test_squarefree_part_of_squarefree_is_primitive_copy():
    assert ratmat.squarefree_part([2, -2]) == [1, -1]


def test_strip_zero_roots():
    assert ratmat.strip_zero_roots([1, -5, -6, 1]) == (0, [1, -5, -6, 1])
    assert ratmat.strip_zero_roots([1, -1, 0, 0]) == (2, [1, -1])
    assert ratmat.strip_zero_roots([1]) == (0, [1])
