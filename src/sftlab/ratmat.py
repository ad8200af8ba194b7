"""Small exact linear-algebra kit over the integers and the rationals.

Entries are Python ints or fractions.Fraction and are used as given: integer
input stays integer, and a Fraction appears only where a division makes one
(rref's pivot scaling, char_poly's division by i when it is not exact, the
polynomial helpers). Matrices are tuples of tuples, row major. Vectors are
tuples. Row-vector convention throughout: ``vec_mat(x, A)`` is x*A.
"""

import math
from fractions import Fraction

from .errors import InternalInvariantViolation, NonMonic


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def mat_pow(a, n):
    if n < 0:
        raise ValueError("negative power; invert first")
    result = identity(len(a))
    base = a
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def vec_mat(x, a):
    return tuple(
        sum(x[i] * a[i][j] for i in range(len(x))) for j in range(len(a[0]))
    )


def rref(rows):
    """Reduced row echelon form. Returns (nonzero rows, pivot columns)."""
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


def inverse(a):
    n = len(a)
    aug = [list(row) + list(unit) for row, unit in zip(a, identity(n))]
    reduced, pivots = rref(aug)
    if len(reduced) < n or pivots != tuple(range(n)):
        raise InternalInvariantViolation("matrix not invertible over Q")
    return tuple(tuple(row[n:]) for row in reduced)


def char_poly(a):
    """Characteristic polynomial det(tI - A), coefficients descending.

    Faddeev-LeVerrier; entries may be Fractions, result is exact. Each
    coefficient is a Python int when it is integral, so integer input gives
    integer coefficients (the division by i is exact there).
    """
    n = len(a)
    coeffs = [1]
    m = identity(n)
    for i in range(1, n + 1):
        m = mat_mul(a, m)
        c = Fraction(-sum(m[j][j] for j in range(n)), i)
        c = c.numerator if c.denominator == 1 else c
        coeffs.append(c)
        m = tuple(
            tuple(m[r][s] + (c if r == s else 0) for s in range(n)) for r in range(n)
        )
    return coeffs


# -- polynomial helpers (coefficients descending, index 0 = leading) --


def poly_derivative(coeffs):
    n = len(coeffs) - 1
    if n <= 0:
        return [0]
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])]


def _poly_normalize(coeffs):
    i = 0
    while i < len(coeffs) - 1 and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def poly_divmod(num, den):
    num = [Fraction(c) for c in _poly_normalize(list(num))]
    den = [Fraction(c) for c in _poly_normalize(list(den))]
    if den == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    quot = []
    while len(num) >= len(den) and num != [Fraction(0)]:
        factor = num[0] / den[0]
        quot.append(factor)
        num = [a - factor * b for a, b in zip(num, den + [Fraction(0)] * len(num))][1:]
        num = num if num else [Fraction(0)]
        num = _poly_normalize(num)
        if len(num) < len(den) and quot:
            break
    if not quot:
        quot = [Fraction(0)]
    return quot, num


def poly_gcd(p, q):
    a = [Fraction(c) for c in _poly_normalize(list(p))]
    b = [Fraction(c) for c in _poly_normalize(list(q))]
    while b != [Fraction(0)]:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a[0] != 0:
        a = [c / a[0] for c in a]  # monic
    return a


def squarefree_part(coeffs):
    """Exact square-free part of a polynomial, integer coefficients out.

    Removes repeated roots so downstream numeric root finding stays
    well conditioned near tolerance checks.
    """
    if coeffs[0] == 0:
        raise NonMonic("leading coefficient must be nonzero")
    g = poly_gcd(coeffs, poly_derivative(coeffs))
    if len(g) == 1:
        reduced = [Fraction(c) for c in coeffs]
    else:
        reduced, rem = poly_divmod(coeffs, g)
        if _poly_normalize(rem) != [Fraction(0)]:
            raise InternalInvariantViolation("square-free division left a remainder")
    # clear denominators, primitive integer output with positive leading coeff
    den = math.lcm(*(c.denominator for c in reduced))
    ints = [int(c * den) for c in reduced]
    g_all = math.gcd(*ints) if ints[0] > 0 else -math.gcd(*ints)
    return [v // g_all for v in ints]


def strip_zero_roots(coeffs):
    """Factor out t^m exactly; returns (m, remaining coefficients)."""
    c = list(coeffs)
    m = 0
    while len(c) > 1 and c[-1] == 0:
        c.pop()
        m += 1
    return m, c
