"""Small exact linear-algebra kit over the integers and the rationals.

Entries are Python ints or fractions.Fraction and are used as given: integer
input stays integer, and a Fraction appears only where a division makes one
(an inexact step of rref's final division by its pivot minor, char_poly on
rational input, an inexact poly_divmod step, poly_gcd's monic output);
squarefree_part is over Z.
Matrices are tuples of tuples, row major. Vectors are tuples. Row-vector
convention throughout: ``vec_mat(x, A)`` is x*A, the combination of A's rows
weighted by x's nonzero entries, and ``mat_mul(A, B)`` is that combination
of B's rows for each row of A, so a product costs one row operation per
nonzero entry of its left factor (a copy for a first weight of int 1).
"""

import math
from fractions import Fraction

from .errors import InternalInvariantViolation, NonMonic


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a, b):
    return tuple(vec_mat(row, b) for row in a)


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
    terms = ((c, row) for c, row in zip(x, a) if c)
    c, row = next(terms, (0, (0,) * (len(a[0]) if a else 0)))
    out = list(row) if c == 1 and type(c) is int else [c * v for v in row]
    for c, row in terms:
        out = [s + c * v for s, v in zip(out, row)]
    return tuple(out)


def rref(rows):
    """Reduced row echelon form. Returns (nonzero rows, pivot columns);
    integral entries are ints, the others Fractions.

    Fraction-free Gauss-Jordan on the integer matrix D*rows, D the common
    denominator (Bareiss, "Sylvester's identity and multistep
    integer-preserving Gaussian elimination", Math. Comp. 22, 1968): each
    pivot step replaces every other row by (p*row - f*pivot row) / det, p the
    new pivot, f the row's entry in its column and det the previous pivot.
    By Sylvester's identity the entries are minors of D*rows, so each
    division is exact, and after a step every pivot entry equals p.  The
    rows are divided by the last pivot once at the end.
    """
    _, m = clear_denominators(rows)
    m = [list(row) for row in m]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    det = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and (f or p != det):
                m[i] = [(p * v - f * w) // det for v, w in zip(row, top)]
        det = p
        pivots.append(c)
        r += 1
    rows = tuple(tuple(Fraction(v, det) if v % det else v // det for v in row) for row in m[:r])
    return rows, tuple(pivots)


def inverse(a):
    n = len(a)
    aug = [list(row) + list(unit) for row, unit in zip(a, identity(n))]
    reduced, pivots = rref(aug)
    if len(reduced) < n or pivots != tuple(range(n)):
        raise InternalInvariantViolation("matrix not invertible over Q")
    return tuple(tuple(row[n:]) for row in reduced)


def clear_denominators(a):
    """(D, D*a): the least common denominator D of the matrix's entries
    (ints or Fractions) and the integer matrix D*a."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return den, tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in a)


def char_poly(a):
    """Characteristic polynomial det(tI - A), coefficients descending.

    Faddeev-LeVerrier on the integer matrix B = D*A, D the common
    denominator of A's entries: B's coefficients are integers (its divisions
    by i are exact), and coefficient i of A is coefficient i of B over D^i.
    Each coefficient is a Python int when it is integral, else a Fraction.
    M_i = B(M_{i-1} + c_{i-1} I) stays lists: c_{i-1} goes on the diagonal in
    place, and each row combines M's rows at the nonzero entries of B's row.
    """
    n = len(a)
    den, b = clear_denominators(a)
    # the nonzero entries of each row of B; a zero row takes row 0 times 0
    terms = [[(j, x) for j, x in enumerate(row) if x] or [(0, 0)] for row in b]
    coeffs = [1]
    m = [list(row) for row in identity(n)]
    for i in range(1, n + 1):
        nxt = []
        for (j, x), *rest in terms:
            out = m[j][:] if x == 1 else [x * v for v in m[j]]
            for j, x in rest:
                out = [s + x * v for s, v in zip(out, m[j])]
            nxt.append(out)
        m = nxt
        c = -sum(m[j][j] for j in range(n)) // i
        coeffs.append(c)
        for j in range(n):
            m[j][j] += c
    if den == 1:
        return coeffs
    scaled = [Fraction(c, den**i) for i, c in enumerate(coeffs)]
    return [c.numerator if c.denominator == 1 else c for c in scaled]


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
    """Long division: (quotient, remainder) with num = quotient*den +
    remainder and deg remainder < deg den.  Integer coefficients stay ints
    while each step divides exactly."""
    num = _poly_normalize(list(num))
    den = _poly_normalize(list(den))
    if den == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    steps = len(num) - len(den) + 1
    if steps <= 0:
        return [0], num
    rem = list(num)
    quot = []
    for i in range(steps):
        q, r = divmod(rem[i], den[0])
        factor = q if r == 0 else Fraction(rem[i]) / den[0]
        quot.append(factor)
        for j in range(1, len(den)):
            rem[i + j] -= factor * den[j]
    return quot, _poly_normalize(rem[steps:]) or [0]


def _primitive(coeffs):
    """The primitive integer multiple of a polynomial with a positive leading
    coefficient, [0] for zero."""
    _, (ints,) = clear_denominators((_poly_normalize(list(coeffs)),))
    content = (math.gcd(*ints) or 1) * (-1 if ints[0] < 0 else 1)
    return [v // content for v in ints]


def _primitive_gcd(a, b):
    """Primitive gcd by the primitive remainder sequence over Z (Collins, J.
    ACM 14, 1967; Brown, J. ACM 18, 1971): Euclid on primitive parts,
    dividing lc(b)^(deg a - deg b + 1) a by b, where each step is exact."""
    a, b = _primitive(a), _primitive(b)
    while b != [0]:
        _, rem = poly_divmod([x * b[0] ** max(len(a) - len(b) + 1, 0) for x in a], b)
        a, b = b, _primitive(rem)
    return a


def poly_gcd(p, q):
    """Monic gcd over Q, from the primitive gcd over Z; [0] for p = q = 0."""
    g = _primitive_gcd(p, q)
    return [Fraction(c, g[0] or 1) for c in g]


def squarefree_part(coeffs):
    """Exact square-free part of a polynomial, integer coefficients out:
    f / gcd(f, f') over Z, f the primitive multiple of ``coeffs``.

    Removes repeated roots so downstream numeric root finding stays
    well conditioned near tolerance checks.
    """
    if coeffs[0] == 0:
        raise NonMonic("leading coefficient must be nonzero")
    f = _primitive(coeffs)
    reduced, rem = poly_divmod(f, _primitive_gcd(f, poly_derivative(f)))  # exact: Gauss's lemma
    if rem != [0]:
        raise InternalInvariantViolation("square-free division left a remainder")
    return reduced


def _totient(n):
    result, p = n, 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    return result - result // n if n > 1 else result


def cyclotomic_indices(coeffs):
    """The n, with multiplicity and ascending, of the cyclotomic polynomials
    Phi_n whose product is the monic polynomial ``coeffs``; None when it is
    not such a product.

    A product of Phi_n has integer coefficients, and it is palindromic up to
    sign, because Phi_1 = t - 1 is antipalindromic and every other Phi_n is
    palindromic.  Past those two tests Phi_n is divided out for each n with
    phi(n) <= deg, which bounds n by 2 deg^2 since phi(n) >= sqrt(n/2); Phi_n
    is built per call as t^n - 1 divided by Phi_m for the proper divisors m
    of n, which all have phi(m) <= phi(n) and so come first.
    """
    if any(Fraction(c).denominator != 1 for c in coeffs):
        return None
    p = [int(c) for c in coeffs]
    if p[::-1] != p and p[::-1] != [-c for c in p]:
        return None
    degree = len(p) - 1
    found = []
    phis = {}
    for n in range(1, 2 * degree**2 + 1):
        if len(p) == 1:
            break
        if _totient(n) > degree:
            continue
        phi_n = [1] + [0] * (n - 1) + [-1]
        for m, phi_m in phis.items():
            if n % m == 0:
                phi_n, _ = poly_divmod(phi_n, phi_m)
        phis[n] = phi_n
        while len(p) >= len(phi_n):
            quot, rem = poly_divmod(p, phi_n)
            if rem != [0]:
                break
            p = quot
            found.append(n)
    return found if len(p) == 1 else None


def strip_zero_roots(coeffs):
    """Factor out t^m exactly; returns (m, remaining coefficients)."""
    c = list(coeffs)
    m = 0
    while len(c) > 1 and c[-1] == 0:
        c.pop()
        m += 1
    return m, c
