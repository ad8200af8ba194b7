"""Integer-polynomial spectra: realizability conditions and matrix search.

Three necessary conditions for a monic integer polynomial to be the nonzero
characteristic spectrum of a primitive nonnegative integer matrix: a strictly
dominant positive real root, nonnegative Mobius-inverted power-trace sums
(net traces), and -- for the inverse-spectral-radius construction -- a
min-modulus root whose reciprocal beats the dominant root.  The trace sums
are exact integers (Newton's identities); the two root conditions are numeric
with an Indeterminate band of width ``tol``.

`search_primitive_realization` looks for an actual primitive matrix whose
characteristic polynomial is t^m * p(t): exhaustive for sizes up to 3
(diagonal compositions of the trace, off-diagonal products pinned by the
2x2-minor sum, determinant filter, then an exact char-poly check), companion
matrices with zero-padding beyond that.  `verify_eb_failure` checks a found
matrix really does have inverse spectral radius above its Perron root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    NonMonic,
    NotPrimitive,
    PreconditionFailed,
    SftlabError,
    ZeroConstantTerm,
)
from .ratmat import char_poly, poly_derivative, poly_gcd
from .shifts import (
    DEFAULT_TOL,
    build_edge_shift,
    dimension_data,
    distinct_roots,
    perron_data,
)

DEFAULT_NET_TRACE_N = 12


@dataclass(frozen=True)
class IntPolynomial:
    """Monic polynomial with integer coefficients, descending degree order."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        if not cs:
            raise NonMonic("empty coefficient list")
        if any(c != orig for c, orig in zip(cs, self.coeffs)):
            raise NonMonic("coefficients must be integers")
        if cs[0] != 1:
            raise NonMonic(f"leading coefficient is {cs[0]}, expected 1")
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def constant(self):
        return self.coeffs[-1]

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = self.degree - i
            mag = abs(c)
            term = (
                ("" if (mag == 1 and power > 0) else str(mag))
                + ("t" if power > 0 else "")
                + (f"^{power}" if power > 1 else "")
            )
            parts.append(("- " if c < 0 else "+ ") + term if parts else ("-" if c < 0 else "") + term)
        return " ".join(parts)


@dataclass(frozen=True)
class SpectralConditionsReport:
    """Outcome of the three realizability checks on one polynomial.

    ``net_traces`` and ``traces`` are exact integers; ``indeterminate`` lists
    the numeric conditions that sit within ``tol`` of their threshold (such a
    condition is reported neither passed nor failed).
    """

    polynomial: tuple
    n_checked: int
    tol: float
    perron_ok: bool
    lambda_dominant: float
    dominance_margin: float
    net_trace_ok: bool
    net_traces: tuple
    traces: tuple
    reciprocal_ok: bool
    min_modulus: float
    reciprocal_margin: float
    indeterminate: tuple

    @property
    def all_ok(self):
        return (
            self.perron_ok
            and self.net_trace_ok
            and self.reciprocal_ok
            and not self.indeterminate
        )


def moebius(n):
    """Mobius function: 0 on a square factor, else (-1)^#prime factors."""
    if n < 1:
        raise ValueError(f"moebius needs n >= 1, got {n}")
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def power_traces(p, n_max):
    """tr_k = sum of k-th powers of the roots, k = 1..n_max, exact integers.

    Newton's identities on the signed elementary symmetric functions; never
    touches a floating-point root.
    """
    d = p.degree
    elem = [0] * (d + 1)
    for i in range(1, d + 1):
        elem[i] = (-1) ** i * p.coeffs[i]
    traces = []
    for k in range(1, n_max + 1):
        acc = 0
        for i in range(1, min(k - 1, d) + 1):
            acc += (-1) ** (i - 1) * elem[i] * traces[k - i - 1]
        if k <= d:
            acc += (-1) ** (k - 1) * k * elem[k]
        traces.append(acc)
    return traces


def net_trace(p, n):
    """Mobius-inverted trace sum at n: the n-periodic orbit count times n
    for any matrix realizing p, hence necessarily >= 0."""
    return _moebius_sum(power_traces(p, n), n)


def _moebius_sum(traces, n):
    return sum(moebius(n // k) * traces[k - 1] for k in range(1, n + 1) if n % k == 0)


def _margin_status(margin, tol):
    # (passes, sits in the Indeterminate band)
    if margin > tol:
        return True, False
    return False, margin > -tol


def check_conditions(p, n_max=DEFAULT_NET_TRACE_N, tol=DEFAULT_TOL):
    """Run the three realizability conditions; trace sums exact, roots numeric."""
    if p.degree < 1:
        raise ValueError("conditions need a polynomial of degree >= 1")
    if p.constant == 0:
        raise ZeroConstantTerm("zero root: reciprocal condition undefined")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    traces = power_traces(p, n_max)
    nets = tuple(_moebius_sum(traces, n) for n in range(1, n_max + 1))
    net_ok = all(v >= 0 for v in nets)

    roots = distinct_roots(p.coeffs)
    top = max(roots, key=lambda z: (abs(z), z.real))
    others = sorted(roots, key=lambda z: (abs(z), z.real))[:-1]
    scale = max(1.0, abs(top))

    real_ok = abs(top.imag) <= tol * scale
    if others:
        dominance = abs(top) - max(abs(z) for z in others)
    else:
        dominance = top.real
    perron_ok, perron_indet = _margin_status(dominance, tol)
    if not (real_ok and top.real > tol):
        perron_ok, perron_indet = False, False
    # a repeated dominant root never counts as strictly dominant, however the
    # square-free reduction separated it from its copies
    gcd = poly_gcd(list(p.coeffs), poly_derivative(list(p.coeffs)))
    if len(gcd) > 1:
        value = abs(_eval_float(gcd, top))
        if value <= 1e-6 * scale ** (len(gcd) - 1):
            perron_ok, perron_indet = False, False

    low = min(roots, key=abs)
    min_modulus = abs(low)
    reciprocal_margin = 1.0 / min_modulus - abs(top)
    reciprocal_ok, reciprocal_indet = _margin_status(reciprocal_margin, tol)

    indeterminate = tuple(
        name
        for name, flag in (("perron", perron_indet), ("reciprocal", reciprocal_indet))
        if flag
    )
    return SpectralConditionsReport(
        polynomial=p.coeffs,
        n_checked=n_max,
        tol=tol,
        perron_ok=perron_ok,
        lambda_dominant=float(top.real if real_ok else abs(top)),
        dominance_margin=float(dominance),
        net_trace_ok=net_ok,
        net_traces=nets,
        traces=tuple(traces),
        reciprocal_ok=reciprocal_ok,
        min_modulus=float(min_modulus),
        reciprocal_margin=float(reciprocal_margin),
        indeterminate=indeterminate,
    )


def _eval_float(coeffs, x):
    acc = complex(0)
    for c in coeffs:
        acc = acc * x + float(c)
    return acc


# -- realization search -------------------------------------------------------


def _admit(rows, target):
    """Exact char-poly match plus primitivity; the one and only oracle."""
    if char_poly(rows) != list(target):
        return False
    try:
        shift = build_edge_shift([list(r) for r in rows])
    except SftlabError:
        return False
    return shift.primitive


def _compositions(total, parts, cap):
    """All nonnegative integer tuples with the given sum, each entry <= cap,
    in descending lexicographic order."""
    if total < 0 or total > parts * cap:
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(min(total, cap), -1, -1):
        for rest in _compositions(total - head, parts - 1, cap):
            yield (head,) + rest


def _factor_pairs(product, cap):
    """Ordered (a, b) with a*b = product and both <= cap; for 0 the free
    cofactor runs over 0..cap on either side."""
    if product == 0:
        yield (0, 0)
        for k in range(1, cap + 1):
            yield (0, k)
            yield (k, 0)
        return
    for a in range(1, cap + 1):
        if product % a == 0 and product // a <= cap:
            yield (a, product // a)


def _search_size_2(target, cap, spend):
    trace, c2 = -target[1], target[2]
    for d1, d2 in _compositions(trace, 2, cap):
        p12 = d1 * d2 - c2
        if p12 < 0 or p12 > cap * cap:
            continue
        for a12, a21 in _factor_pairs(p12, cap):
            if not spend(1):
                return None
            rows = ((d1, a12), (a21, d2))
            if _admit(rows, target):
                return [list(r) for r in rows]
    return None


def _search_size_3(target, cap, spend):
    trace, c2, c3 = -target[1], target[2], target[3]
    for d1, d2, d3 in _compositions(trace, 3, cap):
        pair_sum = d1 * d2 + d1 * d3 + d2 * d3 - c2
        if pair_sum < 0:
            continue
        for p12, p13, p23 in _compositions(pair_sum, 3, cap * cap):
            if not spend(1):
                return None
            # det(A) = d1 d2 d3 - d1 p23 - d2 p13 - d3 p12 + (cyclic products)
            needed = -c3 - (d1 * d2 * d3 - d1 * p23 - d2 * p13 - d3 * p12)
            if needed < 0:
                continue
            for (a12, a21), (a13, a31), (a23, a32) in itertools.product(
                _factor_pairs(p12, cap),
                _factor_pairs(p13, cap),
                _factor_pairs(p23, cap),
            ):
                if not spend(1):
                    return None
                if a12 * a23 * a31 + a13 * a21 * a32 != needed:
                    continue
                rows = ((d1, a12, a13), (a21, d2, a23), (a31, a32, d3))
                if _admit(rows, target):
                    return [list(r) for r in rows]
    return None


def _companion(target, cap, spend):
    size = len(target) - 1
    last = [-c for c in reversed(target[1:])]
    if any(v < 0 or v > cap for v in last):
        return None
    rows = [[0] * size for _ in range(size)]
    for i in range(size - 1):
        rows[i][i + 1] = 1
    rows[-1] = last
    if spend(1) and _admit(tuple(tuple(r) for r in rows), target):
        return rows
    return None


def search_primitive_realization(p, max_size=6, max_entry=8, budget=10_000_000):
    """Smallest-size primitive nonnegative matrix with char poly t^m * p(t).

    Deterministic candidate order: for each size, exhaustive structured
    enumeration (complete for the given entry cap) at sizes 2 and 3,
    companion matrices elsewhere; at size 1 the companion matrix is the only
    candidate, so the search is complete through size 3.  Returns None when
    the search space or the budget is exhausted -- absence of a small
    realization is a legitimate outcome.
    """
    report = check_conditions(p)
    if not (report.perron_ok and report.net_trace_ok):
        raise PreconditionFailed(
            "realization search needs the dominant-root and net-trace "
            f"conditions verified first; report: perron_ok={report.perron_ok}, "
            f"net_trace_ok={report.net_trace_ok}, indeterminate={report.indeterminate}"
        )
    budget = int(budget)
    remaining = [budget]

    def spend(cost):
        remaining[0] -= cost
        return remaining[0] >= 0

    structured = {2: _search_size_2, 3: _search_size_3}
    for size in range(max(p.degree, 1), max_size + 1):
        target = list(p.coeffs) + [0] * (size - p.degree)
        searcher = structured.get(size, _companion)
        found = searcher(target, max_entry, spend)
        if found is not None:
            return found
        if remaining[0] < 0:
            return None
    return None


def verify_eb_failure(matrix, tol=DEFAULT_TOL):
    """Does the matrix have inverse spectral radius above its Perron root?

    Confirmed means the inverse-shift automorphism scales the dimension data
    faster than the entropy allows: log rho_minus > log lambda + tol.  Equality
    within tol is NotStrict (the golden mean sits exactly there); a matrix
    whose rho_minus is smaller simply fails to witness anything (Inconclusive).
    """
    shift = build_edge_shift(matrix)
    if not shift.primitive:
        raise NotPrimitive("the witness construction needs a primitive matrix")
    perron = perron_data(shift)
    dim = dimension_data(shift)
    lhs = math.log(dim.rho_minus)
    rhs = perron.entropy
    gap = lhs - rhs
    if gap > tol:
        status = "Confirmed"
    elif gap >= -tol:
        status = "NotStrict"
    else:
        status = "Inconclusive"
    return {
        "name": "eb-failure",
        "status": status,
        "lhs": lhs,
        "rhs": rhs,
        "gap": gap,
        "tol": tol,
        "lambda_perron": perron.lambda_,
        "rho_minus": dim.rho_minus,
    }
