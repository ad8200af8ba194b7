"""Rays, beams, and the exact action of an automorphism on the dimension data.

A ray is a cylinder set fixing all coordinates up to some level; we represent
its defining left tail as an eventually periodic edge sequence (cycle word plus
finite transient, with the last transient edge sitting at the level).  Beams
are finite unions of distinct rays at a common level.  The theta map sends a
beam to an exact rational vector inside the eventual range, and pushing
canonical zero-rays through a certified automorphism yields the automorphism's
matrix on that space, solved from integer representatives of the classes in
the direct limit of Z^k under A.  The verifiers at the bottom evaluate the
entropy and spectral-radius inequalities with certified interval right-hand
sides.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import ratmat
from .coding_range import lyapunov_bounds, w_values
from .errors import (
    InconsistentSystem,
    InternalInvariantViolation,
    NonPositiveRatio,
    PreconditionFailed,
    ReducibleInput,
    ShiftMismatch,
)
from .records import CheckRecord
from .shifts import DEFAULT_TOL, dimension_data, distinct_roots, perron_data


def _primitive_root(cycle):
    p = len(cycle)
    for d in range(1, p + 1):
        if p % d == 0 and cycle == cycle[:d] * (p // d):
            return cycle[:d]
    raise AssertionError("unreachable")


def _canonical_tail(cycle, transient):
    """Unique (cycle, transient) normal form of an eventually periodic tail.

    The cycle is reduced to its primitive root, then transient edges that
    merely continue the periodic pattern are absorbed by rotating the cycle.
    Two representations describe the same tail iff their normal forms agree.
    """
    r = _primitive_root(tuple(cycle))
    t = tuple(transient)
    while t and t[0] == r[0]:
        r = r[1:] + r[:1]
        t = t[1:]
    return r, t


@dataclass(frozen=True, eq=False)
class Ray:
    """Cylinder set fixing coordinates (-inf, level]: the tail repeats
    ``cycle`` leftward forever and finishes with ``transient``, whose last
    edge sits at coordinate ``level``."""

    shift: object
    level: int
    cycle: tuple
    transient: tuple

    def __post_init__(self):
        cycle = tuple(self.cycle)
        transient = tuple(self.transient)
        object.__setattr__(self, "cycle", cycle)
        object.__setattr__(self, "transient", transient)
        if not cycle:
            raise PreconditionFailed("ray cycle must be nonempty")
        # doubling the cycle checks the wrap-around adjacency as well
        self.shift.check_admissible(cycle + cycle + transient)
        object.__setattr__(self, "_key", _canonical_tail(cycle, transient))

    @property
    def end_state(self):
        last = self.transient[-1] if self.transient else self.cycle[-1]
        return self.shift.edges[last][1]

    def tail_edge(self, i):
        """Edge at coordinate i <= level of the defining tail."""
        if i > self.level:
            raise PreconditionFailed(
                f"coordinate {i} beyond ray level {self.level}"
            )
        back = self.level - i
        q = len(self.transient)
        if back < q:
            return self.transient[q - 1 - back]
        back -= q
        p = len(self.cycle)
        return self.cycle[p - 1 - (back % p)]

    def word(self, lo, hi):
        return tuple(self.tail_edge(i) for i in range(lo, hi + 1))

    def __eq__(self, other):
        if not isinstance(other, Ray):
            return NotImplemented
        return (
            self.shift == other.shift
            and self.level == other.level
            and self._key == other._key
        )

    def __hash__(self):
        return hash((self.shift, self.level, self._key))

    def __repr__(self):
        return (
            f"Ray(level={self.level}, cycle={self.cycle}, "
            f"transient={self.transient})"
        )


@dataclass(frozen=True)
class Beam:
    """Disjoint union of distinct rays at a common level."""

    level: int
    rays: tuple

    def __post_init__(self):
        rays = tuple(self.rays)
        object.__setattr__(self, "rays", rays)
        if not rays:
            raise PreconditionFailed("beam must contain at least one ray")
        shift = rays[0].shift
        for r in rays:
            if r.level != self.level:
                raise PreconditionFailed("beam rays must share the beam level")
            if r.shift != shift:
                raise ShiftMismatch("beam rays live on different shifts")
        if len({r._key for r in rays}) != len(rays):
            raise PreconditionFailed("beam rays must be pairwise distinct")

    @property
    def shift(self):
        return self.rays[0].shift

    @property
    def count_vector(self):
        """Number of rays ending at each state, as a row vector."""
        v = [0] * self.shift.k
        for r in self.rays:
            v[r.end_state] += 1
        return tuple(v)


def canonical_zero_ray(shift, state, variant=0):
    """Deterministic 0-ray ending at ``state``.

    Candidate cycles through the state are enumerated by (length, lex) order
    of their edge words and deduplicated by tail equality; ``variant`` picks
    the variant-th distinct tail (0 = canonical, 1 = the alternative used by
    well-definedness tests).
    """
    found = []
    seen = set()
    limit = max(2 * shift.k, 4) + variant
    for length in range(1, limit + 1):
        for w in shift.words(length, start_state=state):
            if shift.edges[w[-1]][1] != state:
                continue
            ray = Ray(shift, 0, w, ())
            if ray._key in seen:
                continue
            seen.add(ray._key)
            found.append(ray)
            if len(found) > variant:
                return found[variant]
    raise InternalInvariantViolation(
        f"fewer than {variant + 1} distinct cycles through state {state}"
    )


def refine_ray(ray, to_level):
    """Present a ray as a beam at a deeper level by enumerating all
    admissible extensions of its tail."""
    if to_level < ray.level:
        raise PreconditionFailed("can only refine to a deeper level")
    exts = ray.shift.words(to_level - ray.level, start_state=ray.end_state)
    rays = tuple(
        Ray(ray.shift, to_level, ray.cycle, ray.transient + ext)
        for ext in exts
    )
    return Beam(level=to_level, rays=rays)


def theta(beam):
    """Exact rational image of the beam's class in the eventual range:
    the count vector at level m is pushed through A^k and delta^-(k+m)."""
    dim = dimension_data(beam.shift)
    w = ratmat.vec_mat(beam.count_vector, dim.eventual_power)
    return dim.apply_delta_power(w, -(dim.k + beam.level))


def unstable_measure(beam):
    """Measure of the beam: sum over rays of lambda^-level weighted by the
    right Perron eigenvector at the end state."""
    perron = perron_data(beam.shift)
    lam = perron.lambda_
    v = beam.count_vector
    total = sum(v[i] * perron.v_right[i] for i in range(len(v)))
    return lam ** (-beam.level) * total


def apply_automorphism_to_ray(auto, n, ray):
    """Image of a 0-ray under the n-th power of a certified automorphism,
    as a beam at level -W^-(n, phi^-1).

    Output coordinates far enough left inherit the input tail's period; the
    finitely many undetermined coordinates are enumerated over all admissible
    right extensions of the tail, and distinct output words become the rays.
    """
    shift = auto.shift
    if ray.shift != shift:
        raise ShiftMismatch("ray does not live on the automorphism's shift")
    if ray.level != 0:
        raise PreconditionFailed("image beams are computed from 0-rays")
    if n == 0:
        return Beam(level=0, rays=(ray,))
    code = auto.power(n)
    mem, ant = code.memory, code.anticipation
    wv = w_values(auto, n, forward=code)
    level_out = -wv.minus_inv
    w_fwd = wv.minus
    p = len(ray.cycle)
    q = len(ray.transient)
    # outputs at j <= -ant - q read inputs from the pure-cycle zone and are
    # p-periodic; keep the cut strictly left of the variable region too
    cut = min(-ant - q, w_fwd - 1)
    # input coordinates lo..hi: the tail up to 0, then the extension, whose
    # edges come ranked_words chunk by chunk (one empty extension if none)
    lo = cut - p + 1 - mem
    hi = level_out + ant
    ext_len = max(0, hi)
    shift.ensure_budget(ext_len)
    if ext_len:
        chunks = (cols for _, cols in shift.ranked_words(ext_len, start_state=ray.end_state))
    else:
        chunks = [()]
    fixed_len = p + (w_fwd - 1 - cut)
    fixed_part = None
    variable_words = set()
    for cols in chunks:
        rows = len(cols[0]) if cols else 1
        tail = tuple(
            np.full(rows, ray.tail_edge(i), dtype=np.intp) for i in range(lo, min(hi, 0) + 1)
        )
        seg = np.stack(code.image(tail + cols), axis=1)
        if fixed_part is None:
            fixed_part = seg[0, :fixed_len]
        if np.any(seg[:, :fixed_len] != fixed_part):
            raise InternalInvariantViolation(
                "output coordinates left of W^- varied with the extension"
            )
        variable_words.update(map(tuple, seg[:, fixed_len:].tolist()))
    out_cycle = tuple(fixed_part[:p].tolist())
    base = tuple(fixed_part[p:].tolist())
    rays = [
        Ray(shift, level_out, out_cycle, base + word)
        for word in variable_words
    ]
    rays.sort(key=lambda r: r._key)
    return Beam(level=level_out, rays=tuple(rays))


@dataclass(frozen=True)
class DimensionAction:
    """Exact matrix of an automorphism on the eventual-range basis (rows act
    by right multiplication), with its numeric invariants."""

    S_phi: tuple
    lambda_phi: float
    rho: float
    inert: bool
    order_if_finite: object


def lambda_phi_of(s_phi, dim):
    """Rayleigh ratio of the action matrix ``s_phi`` on the numeric Perron
    direction of the restricted multiplication map; positive by the theory.
    The direction must be an eigenvector to within 1e-8 of its scale."""
    c = dim.perron_left
    d = len(c)
    s = [[float(x) for x in row] for row in s_phi]
    cs = [sum(c[i] * s[i][j] for i in range(d)) for j in range(d)]
    denom = sum(x * x for x in c)
    lam = sum(cs[j] * c[j] for j in range(d)) / denom
    resid = sum(abs(cs[j] - lam * c[j]) for j in range(d))
    scale = max(1.0, abs(lam)) * sum(abs(x) for x in c)
    if resid > 1e-8 * scale:
        raise InternalInvariantViolation(
            "Perron direction is not an eigenvector of the action"
        )
    if lam <= 0:
        raise NonPositiveRatio(f"measure multiplier {lam} must be positive")
    return lam


def _finite_order(s_phi, cp):
    """Order of ``s_phi`` (characteristic polynomial ``cp``) when it is
    finite, else None.

    A matrix of finite order is diagonalizable with roots of unity as
    eigenvalues, so ``cp`` is a product of cyclotomic Phi_n; conversely, if
    it is one and S^N = I for N = lcm(n), then S has finite order.  The
    order is then N itself: S has a primitive n-th root of unity as an
    eigenvalue for every factor Phi_n, so S^m = I forces n | m for each n.
    """
    indices = ratmat.cyclotomic_indices(cp)
    if indices is None:
        return None
    n = math.lcm(*indices)
    den, ints = ratmat.clear_denominators(s_phi)
    scalar = tuple(tuple(den**n * x for x in row) for row in ratmat.identity(len(s_phi)))
    return n if ratmat.mat_pow(ints, n) == scalar else None


def dimension_matrix(auto):
    """Solve for the exact matrix S of the automorphism on the eventual range.

    For each state the canonical 0-ray's class c and its image class y give
    one linear condition c S = y; the stacked conditions determine S, and
    the redundant conditions double as a well-definedness check.  The
    classes live in the direct limit of Z^k under A: a beam with count
    vector v at level m has class v A^k Delta^-(k+m).  S commutes with
    Delta, so each condition is multiplied by Delta^(k+M), where M >= 0 is
    at least every image level; it becomes the integer condition
    coords(v A^(k+M)) S = coords(v' A^(k+M-m)), whose solution is S itself
    once S commutes with Delta, and whose consistency is the consistency of
    the original conditions.
    """
    shift = auto.shift
    if not shift.irreducible:
        raise ReducibleInput("dimension action needs an irreducible shift")
    if not shift.positive_entropy:
        raise PreconditionFailed("dimension action needs positive entropy")
    dim = dimension_data(shift)
    k = shift.k
    d = dim.d
    beams = []
    images = []
    for state in range(k):
        ray = canonical_zero_ray(shift, state)
        beams.append(Beam(level=0, rays=(ray,)))
        images.append(apply_automorphism_to_ray(auto, 1, ray))
    lift = max(0, *(image.level for image in images))

    def lifted(beam):
        # coords of v A^(k+lift-m), an integer vector of the eventual range
        v = beam.count_vector
        for _ in range(lift - beam.level):
            v = ratmat.vec_mat(v, dim.matrix)
        return dim.coords(ratmat.vec_mat(v, dim.eventual_power))

    c_rows = [lifted(beam) for beam in beams]
    y_rows = [lifted(image) for image in images]
    # the pivot columns of the transposed rows are the first d independent
    # condition rows; solve from those, then check the rest for consistency
    _, chosen = ratmat.rref(tuple(zip(*c_rows)))
    if len(chosen) < d:
        raise InternalInvariantViolation(
            "zero-ray classes do not span the eventual range"
        )
    reduced, _ = ratmat.rref([c_rows[i] + y_rows[i] for i in chosen])
    s_phi = tuple(row[d:] for row in reduced)
    den, s_ints = ratmat.clear_denominators(s_phi)
    for i in range(k):
        if ratmat.vec_mat(c_rows[i], s_ints) != tuple(den * y for y in y_rows[i]):
            raise InconsistentSystem(
                f"image of state {i}'s ray class contradicts the solved matrix"
            )
    delta = dim.delta_restricted
    if ratmat.mat_mul(s_ints, delta) != ratmat.mat_mul(delta, s_ints):
        raise InternalInvariantViolation(
            "action does not commute with the multiplication map"
        )
    cp = ratmat.char_poly(s_phi)
    if cp[-1] == 0:
        raise InternalInvariantViolation("dimension action must be invertible")
    rho = max(abs(complex(z)) for z in distinct_roots(cp))
    lam = lambda_phi_of(s_phi, dim)
    return DimensionAction(
        S_phi=s_phi,
        lambda_phi=float(lam),
        rho=float(rho),
        inert=s_phi == ratmat.identity(d),
        order_if_finite=_finite_order(s_phi, cp),
    )


def verify_entropy_bound(entropy_estimate, action, tol=DEFAULT_TOL):
    """|log lambda_phi| against a certified lower bound on the automorphism's
    entropy; a lower bound can confirm but never falsify."""
    lhs = abs(math.log(action.lambda_phi))
    status = "Confirmed" if lhs <= entropy_estimate + tol else "Inconclusive"
    return CheckRecord("entropy-bound", status, lhs, float(entropy_estimate), tol)


def _abs_interval(interval):
    lo, hi = interval
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return Fraction(0), max(-lo, hi)


def _bound(name, lhs, rhs_lo, rhs_hi, tol):
    """lhs <= rhs for every rhs in the certified enclosure [rhs_lo, rhs_hi]:
    Confirmed at the low end, Consistent inside, Violated above."""
    if lhs <= rhs_lo + tol:
        status = "Confirmed"
    elif lhs <= rhs_hi + tol:
        status = "Consistent"
    else:
        status = "Violated"
    return CheckRecord(name, status, lhs, (rhs_lo, rhs_hi), tol)


def verify_main_bounds(auto, profile, action, tol=DEFAULT_TOL):
    """Spectral-radius inequalities with certified interval right-hand sides.

    The growth-direction inequality uses the left slopes of the automorphism
    and its inverse; its mirror uses the right slopes with the roles of the
    pair swapped, which is the form the coordinate-reversal argument proves
    (on the shift both become equalities, as do the one-sided variants).
    The one-sided inequalities apply only when their sign hypothesis is
    certain from the enclosure; the unit-circle conclusion applies when all
    four slope enclosures collapse to zero.

    h(sigma_A) and rho_minus are read from the shift's own Perron and
    dimension records.  Returns the overall record, whose lhs is the
    smallest margin rhs_lo - lhs over the applicable inequalities, and the
    five component records; a component whose hypothesis fails is
    Inconclusive, with no lhs or rhs and the failed hypothesis as detail.
    """
    bounds_f = lyapunov_bounds(auto, profile)
    bounds_i = lyapunov_bounds(auto.inverse_automorphism(), profile.inverse())
    am, ap = bounds_f.alpha_minus, bounds_f.alpha_plus
    ami, api = bounds_i.alpha_minus, bounds_i.alpha_plus
    h = perron_data(auto.shift).entropy
    log_rho_minus = math.log(dimension_data(auto.shift).rho_minus)
    growth = h + log_rho_minus  # log(lambda / smallest modulus) >= 0
    lhs = math.log(action.rho)
    abs_ami = _abs_interval(ami)
    abs_ap = _abs_interval(ap)
    zeros = all(iv == (0, 0) for iv in (am, ap, ami, api))
    # one row per inequality: (name, failed hypothesis or "", lhs, rhs_lo, rhs_hi)
    rows = (
        ("bound-minus", "", lhs,
         float(abs_ami[0]) * growth - float(am[1]) * h,
         float(abs_ami[1]) * growth - float(am[0]) * h),
        ("bound-plus", "", lhs,
         float(abs_ap[0]) * growth + float(api[0]) * h,
         float(abs_ap[1]) * growth + float(api[1]) * h),
        ("one-sided-minus",
         "" if ami[0] > 0 else "left slope of the inverse not certainly positive",
         lhs, -float(am[1]) * h, -float(am[0]) * h),
        ("one-sided-plus",
         "" if ap[1] < 0 else "right slope of the map not certainly negative",
         lhs, float(api[0]) * h, float(api[1]) * h),
        ("unit-circle", "" if zeros else "slope enclosures are not all exactly zero",
         distortion_spectrum_check(action, tol=tol).lhs if zeros else None, 0.0, 0.0),
    )
    checks = tuple(
        CheckRecord(name, "Inconclusive", detail=failed) if failed
        else _bound(name, value, lo, hi, tol)
        for name, failed, value, lo, hi in rows
    )

    statuses = {c.status for c in checks}
    if "Violated" in statuses:
        overall = "Violated"
    elif "Consistent" in statuses:
        overall = "Consistent"
    else:
        overall = "Confirmed"
    gap = min(c.rhs[0] - c.lhs for c in checks if c.rhs is not None)
    record = CheckRecord(
        "main-bounds", overall, gap, None, tol, detail=f"{len(checks)} component checks"
    )
    return record, checks


def distortion_spectrum_check(action, tol=DEFAULT_TOL):
    """Whether the action's spectral radius is 1 and its whole spectrum sits
    on the unit circle, as distortion would force.  The lhs is the largest
    deviation | |z| - 1 | over the eigenvalues z of S_phi."""
    roots = distinct_roots(ratmat.char_poly(action.S_phi))
    deviation = max(abs(abs(complex(z)) - 1.0) for z in roots)
    on_circle = deviation <= tol and abs(math.log(action.rho)) <= tol
    return CheckRecord(
        "distortion-spectrum",
        "Confirmed" if on_circle else "Inconclusive",
        deviation,
        0.0,
        tol,
        detail="max | |eig| - 1 |",
    )
