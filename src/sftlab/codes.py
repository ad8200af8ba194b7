"""Sliding block codes between edge shifts, and certified automorphisms.

A code with memory m and anticipation a maps a point x to the point whose
i-th edge is rule(x[i-m..i+a]).  Rules are total maps from admissible words
of length m+a+1 (tuples of edge indices) to single edges of the target
shift, constrained so consecutive outputs concatenate into admissible
paths.  An :class:`Automorphism` is a pair of codes certified to compose to
the identity in both orders.
"""

import itertools
import os

from .errors import (
    NotInverse,
    NotInvertibleWithin,
    ShiftMismatch,
    WordTooShort,
)
from .shifts import DEFAULT_BUDGET


def resolve_budget(budget=None):
    """Effective window budget: explicit argument, else SFTLAB_BUDGET from
    the environment, else the package default."""
    if budget is not None:
        return int(budget)
    env = os.environ.get("SFTLAB_BUDGET")
    if env:
        return int(float(env))
    return DEFAULT_BUDGET


class SlidingBlockCode:
    def __init__(self, source, target, memory, anticipation, rule, check=True, budget=None):
        if memory < 0 or anticipation < 0:
            raise ValueError("memory and anticipation must be nonnegative")
        self.source = source
        self.target = target
        self.memory = int(memory)
        self.anticipation = int(anticipation)
        self.rule = dict(rule)
        if check:
            self._validate(resolve_budget(budget))

    @property
    def window(self):
        return self.memory + self.anticipation + 1

    def _validate(self, budget):
        src, tgt = self.source, self.target
        src.ensure_budget(self.window + 1, budget)
        n_keys = 0
        for w in src.words(self.window):
            n_keys += 1
            if w not in self.rule:
                raise ValueError(f"rule is not total: missing window {w!r}")
            out = self.rule[w]
            if not 0 <= out < tgt.n_edges:
                raise ValueError(f"rule output {out} is not a target edge")
        if len(self.rule) != n_keys:
            extra = set(self.rule) - set(src.words(self.window))
            raise ValueError(f"rule has inadmissible windows, e.g. {sorted(extra)[:1]}")
        # consecutive outputs must concatenate into admissible paths
        for w in src.words(self.window + 1):
            left = self.rule[w[:-1]]
            right = self.rule[w[1:]]
            if tgt.target(left) != tgt.source(right):
                raise ValueError(
                    f"rule is not composable at {w!r}: {left} then {right}"
                )

    def apply_to_word(self, word):
        """Image word; output index i is the image edge at input coordinate
        i + memory.  The output is shorter by memory + anticipation."""
        if len(word) < self.window:
            raise WordTooShort(
                f"need at least {self.window} edges, got {len(word)}"
            )
        self.source.check_admissible(word)
        w = self.window
        return tuple(self.rule[word[i : i + w]] for i in range(len(word) - w + 1))

    def __repr__(self):
        return (
            f"<SlidingBlockCode m={self.memory} a={self.anticipation} "
            f"on {self.source!r}>"
        )


def identity_code(shift):
    return SlidingBlockCode(
        shift, shift, 0, 0, {(e,): e for e in range(shift.n_edges)}, check=False
    )


def shift_code(shift):
    """The shift map itself: memory 0, anticipation 1."""
    rule = {w: w[1] for w in shift.words(2)}
    return SlidingBlockCode(shift, shift, 0, 1, rule, check=False)


def inverse_shift_code(shift):
    rule = {w: w[0] for w in shift.words(2)}
    return SlidingBlockCode(shift, shift, 1, 0, rule, check=False)


def compose(outer, inner, budget=None):
    """outer(inner(x)) as a single code; memories and anticipations add."""
    if inner.target != outer.source:
        raise ShiftMismatch("inner target and outer source differ")
    m = inner.memory + outer.memory
    a = inner.anticipation + outer.anticipation
    budget = resolve_budget(budget)
    inner.source.ensure_budget(m + a + 1, budget)
    rule = {}
    for w in inner.source.words(m + a + 1):
        mid = inner.apply_to_word(w)
        rule[w] = outer.rule[mid]
    return SlidingBlockCode(inner.source, outer.target, m, a, rule, check=False)


def iterates(code, budget=None):
    """Yield code^0, code^1, code^2, ... of an endomorphism-shaped code.

    Each iterate past the first power is one compose of the previous
    iterate with the code, and only the latest one is kept alive.
    """
    if code.source != code.target:
        raise ShiftMismatch("power needs an endomorphism-shaped code")
    yield identity_code(code.source)
    result = code
    while True:
        yield result
        result = compose(result, code, budget=budget)


def power(code, n, budget=None):
    """n-fold composition of an endomorphism-shaped code, n >= 0."""
    if n < 0:
        raise ValueError("negative power; use Automorphism.power")
    return next(itertools.islice(iterates(code, budget=budget), n, None))


def pad_code(code, extra_memory=0, extra_anticipation=0):
    """Same behaviour on a wider window (useful to align windows)."""
    m = code.memory + extra_memory
    a = code.anticipation + extra_anticipation
    rule = {}
    for w in code.source.words(m + a + 1):
        inner = w[extra_memory : extra_memory + code.window]
        rule[w] = code.rule[inner]
    return SlidingBlockCode(code.source, code.target, m, a, rule, check=False)


def codes_equal(c1, c2, edge_map=None, budget=None):
    """Behavioural equality on the common window.

    ``edge_map`` carries c1's shift onto c2's (tuple indexed by edge of
    c1.source/target; identity when omitted, in which case the codes must
    live on equal shifts).
    """
    if edge_map is None:
        if c1.source != c2.source or c1.target != c2.target:
            raise ShiftMismatch("codes live on different shifts; pass edge_map")
        edge_map = tuple(range(c1.source.n_edges))
    m = max(c1.memory, c2.memory)
    a = max(c1.anticipation, c2.anticipation)
    budget = resolve_budget(budget)
    c1.source.ensure_budget(m + a + 1, budget)
    for w in c1.source.words(m + a + 1):
        out1 = c1.rule[w[m - c1.memory : m + c1.anticipation + 1]]
        mapped = tuple(edge_map[e] for e in w)
        out2 = c2.rule[mapped[m - c2.memory : m + c2.anticipation + 1]]
        if edge_map[out1] != out2:
            return False
    return True


class Automorphism:
    """A pair of mutually inverse codes on one shift, with the verification
    certificate that produced it."""

    def __init__(self, forward, inverse, certificate):
        self.forward = forward
        self.inverse = inverse
        self.certificate = dict(certificate)

    @property
    def shift(self):
        return self.forward.source

    def power(self, n, budget=None):
        """phi^n as a single code; negative n uses the inverse."""
        if n >= 0:
            return power(self.forward, n, budget=budget)
        return power(self.inverse, -n, budget=budget)

    def inverse_automorphism(self):
        cert = dict(self.certificate)
        cert["inverted"] = not cert.get("inverted", False)
        return Automorphism(self.inverse, self.forward, cert)

    def __repr__(self):
        return (
            f"<Automorphism m={self.forward.memory} a={self.forward.anticipation}"
            f"/m={self.inverse.memory} a={self.inverse.anticipation} on {self.shift!r}>"
        )


def verify_automorphism(forward, inverse, budget=None):
    """Certify that the two codes invert each other in both orders.

    Raises :class:`NotInverse` with a witness window on failure; on success
    returns an :class:`Automorphism` carrying the checked window sizes.
    """
    shift = forward.source
    for c in (forward, inverse):
        if c.source != shift or c.target != shift:
            raise ShiftMismatch("both codes must be endomorphism-shaped on one shift")
    budget = resolve_budget(budget)
    checked = []
    for outer, inner, label in (
        (inverse, forward, "inverse_after_forward"),
        (forward, inverse, "forward_after_inverse"),
    ):
        m = inner.memory + outer.memory
        a = inner.anticipation + outer.anticipation
        count = shift.ensure_budget(m + a + 1, budget)
        for w in shift.words(m + a + 1):
            mid = inner.apply_to_word(w)
            if outer.rule[mid] != w[m]:
                raise NotInverse(w, f"{label} is not the identity")
        checked.append({"order": label, "window": m + a + 1, "words": count})
    return Automorphism(forward, inverse, {"method": "verify", "checks": checked})


def infer_inverse(code, r_max=3, budget=None):
    """Search for an inverse with coding radius R = 0..r_max.

    For each R, groups admissible input windows by their image word of
    length 2R+1; a consistent, total grouping yields a candidate inverse,
    which is then certified.  Raises :class:`NotInvertibleWithin` when no
    radius up to r_max works (a semi-decision: the map may still be
    invertible with a larger radius).
    """
    shift = code.source
    if shift != code.target:
        raise ShiftMismatch("infer_inverse needs an endomorphism-shaped code")
    budget = resolve_budget(budget)
    m, a = code.memory, code.anticipation
    for r in range(r_max + 1):
        length = 2 * r + 1 + m + a
        shift.ensure_budget(length, budget)
        candidate = {}
        consistent = True
        for w in shift.words(length):
            out = code.apply_to_word(w)
            centre = w[r + m]
            prev = candidate.get(out)
            if prev is None:
                candidate[out] = centre
            elif prev != centre:
                consistent = False
                break
        if not consistent:
            continue
        # the image must cover every admissible window, else not surjective
        # at this radius
        if any(w not in candidate for w in shift.words(2 * r + 1)):
            continue
        try:
            inv = SlidingBlockCode(shift, shift, r, r, candidate, budget=budget)
            return verify_automorphism(code, inv, budget=budget)
        except (ValueError, NotInverse):
            continue
    raise NotInvertibleWithin(r_max)


def compose_automorphisms(outer, inner, budget=None):
    """outer o inner as an automorphism; inverses compose in reverse."""
    fwd = compose(outer.forward, inner.forward, budget=budget)
    inv = compose(inner.inverse, outer.inverse, budget=budget)
    return Automorphism(fwd, inv, {"method": "composition"})


def automorphism_power(auto, n, budget=None):
    """phi^n packaged with its inverse as a certified-by-construction
    automorphism (n may be negative)."""
    return Automorphism(
        auto.power(n, budget=budget),
        auto.power(-n, budget=budget),
        {"method": "power", "n": n},
    )


def product_code(left, right, prod_shift, budget=None):
    """Coordinatewise action of two codes on a recorded product shift."""
    if prod_shift.product_of is None:
        raise ShiftMismatch("product_code needs a shift built by kronecker_product")
    a_shift, b_shift = prod_shift.product_of
    if left.source != a_shift or right.source != b_shift:
        raise ShiftMismatch("factor codes do not match the recorded factors")
    if left.target != a_shift or right.target != b_shift:
        raise ShiftMismatch("factor codes must be endomorphism-shaped")
    m = max(left.memory, right.memory)
    a = max(left.anticipation, right.anticipation)
    budget = resolve_budget(budget)
    prod_shift.ensure_budget(m + a + 1, budget)
    pairs = prod_shift.edge_to_pair
    rule = {}
    for w in prod_shift.words(m + a + 1):
        wa = tuple(pairs[e][0] for e in w)
        wb = tuple(pairs[e][1] for e in w)
        oa = left.rule[wa[m - left.memory : m + left.anticipation + 1]]
        ob = right.rule[wb[m - right.memory : m + right.anticipation + 1]]
        rule[w] = prod_shift.pair_to_edge[(oa, ob)]
    return SlidingBlockCode(prod_shift, prod_shift, m, a, rule, check=False)


def shift_power_of(code):
    """Exponent s when the code is exactly the shift power sigma^s on its
    own window (rule(w) = w[m+s]); None otherwise."""
    if code.source != code.target:
        return None
    matches = []
    for s in range(-code.memory, code.anticipation + 1):
        if all(out == w[code.memory + s] for w, out in code.rule.items()):
            matches.append(s)
    if not matches:
        return None
    return min(matches, key=lambda s: (abs(s), s < 0))


def factor_product_code(code):
    """Split a code on a recorded product shift into track codes.

    Returns (left, right) when the rule acts coordinatewise, else None.
    """
    prod = code.source
    if prod.product_of is None or code.target != prod:
        return None
    a_shift, b_shift = prod.product_of
    pairs = prod.edge_to_pair
    left_rule, right_rule = {}, {}
    for w, out in code.rule.items():
        wa = tuple(pairs[e][0] for e in w)
        wb = tuple(pairs[e][1] for e in w)
        oa, ob = pairs[out]
        if left_rule.setdefault(wa, oa) != oa:
            return None
        if right_rule.setdefault(wb, ob) != ob:
            return None
    m, a = code.memory, code.anticipation
    left = SlidingBlockCode(a_shift, a_shift, m, a, left_rule, check=False)
    right = SlidingBlockCode(b_shift, b_shift, m, a, right_rule, check=False)
    # reconstruction check: the factors must reproduce the rule exactly
    for w, out in code.rule.items():
        wa = tuple(pairs[e][0] for e in w)
        wb = tuple(pairs[e][1] for e in w)
        if prod.pair_to_edge[(left_rule[wa], right_rule[wb])] != out:
            return None
    return left, right


def recognized_exponents(auto):
    """The paper's exact cases, recognized from the forward rule.

    Returns ("shift-power", ((shift, s),)) when the rule is exactly sigma^s,
    ("product", ((left track, s1), (right track, s2))) when it is
    sigma^s1 x sigma^s2 on a recorded product, and None otherwise.
    """
    s = shift_power_of(auto.forward)
    if s is not None:
        return ("shift-power", ((auto.shift, s),))
    factors = factor_product_code(auto.forward)
    if factors is None:
        return None
    tracks = tuple((f.source, shift_power_of(f)) for f in factors)
    if any(s is None for _, s in tracks):
        return None
    return ("product", tracks)
