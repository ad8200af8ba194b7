"""Sliding block codes between edge shifts, and certified automorphisms.

A code with memory m and anticipation a maps a point x to the point whose
i-th edge is rule(x[i-m..i+a]).  Rules are total maps from admissible words
of length m+a+1 (tuples of edge indices) to single edges of the target
shift, constrained so consecutive outputs concatenate into admissible
paths.  A code stores its rule as an output column: a numpy array holding
one target edge per admissible window, indexed by the window's rank
(:meth:`EdgeShift.rank`).  Operations on codes walk the windows in chunks
of edge arrays (:meth:`EdgeShift.ranked_words`) and gather from columns.
compose, pad_code and the entropy census read one kernel instead,
:func:`image_ranks`: the ranks of the images of the windows, with the rank
terms that lie in the windows' kept tail summed once per walk.
An :class:`Automorphism` is a pair of codes certified to compose to the
identity in both orders.
"""

from collections.abc import ItemsView, Mapping
import functools
import itertools

import numpy as np

from .errors import NotInverse, NotInvertibleWithin, PreconditionFailed, ShiftMismatch
from .shifts import transpose_shift


def _edge_dtype(shift):
    """Smallest unsigned dtype that holds every edge index of ``shift``."""
    return np.min_scalar_type(shift.n_edges - 1)


def _word_at(cols, i):
    """Row i of edge columns, as a tuple of Python ints."""
    return tuple(int(c[i]) for c in cols)


class SlidingBlockCode:
    """A sliding block code; ``column`` holds its output on each admissible
    window, in rank order, and ``rule`` views it as a mapping."""

    def __init__(self, source, target, memory, anticipation, rule):
        """Code from a rule table mapping every admissible window (a tuple
        of edge indices) to a target edge, validated in full: total,
        nothing extra, outputs in range and composable.  Trusted builders
        hand their column to :meth:`from_column` instead."""
        if memory < 0 or anticipation < 0:
            raise ValueError("memory and anticipation must be nonnegative")
        self.source = source
        self.target = target
        self.memory = int(memory)
        self.anticipation = int(anticipation)
        source.ensure_budget(self.window + 1)
        self.column = np.array(self._checked_outputs(rule), dtype=_edge_dtype(target))
        self._check_composable()

    @classmethod
    def from_column(cls, source, target, memory, anticipation, column, check=False):
        """Code from its output column, a sequence of target edges in window
        rank order; with ``check`` the outputs must be composable."""
        code = cls.__new__(cls)
        code.source = source
        code.target = target
        code.memory = int(memory)
        code.anticipation = int(anticipation)
        code.column = np.asarray(column, dtype=_edge_dtype(target))
        if check:
            source.ensure_budget(code.window + 1)
            code._check_composable()
        return code

    @classmethod
    def tabulated(cls, source, target, memory, anticipation, count, outputs):
        """Code whose column is ``outputs(cols)`` over the chunks of its
        ``count`` windows (see :meth:`EdgeShift.ranked_words`)."""
        length = memory + anticipation + 1
        column = np.empty(count, dtype=_edge_dtype(target))
        for start, cols in source.ranked_words(length):
            column[start : start + len(cols[0])] = outputs(cols)
        return cls.from_column(source, target, memory, anticipation, column)

    @property
    def window(self):
        return self.memory + self.anticipation + 1

    @property
    def rule(self):
        return RuleView(self)

    @functools.cached_property
    def prefix_lcp(self):
        """D^-: the longest common prefix of rank-adjacent windows with
        different outputs (:func:`_changes_lcp`).  Windows sharing their
        first L edges have consecutive ranks, so the output is a function
        of those L edges iff L > D^-."""
        words = self.source.ranked_words(self.window)
        return _changes_lcp(self.source, ((c, self.column[i : i + len(c[0])]) for i, c in words))

    @functools.cached_property
    def suffix_lcp(self):
        """D^+: :attr:`prefix_lcp` of the windows read backwards, so the
        output is a function of the window's last L edges iff L > D^+."""
        tshift = transpose_shift(self.source)[0]
        return _changes_lcp(tshift, ((c, out) for _, c, out in _reversed_windows(self)))

    def _checked_outputs(self, rule):
        src, tgt = self.source, self.target
        outputs = []
        for w in src.words(self.window):
            if w not in rule:
                raise ValueError(f"rule is not total: missing window {w!r}")
            out = rule[w]
            if not 0 <= out < tgt.n_edges:
                raise ValueError(f"rule output {out} is not a target edge")
            outputs.append(out)
        if len(rule) != len(outputs):
            extra = set(rule) - set(src.words(self.window))
            raise ValueError(f"rule has inadmissible windows, e.g. {sorted(extra)[:1]}")
        return outputs

    def _check_composable(self):
        # consecutive outputs must concatenate into admissible paths
        tgt = self.target
        for _, cols in self.source.ranked_words(self.window + 1):
            left = self.outputs(cols[:-1])
            right = self.outputs(cols[1:])
            bad = np.flatnonzero(tgt.edge_targets[left] != tgt.edge_sources[right])
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"rule is not composable at {_word_at(cols, i)!r}: "
                    f"{int(left[i])} then {int(right[i])}"
                )

    def outputs(self, cols):
        """Outputs on the windows whose i-th edges are ``cols[i]``
        (``window`` equal-length arrays of admissible words)."""
        return self.column[self.source.rank(cols)]

    def image(self, cols):
        """Edge columns of the image words of the words ``cols``: one output
        per window position, so ``memory + anticipation`` fewer columns."""
        w = self.window
        return tuple(self.outputs(cols[i : i + w]) for i in range(len(cols) - w + 1))

    def __repr__(self):
        return (
            f"<SlidingBlockCode m={self.memory} a={self.anticipation} "
            f"on {self.source!r}>"
        )


class RuleView(Mapping):
    """Read-only view of a code's column as a mapping from admissible
    windows (tuples of edge indices) to target edges, in rank order."""

    __slots__ = ("_code",)

    def __init__(self, code):
        self._code = code

    def __getitem__(self, window):
        code = self._code
        rank = code.source.rank_of(window) if len(window) == code.window else None
        if rank is None:
            raise KeyError(window)
        return int(code.column[rank])

    def __iter__(self):
        return self._code.source.words(self._code.window)

    def __len__(self):
        return len(self._code.column)

    def items(self):
        return _RuleItems(self)


class _RuleItems(ItemsView):
    """(window, output) pairs of a :class:`RuleView`, read off the column in
    order instead of one lookup per window."""

    def __iter__(self):
        code = self._mapping._code
        return zip(code.source.words(code.window), code.column.tolist())


def _changes_lcp(shift, chunks):
    """Max over rank-adjacent words with different outputs of their longest
    common prefix, -1 when no outputs differ; ``chunks`` yields (edge
    columns, outputs) in rank order.  When every state has an edge out (as
    on an irreducible shift), the word after w keeps w's edges up to the
    last position where its edge is not the first out of its state, so that
    position is the pair's common prefix (0 if there is none).  The walk
    stops once the maximum reaches its bound, the length minus one."""
    later = np.zeros(shift.n_edges, dtype=bool)  # not the first edge out of its state
    later[1:] = shift.edge_sources[1:] == shift.edge_sources[:-1]
    d, before = -1, None
    for cols, out in chunks:
        top = len(cols) - 1
        previous = out[:1] if before is None else before  # the output before each word
        changes = np.flatnonzero(out != np.concatenate((previous, out[:-1])))
        before = out[-1:]
        if changes.size:
            d = max(d, 0)
            d = next((p for p in range(top, d, -1) if later[cols[p][changes]].any()), d)
            if d == top:
                break
    return d


def _reversed_windows(code):
    """Yield (rank of the first word, edge columns, outputs) over the
    transpose shift's words of the code's window length, chunk by chunk:
    each is a window read backwards, with the code's output on it."""
    tshift, bijection = transpose_shift(code.source)
    back = np.argsort(bijection)  # transpose edge -> original edge
    for start, cols in tshift.ranked_words(code.window):
        yield start, cols, code.outputs(tuple(back[c] for c in reversed(cols)))


def reverse_code(code):
    """Conjugate by coordinate reversal: windows reverse, memory and
    anticipation swap, and edges pass through the transpose bijection
    (:func:`transpose_shift`)."""
    if code.source != code.target:
        raise PreconditionFailed("reverse_code needs an endomorphism-shaped code")
    tshift, bijection = transpose_shift(code.source)
    count = tshift.ensure_budget(code.window)
    column = np.empty(count, dtype=_edge_dtype(tshift))
    for start, _, out in _reversed_windows(code):
        column[start : start + len(out)] = np.take(bijection, out)
    return SlidingBlockCode.from_column(tshift, tshift, code.anticipation, code.memory, column)


def identity_code(shift):
    return SlidingBlockCode.from_column(shift, shift, 0, 0, range(shift.n_edges))


def shift_code(shift):
    """The shift map itself: memory 0, anticipation 1."""
    return SlidingBlockCode.tabulated(
        shift, shift, 0, 1, shift.word_count(2), lambda cols: cols[1]
    )


def inverse_shift_code(shift):
    return SlidingBlockCode.tabulated(
        shift, shift, 1, 0, shift.word_count(2), lambda cols: cols[0]
    )


def image_ranks(placed, length, width):
    """Yield (rank of the first word, ranks) over the words of ``length``
    edges, chunk by chunk (:meth:`EdgeShift.split_words`).  ``placed``
    holds (code, start) pairs on one source shift, and column i of the
    2-d array ``ranks`` belongs to pair i: the ranks, among its code's
    target words of ``width`` edges, of the image of each word's edges
    start .. start + width + window - 2.

    A rank is a sum of one term per image position (:meth:`EdgeShift.rank`).
    The terms of the positions whose window lies in the words' kept tail
    are summed once over the kept tail words and gathered per chunk; only
    the positions that straddle the top edges are ranked per chunk."""
    source = placed[0][0].source
    s, tail = source.tail(length)
    p = length - s
    # per pair: the image positions below cut straddle the top edges
    cuts = [min(width, max(0, p - start)) for _, start in placed]
    sums = [
        _rank_terms(code, tail, start - p, range(cut, width), width)
        for (code, start), cut in zip(placed, cuts)
    ]
    # the tail edges that straddling windows read
    reach = max(
        (start + cut + code.window - 1 - p for (code, start), cut in zip(placed, cuts) if cut),
        default=0,
    )
    for first, top, x in source.split_words(length):
        cols = top + tuple(c[x] for c in tail[:reach])
        ranks = np.empty((len(x), len(placed)), dtype=np.int64)
        for i, ((code, start), cut, total) in enumerate(zip(placed, cuts, sums)):
            ranks[:, i] = _rank_terms(
                code, cols, start, range(cut), width, None if total is None else total[x]
            )
        yield first, ranks


def _rank_terms(code, cols, start, positions, width, ranks=None):
    """``ranks`` plus the rank terms, among ``code``'s target words of
    ``width`` edges, of the image edges at ``positions``: image edge j is
    the output on cols[start + j : start + j + window], and its term is
    offset_(width-1-j)[edge], or prefix for j = 0 (the block start of the
    edge's state included).  None when there are neither ranks nor
    positions; ``ranks`` is added to in place."""
    tables = code.target._rank_tables(width)
    for j in positions:
        edge = code.outputs(cols[start + j : start + j + code.window])
        term = tables[width - 1 - j][0 if j == 0 else 1][edge]
        if ranks is None:
            ranks = term
        else:
            ranks += term
    return ranks


def compose(outer, inner):
    """outer(inner(x)) as a single code; memories and anticipations add.
    The outer rule is read at the ranks of the inner images
    (:func:`image_ranks`)."""
    if inner.target != outer.source:
        raise ShiftMismatch("inner target and outer source differ")
    m = inner.memory + outer.memory
    a = inner.anticipation + outer.anticipation
    count = inner.source.ensure_budget(m + a + 1)
    column = np.empty(count, dtype=_edge_dtype(outer.target))
    for first, ranks in image_ranks([(inner, 0)], m + a + 1, outer.window):
        column[first : first + len(ranks)] = outer.column[ranks[:, 0]]
    return SlidingBlockCode.from_column(inner.source, outer.target, m, a, column)


def iterates(code):
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
        result = compose(result, code)


def power(code, n):
    """n-fold composition of an endomorphism-shaped code, n >= 0."""
    if n < 0:
        raise ValueError("negative power; use Automorphism.power")
    return next(itertools.islice(iterates(code), n, None))


def pad_code(code, extra_memory=0, extra_anticipation=0):
    """Same behaviour on a wider window (useful to align windows)."""
    m = code.memory + extra_memory
    a = code.anticipation + extra_anticipation
    count = code.source.ensure_budget(m + a + 1)
    column = np.empty(count, dtype=_edge_dtype(code.target))
    # the rank of a one-edge image word is its edge
    for first, edges in image_ranks([(code, extra_memory)], m + a + 1, 1):
        column[first : first + len(edges)] = edges[:, 0]
    return SlidingBlockCode.from_column(code.source, code.target, m, a, column)


def codes_equal(c1, c2):
    """Behavioural equality on the common window of two codes on equal
    shifts."""
    if c1.source != c2.source or c1.target != c2.target:
        raise ShiftMismatch("codes live on different shifts")
    m = max(c1.memory, c2.memory)
    a = max(c1.anticipation, c2.anticipation)
    c1.source.ensure_budget(m + a + 1)
    for _, cols in c1.source.ranked_words(m + a + 1):
        out1 = c1.outputs(cols[m - c1.memory : m + c1.anticipation + 1])
        if np.any(out1 != c2.outputs(cols[m - c2.memory : m + c2.anticipation + 1])):
            return False
    return True


def _record(table, keys, values):
    """Store ``values`` at ``keys`` in ``table``, where -1 marks an empty
    slot; False when a key already holds, or is given, a different value."""
    held = table[keys]
    if np.any((held >= 0) & (held != values)):
        return False
    table[keys] = values
    return bool(np.all(table[keys] == values))


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

    def power(self, n):
        """phi^n as a single code; negative n uses the inverse."""
        return power(self.forward, n) if n >= 0 else power(self.inverse, -n)

    @functools.cached_property
    def tracks(self):
        """The automorphisms this one is the coordinatewise product of, read
        once from the recorded factors of its shift and split further when
        they are products themselves; ``(self,)`` when the codes do not
        factor."""
        fwd = factor_product_code(self.forward)
        inv = None if fwd is None else factor_product_code(self.inverse)
        if inv is None:
            return (self,)
        factors = (Automorphism(f, i, {"method": "track"}) for f, i in zip(fwd, inv))
        return tuple(t for factor in factors for t in factor.tracks)

    def inverse_automorphism(self):
        cert = dict(self.certificate)
        cert["inverted"] = not cert.get("inverted", False)
        inv = Automorphism(self.inverse, self.forward, cert)
        if "tracks" in self.__dict__:  # already split: invert the split
            inv.__dict__["tracks"] = (inv,) if self.tracks == (self,) else tuple(
                t.inverse_automorphism() for t in self.tracks
            )
        return inv

    def __repr__(self):
        return (
            f"<Automorphism m={self.forward.memory} a={self.forward.anticipation}"
            f"/m={self.inverse.memory} a={self.inverse.anticipation} on {self.shift!r}>"
        )


def verify_automorphism(forward, inverse):
    """Certify that the two codes invert each other in both orders.

    Raises :class:`NotInverse` with a witness window on failure; on success
    returns an :class:`Automorphism` carrying the checked window sizes.
    """
    shift = forward.source
    for c in (forward, inverse):
        if c.source != shift or c.target != shift:
            raise ShiftMismatch("both codes must be endomorphism-shaped on one shift")
    checked = []
    for outer, inner, label in (
        (inverse, forward, "inverse_after_forward"),
        (forward, inverse, "forward_after_inverse"),
    ):
        m = inner.memory + outer.memory
        a = inner.anticipation + outer.anticipation
        count = shift.ensure_budget(m + a + 1)
        for _, cols in shift.ranked_words(m + a + 1):
            bad = np.flatnonzero(outer.outputs(inner.image(cols)) != cols[m])
            if bad.size:
                raise NotInverse(_word_at(cols, bad[0]), f"{label} is not the identity")
        checked.append({"order": label, "window": m + a + 1, "words": count})
    return Automorphism(forward, inverse, {"method": "verify", "checks": checked})


def infer_inverse(code, r_max=3):
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
    m, a = code.memory, code.anticipation
    for r in range(r_max + 1):
        length = 2 * r + 1 + m + a
        shift.ensure_budget(length)
        # candidate[rank of an image word] = centre edge of its preimages
        candidate = np.full(shift.word_count(2 * r + 1), -1, dtype=np.int64)
        consistent = all(
            _record(candidate, shift.rank(code.image(cols)), cols[r + m])
            for _, cols in shift.ranked_words(length)
        )
        # the image must cover every admissible window, else not surjective
        # at this radius
        if not consistent or np.any(candidate < 0):
            continue
        try:
            inv = SlidingBlockCode.from_column(shift, shift, r, r, candidate, check=True)
            return verify_automorphism(code, inv)
        except (ValueError, NotInverse):
            continue
    raise NotInvertibleWithin(r_max)


def compose_automorphisms(outer, inner):
    """outer o inner as an automorphism; inverses compose in reverse."""
    fwd = compose(outer.forward, inner.forward)
    inv = compose(inner.inverse, outer.inverse)
    return Automorphism(fwd, inv, {"method": "composition"})


def automorphism_power(auto, n):
    """phi^n packaged with its inverse as a certified-by-construction
    automorphism (n may be negative)."""
    return Automorphism(auto.power(n), auto.power(-n), {"method": "power", "n": n})


def product_code(left, right, prod_shift):
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
    count = prod_shift.ensure_budget(m + a + 1)
    track_a, track_b, pair_edge = _pair_arrays(prod_shift)

    def outputs(cols):
        wa = cols[m - left.memory : m + left.anticipation + 1]
        wb = cols[m - right.memory : m + right.anticipation + 1]
        oa = left.outputs(tuple(track_a[c] for c in wa))
        ob = right.outputs(tuple(track_b[c] for c in wb))
        return pair_edge[oa, ob]

    return SlidingBlockCode.tabulated(prod_shift, prod_shift, m, a, count, outputs)


def _pair_arrays(prod):
    """Index arrays of a recorded product: each edge's two track edges, and
    the product edge of each pair."""
    a_shift, b_shift = prod.product_of
    track_a = np.array([ea for ea, _ in prod.edge_to_pair], dtype=np.intp)
    track_b = np.array([eb for _, eb in prod.edge_to_pair], dtype=np.intp)
    pair_edge = np.empty((a_shift.n_edges, b_shift.n_edges), dtype=np.intp)
    pair_edge[track_a, track_b] = np.arange(prod.n_edges)
    return track_a, track_b, pair_edge


def shift_power_of(code):
    """Exponent s when the code is exactly the shift power sigma^s on its
    own window (rule(w) = w[m+s]); None otherwise."""
    if code.source != code.target:
        return None
    matches = range(-code.memory, code.anticipation + 1)
    for start, cols in code.source.ranked_words(code.window):
        out = code.column[start : start + len(cols[0])]
        matches = [s for s in matches if np.array_equal(out, cols[code.memory + s])]
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
    track_a, track_b, _ = _pair_arrays(prod)
    # each track's output must be a function of that track's window; the
    # factors then reproduce the rule, as pairs determine product edges
    factors = []
    for shift, track in ((a_shift, track_a), (b_shift, track_b)):
        column = np.full(shift.word_count(code.window), -1, dtype=np.int64)
        for start, cols in prod.ranked_words(code.window):
            out = code.column[start : start + len(cols[0])]
            if not _record(column, shift.rank(tuple(track[c] for c in cols)), track[out]):
                return None
        if np.any(column < 0):
            return None
        factors.append(
            SlidingBlockCode.from_column(shift, shift, code.memory, code.anticipation, column)
        )
    return tuple(factors)


def recognized_exponents(auto):
    """The paper's exact cases, recognized track by track.

    Returns (kind, ((track shift, s), ...)) when every track's forward rule
    is exactly a shift power sigma^s, and None otherwise.  The kind is
    "shift-power" when all exponents agree, so the rule is sigma^s itself,
    and "product" when they differ.
    """
    tracks = tuple((t.shift, shift_power_of(t.forward)) for t in auto.tracks)
    if any(s is None for _, s in tracks):
        return None
    return ("shift-power" if len({s for _, s in tracks}) == 1 else "product", tracks)
