"""Edge shifts of nonnegative integer matrices and their spectral data.

A k x k nonnegative integer matrix A presents a shift of finite type whose
alphabet is the edge set of the graph with A[i][j] parallel edges from state
i to state j.  Words are edge paths.  Edges are indexed in the canonical
order sorted by (source, target, copy); every rule table in this package
refers to edges through that indexing.
"""

import contextlib
import contextvars
import functools
from dataclasses import dataclass
from fractions import Fraction
import math
import os

import numpy as np

from . import ratmat
from .errors import (
    InadmissibleWord,
    InternalInvariantViolation,
    NilpotentMatrix,
    ParseError,
    ReducibleInput,
    WindowBudgetExceeded,
    ZeroMatrix,
)

#: Default tolerance band for floating-point verdicts across the package
#: (natural logs everywhere).  A verdict's tol decides its status and nothing
#: else: the Perron kernel runs at one fixed precision and refuses a
#: certified enclosure of lambda wider than this band relative, so no
#: computed value depends on the band.
DEFAULT_TOL = 1e-9

#: Default cap on the number of windows any single enumeration may touch.
#: A window costs one byte of a code's output column while the target has
#: at most 256 edges (two bytes up to 65,536).  Enumerations walk the
#: windows WORD_CHUNK at a time, in a working set of a few MB that does not
#: grow with the window count, so at the default cap one column holds at
#: most 50 MB on small alphabets.
DEFAULT_BUDGET = 5 * 10**7

#: The window budget of the innermost :func:`window_budget` scope, if any.
_WINDOW_BUDGET = contextvars.ContextVar("window_budget", default=None)


@contextlib.contextmanager
def window_budget(budget):
    """Scope capping every window enumeration at ``budget`` words (None: the enclosing cap)."""
    token = _WINDOW_BUDGET.set(_WINDOW_BUDGET.get() if budget is None else int(budget))
    try:
        yield
    finally:
        _WINDOW_BUDGET.reset(token)


def resolve_budget():
    """Effective window budget: the innermost :func:`window_budget` scope,
    else SFTLAB_BUDGET from the environment (a positive integer, possibly
    written like 1e6), else the package default."""
    budget = _WINDOW_BUDGET.get()
    if budget is not None:
        return budget
    env = os.environ.get("SFTLAB_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = float(env)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value.is_integer() and value >= 1):
        raise ParseError(f"must be a positive integer, got {env!r}", "SFTLAB_BUDGET")
    return int(value)


#: Words per chunk when an enumeration runs over edge arrays (ranked_words).
#: A length whose words fit in one chunk is enumerated once per shift and
#: kept (EdgeShift's one-chunk memo): at most WORD_CHUNK x length int64
#: cells per length, and no word tuples.
#: Longer lengths stream chunk by chunk as top edges over a tail of s
#: edges, s the longest length that is kept (EdgeShift.unrank): they keep
#: nothing of their own, only that tail, at most WORD_CHUNK x s cells.
WORD_CHUNK = 1 << 14

#: Ranks are int64; word counts at or above this do not fit.
_RANK_LIMIT = 2**63


class EdgeShift:
    """Edge shift of a nonnegative integer matrix.

    Use :func:`build_edge_shift` rather than calling this directly; the
    constructor assumes an already validated matrix.

    The structural facts are zero patterns of powers of A (Lind-Marcus,
    *An Introduction to Symbolic Dynamics and Coding*, 4.5).  With R the
    pattern of (A + I)^(k-1), state i reaches j iff R[i][j], and i and j
    share a strongly connected component iff R[i][j] and R[j][i]:

    - ``irreducible``: A has an edge and R is all true;
    - ``essential``: every row and every column of A has an edge;
    - ``positive_entropy``: some component carries more edges, with
      multiplicity, than states (a component that is one cycle has entropy
      zero);
    - ``primitive``: A^((k-1)^2+1) > 0, Wielandt's bound on the primitivity
      exponent of a k x k matrix (Wielandt 1950);
    - ``reach_exact(n)``: the pattern of A^n.

    Next to the rank tables and the reach patterns, a shift keeps each word
    length it has enumerated whose words fit in one chunk (at most
    WORD_CHUNK): the edge columns from one :meth:`unrank` call, read-only.
    A length costs at most WORD_CHUNK x length int64 cells; :meth:`words`
    streams its tuples from those columns and keeps none.
    Longer lengths are streamed anew on every walk by :meth:`unrank`, which
    splits each word into its top edges and a tail of s edges, s the
    longest kept length: it descends the rank tables over the top edges
    only and gathers the tail from the kept words of length s, which is
    all the memory a long length adds (at most WORD_CHUNK x s int64
    cells).  It also keeps one :func:`perron_data`, :func:`dimension_data`
    and :func:`transpose_shift` record, every state's canonical cycle
    (:attr:`cycles`, which ``dimension_matrix`` pushes in one walk) and per
    state the 0-ray on it (``dimension.canonical_zero_ray``), each computed
    the first time it is asked for.
    """

    def __init__(self, matrix):
        self.matrix = tuple(tuple(int(x) for x in row) for row in matrix)
        self.k = len(self.matrix)
        edges = []
        index = {}
        for s in range(self.k):
            for t in range(self.k):
                for c in range(self.matrix[s][t]):
                    index[(s, t, c)] = len(edges)
                    edges.append((s, t, c))
        self.edges = tuple(edges)
        self.edge_index = index
        self.n_edges = len(edges)
        # source and target state of each edge, as index arrays
        self.edge_sources = np.array([s for s, _, _ in edges], dtype=np.intp)
        self.edge_targets = np.array([t for _, t, _ in edges], dtype=np.intp)
        self._reach = {}
        self._perron = None  # see perron_data
        self._dimension = None  # see dimension_data
        self._zero_rays = {}  # state -> kept 0-ray, see dimension.canonical_zero_ray
        self._transpose = None  # see transpose_shift
        self._products = {}  # product shifts of builtins, see builtins._product
        self._ranking = []  # rank tables by tail length, see _rank_tables
        self._one_chunk = {}  # length -> edge columns, see _kept
        self._paths = [1] * self.k  # paths from each state, next tail length
        self._counts = {}  # length -> word count, see word_count
        a = np.array(self.matrix, dtype=np.int64)
        self._adjacency = a > 0
        reach = _pattern_power(self._adjacency | np.eye(self.k, dtype=bool), self.k - 1)
        same = reach & reach.T  # i and j share a strongly connected component
        self.irreducible = self.n_edges > 0 and bool(same.all())
        # every state has an edge in and an edge out, so every word extends
        # to a bi-infinite path
        self.essential = bool(self._adjacency.any(axis=0).all()) and bool(
            self._adjacency.any(axis=1).all()
        )
        self.primitive = bool(_pattern_power(self._adjacency, (self.k - 1) ** 2 + 1).all())
        # edges (with multiplicity) inside each state's component, per state
        inside = ((same @ a) * same).sum(axis=1)
        self.positive_entropy = bool((inside > same.sum(axis=1)).any())
        # set by kronecker_product on product shifts
        self.product_of = None
        self.pair_to_edge = None
        self.edge_to_pair = None

    # -- identity is the matrix, not the object --

    def __eq__(self, other):
        return isinstance(other, EdgeShift) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"EdgeShift({[list(r) for r in self.matrix]})"

    def source(self, e):
        return self.edges[e][0]

    def target(self, e):
        return self.edges[e][1]

    # -- admissibility and enumeration --

    def _first_break(self, word):
        """First position i where ``word`` stops being a path: word[i] is
        not an edge index in 0..n_edges-1, or word[i + 1] does not leave
        its target; None for an admissible word."""
        for i, e in enumerate(word):
            if not 0 <= e < self.n_edges:
                return i
            if i and self.edges[word[i - 1]][1] != self.edges[e][0]:
                return i - 1
        return None

    def is_admissible(self, word):
        return self._first_break(word) is None

    def check_admissible(self, word):
        i = self._first_break(word)
        if i is not None:
            raise InadmissibleWord(word, i)

    def words(self, length, start_state=None):
        """Yield all admissible words of ``length`` edges as tuples,
        lexicographically by edge index (rank order), read off the edge
        columns of :meth:`ranked_words`.  ``start_state`` restricts the first
        edge's source; a state outside 0..k-1 raises ValueError."""
        if length < 0:
            raise ValueError("word length must be nonnegative")
        if length == 0:
            self._block(1, start_state)  # refuses a state outside 0..k-1
            yield ()
            return
        for _, cols in self.ranked_words(length, start_state):
            yield from zip(*(c.tolist() for c in cols))

    # -- ranks: positions in the order words() yields --
    #
    # With N_r(s) the number of r-edge paths from state s, the words of
    # length L starting with edge e number N_{L-1}(t(e)), so a word's rank is
    # the number of words before its first state's block, plus, at each
    # position i, the words that branch off to a smaller edge out of the same
    # state: sum over e' < e_i from that state of N_{L-1-i}(t(e')).  Table r
    # holds those sums per edge ("offset"), their running total over all
    # edges ("prefix"), the block starts per state ("start") and the step
    # that unranking takes past each edge ("drop").  On a full
    # q-shift offset_r(e) = e q^r: the rank is the word read in base q.

    def _rank_tables(self, length):
        """Rank tables for tail lengths 0..length-1, built once per shift."""
        if length < 1:
            raise ValueError("word length must be at least 1")
        tables = self._ranking
        while len(tables) < length:
            paths = self._paths
            prefix = [0]
            for _, t, _ in self.edges:
                prefix.append(prefix[-1] + paths[t])
            if prefix[-1] >= _RANK_LIMIT:
                raise WindowBudgetExceeded(prefix[-1], _RANK_LIMIT - 1)
            prefix = np.array(prefix, dtype=np.int64)
            start = prefix[np.searchsorted(self.edge_sources, np.arange(self.k + 1))]
            offset = prefix[:-1] - start[self.edge_sources]
            # unranking steps from a rank among the words of length r + 1 to
            # the rank of their tails after edge e by subtracting drop[e]
            drop = prefix[:-1] - tables[-1][2][self.edge_targets] if tables else None
            tables.append((prefix, offset, start, drop))
            self._paths = [
                sum(c * paths[t] for t, c in enumerate(row)) for row in self.matrix
            ]
        return tables

    def rank(self, cols):
        """Ranks of the words whose i-th edges are ``cols[i]`` (equal-length
        integer arrays) in the order :meth:`words` yields; the words must be
        admissible."""
        tables = self._rank_tables(len(cols))
        last = len(cols) - 1
        ranks = tables[last][0][cols[0]]  # prefix: the block start of the state included
        for i in range(1, len(cols)):
            ranks += tables[last - i][1][cols[i]]
        return ranks

    def unrank(self, length, start, stop):
        """Edge columns (a tuple of ``length`` arrays) of the words ranked
        start..stop-1; ValueError unless 0 <= start <= stop <=
        word_count(length).  A word is its top edges followed by a tail of
        s edges, s the longest length that fits in one chunk: only the top
        edges are read off the rank tables, and the tail is gathered from
        the kept words of s edges.  A length whose words fit in one chunk is
        read whole (s = 0): that is how its kept words are made."""
        count = self._block(length, None)[1]
        if not 0 <= start <= stop <= count:
            raise ValueError(f"ranks {start}..{stop} are not within 0..{count}")
        s = length
        while s and self._block(s, None)[1] > WORD_CHUNK:
            s -= 1
        if s == length:
            s = 0
        tables = self._rank_tables(length)
        x = np.arange(start, stop, dtype=np.int64)
        top = []
        for r in range(length - 1, s - 1, -1):
            e = np.searchsorted(tables[r][0], x, side="right") - 1
            top.append(e)
            if r:
                x -= tables[r][3][e]
        # x is now the rank of each word's last s edges among the words of s edges
        return tuple(top) + tuple(c[x] for c in self._kept(s)) if s else tuple(top)

    def ranked_words(self, length, start_state=None):
        """Yield (rank of the first word, edge columns) over the admissible
        words of ``length`` >= 1 edges, WORD_CHUNK words at a time, in rank
        order; ``start_state`` restricts the first edge's source.  The
        columns of a length that fits in one chunk are the shift's kept,
        read-only arrays."""
        lo, hi = self._block(length, start_state)
        kept = self._kept(length)
        if kept is not None:
            if lo < hi:
                yield lo, tuple(c[lo:hi] for c in kept)
            return
        for first in range(lo, hi, WORD_CHUNK):
            yield first, self.unrank(length, first, min(first + WORD_CHUNK, hi))

    def _block(self, length, start_state):
        """Rank range of the words of ``length`` edges leaving
        ``start_state`` (all words for None)."""
        start = self._rank_tables(length)[length - 1][2]
        if start_state is None:
            return 0, int(start[-1])
        if not 0 <= start_state < self.k:
            raise ValueError(f"start_state {start_state} is not in 0..{self.k - 1}")
        return int(start[start_state]), int(start[start_state + 1])

    def _kept(self, length):
        """The kept edge columns of ``length``, made on first use; None
        when its words do not fit in one chunk."""
        kept = self._one_chunk.get(length)
        if kept is None:
            count = self._block(length, None)[1]
            if count > WORD_CHUNK:
                return None
            kept = self._one_chunk[length] = self.unrank(length, 0, count)
            for c in kept:
                c.flags.writeable = False
        return kept

    def word_count(self, length):
        """Exact number of admissible words with ``length`` edges, kept per
        length: every enumeration and budget check asks for it."""
        count = self._counts.get(length)
        if count is None:
            count = self._counts[length] = count_words(self, length)
        return count

    def ensure_budget(self, length):
        """Number of words of ``length`` edges; raises
        :class:`WindowBudgetExceeded` when it is over :func:`resolve_budget`."""
        n = self.word_count(length)
        budget = resolve_budget()
        if n > budget:
            raise WindowBudgetExceeded(n, budget)
        return n

    @functools.cached_property
    def cycles(self):
        """Per state, the first cycle word through it in (length, lex) order
        of edge words (None if none): a simple cycle, so one pass over the
        lengths 1..k finds them all, each taking at each step the first edge
        from which a path of the remaining length closes it."""
        found = [None] * self.k
        reach = [[1 << u for u in range(self.k)]]  # bit s of reach[r][u]: u -> s in r edges
        for n in range(1, self.k + 1):
            reach.append([0] * self.k)
            for u, v, _ in self.edges:
                reach[n][u] |= reach[n - 1][v]
            for s in range(self.k):
                if found[s] is None and reach[n][s] >> s & 1:
                    found[s], u = (), s
                    for r in range(n - 1, -1, -1):  # edges leaving u are ranks _block(1, u)
                        e = next(e for e in range(*self._block(1, u)) if reach[r][self.target(e)] >> s & 1)
                        found[s], u = found[s] + (e,), self.target(e)
        return tuple(found)

    @functools.cached_property
    def next_state(self):
        """Read-only (k + 1) x n_edges table: next_state[s, e] is the target
        of e if e leaves s, else -1; row k, before any edge is read, holds
        every edge's target."""
        table = np.where(self.edge_sources == np.arange(self.k + 1)[:, None], self.edge_targets, -1)
        table[self.k] = self.edge_targets
        table.flags.writeable = False
        return table

    def reach_exact(self, steps):
        """Read-only boolean array: reach_exact(n)[i, j] iff a path i->j
        with exactly n edges exists."""
        if steps < 0:
            raise ValueError("path length must be nonnegative")
        if steps not in self._reach:
            pattern = self._reach[steps] = _pattern_power(self._adjacency, steps)
            pattern.flags.writeable = False
        return self._reach[steps]


def _pattern_power(m, n):
    """Boolean pattern of M^n for a square boolean matrix M, by repeated
    squaring.  The float products are exact: their entries are at most k."""
    result = np.eye(len(m), dtype=bool)
    m = m.astype(float)
    while n:
        if n & 1:
            result = result @ m > 0
        n >>= 1
        if n:
            m = (m @ m > 0).astype(float)
    return result


def build_edge_shift(matrix):
    """Validate a nonnegative integer matrix and build its edge shift."""
    if not matrix or not all(len(row) == len(matrix) for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    for row in matrix:
        for x in row:
            if int(x) != x or x < 0:
                raise ValueError(f"entries must be nonnegative integers, got {x!r}")
    if all(x == 0 for row in matrix for x in row):
        raise ZeroMatrix("the zero matrix presents no shift")
    return EdgeShift(matrix)


def count_words(shift, n):
    """Number of admissible words with n edges; 1 for n = 0 by convention."""
    if n < 0:
        raise ValueError("word length must be nonnegative")
    if n == 0:
        return 1
    # the sum of A^n's entries: n steps of v <- A v from the all-ones vector
    paths = [1] * shift.k
    for _ in range(n):
        paths = [sum(c * x for c, x in zip(row, paths)) for row in shift.matrix]
    return sum(paths)


@dataclass(frozen=True)
class PerronData:
    """Certified Perron root of an irreducible matrix: ``enclosure`` is a
    pair (lo, hi) of Fractions with lo <= lambda <= hi, ``lambda_`` the
    float nearest its midpoint and ``entropy`` that float's natural log;
    ``v_right`` is the positive right eigenvector (1-norm one) whose
    Collatz-Wielandt ratios give the enclosure."""

    lambda_: float
    v_right: tuple
    entropy: float
    enclosure: tuple


def perron_data(shift):
    """Certified Perron eigenvalue and right eigenvector of the shift's
    matrix, from :func:`_perron_kernel`.

    Irreducible input required.  The kernel runs once per shift, and the
    shift keeps its one Perron record; a refusal is not kept.
    """
    if not shift.irreducible:
        raise ReducibleInput("perron_data needs an irreducible matrix")
    if shift._perron is None:
        shift._perron = _perron_kernel(shift.matrix)
    return shift._perron


def _perron_kernel(matrix):
    """Perron data of an irreducible nonnegative integer matrix, certified.

    numpy's eigenvalues estimate the Perron root lam, and two solves of
    inverse iteration at mu = lam (1 + 1e-12) from the flat vector give the
    Perron vector x (mu = lam would be exactly singular on an exact root),
    or x = (1,) for [[n]]; whichever side of the root mu falls on, scaling
    to 1-norm one makes x positive.
    For positive x the root lies between the least and the greatest ratio
    (Ax)_i / x_i (Collatz-Wielandt; Wielandt, Math. Z. 52, 1950), computed
    exactly in integers from x's dyadic floats.  An enclosure wider than
    DEFAULT_TOL relative is refused.
    """
    k = len(matrix)
    x = [1.0]  # the Perron vector of [[n]]: no eigensolver
    if k > 1:
        a = np.array(matrix, dtype=float)
        shifted = np.linalg.eigvals(a).real.max() * (1 + 1e-12) * np.eye(k) - a
        x = np.linalg.solve(shifted, np.ones(k))
        x = np.linalg.solve(shifted, x / x.sum())
        x = (x / x.sum()).tolist()
    # x_i = n_i / d_i with d_i a power of two: scaled by the largest d_i,
    # the vector is integral
    ratios = [v.as_integer_ratio() for v in x]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    if min(ints) <= 0:
        raise InternalInvariantViolation("Perron vector is not positive")
    bounds = [
        Fraction(sum(c * v for c, v in zip(row, ints) if c), v) for row, v in zip(matrix, ints)
    ]
    lo, hi = min(bounds), max(bounds)
    if hi - lo > DEFAULT_TOL * lo:
        raise InternalInvariantViolation("Perron enclosure is wider than DEFAULT_TOL")
    lam = float((lo + hi) / 2)
    return PerronData(lambda_=lam, v_right=tuple(x), entropy=math.log(lam), enclosure=(lo, hi))


@dataclass(frozen=True)
class DimensionData:
    """Eventual-range data of A acting on row vectors (x -> xA).

    ``matrix`` is A itself and ``eventual_power`` is A^k, both with Python
    int entries, k the number of states.  ``basis`` rows are the
    reduced row echelon form of A^k, integral entries as ints, and span the
    eventual range R(A) = Q^k . A^k, so an integer vector of R(A) has integer
    coordinates (its pivot entries); ``delta_restricted`` is the matrix of
    x -> xA on that basis (coordinates multiply on the right), and
    ``delta_inverse`` its exact inverse.  ``rho_minus`` is the reciprocal of
    the smallest modulus among nonzero eigenvalues of A, i.e. the spectral
    radius of the inverse action on the eventual range.  ``delta_inverse``
    and ``perron_left`` are computed on first use; ``perron_left`` is the
    left Perron vector of A (the Perron kernel's vector on A^T, 1-norm one)
    at the pivots, its coordinates in the basis.
    """

    k: int
    basis: tuple
    pivots: tuple
    delta_restricted: tuple
    char_poly: tuple
    rho_minus: float
    matrix: tuple
    eventual_power: tuple

    @property
    def d(self):
        return len(self.basis)

    @functools.cached_property
    def delta_inverse(self):
        return ratmat.inverse(self.delta_restricted)

    @functools.cached_property
    def perron_left(self):
        left = _perron_kernel(tuple(zip(*self.matrix))).v_right
        return tuple(left[p] for p in self.pivots)

    def coords(self, vec):
        """Coordinates of ``vec`` in the basis; exact membership check."""
        vec = tuple(x if isinstance(x, int) else Fraction(x) for x in vec)
        c = tuple(vec[p] for p in self.pivots)
        recon = self.to_ambient(c)
        if recon != vec:
            raise InternalInvariantViolation(
                f"vector {vec} is not in the eventual range"
            )
        return c

    def to_ambient(self, coords):
        return ratmat.vec_mat(coords, self.basis)

    def apply_delta_power(self, vec, j):
        """(x -> xA)^j applied inside R(A); j may be negative."""
        c = self.coords(vec)
        step = self.delta_restricted if j >= 0 else self.delta_inverse
        for _ in range(abs(j)):
            c = ratmat.vec_mat(c, step)
        return self.to_ambient(c)


def distinct_roots(coeffs):
    """Numeric roots of the square-free part of a polynomial (coefficients
    descending), each distinct root once; empty for a constant."""
    reduced = ratmat.squarefree_part(list(coeffs))
    if len(reduced) == 1:
        return []
    return list(np.roots([float(c) for c in reduced]))


def dimension_data(shift):
    """Exact eventual-range data for the shift's matrix, computed once per
    shift; the shift keeps its one dimension record.  A nilpotent matrix
    raises on every call."""
    if shift._dimension is None:
        shift._dimension = _eventual_range(shift)
    return shift._dimension


def _eventual_range(shift):
    k = shift.k
    a = shift.matrix
    ak = ratmat.mat_pow(a, k)
    if all(x == 0 for row in ak for x in row):
        raise NilpotentMatrix("A^k = 0; the eventual range is trivial")
    basis, pivots = ratmat.rref(ak)
    d = len(basis)
    delta_rows = []
    for row in basis:
        image = ratmat.vec_mat(row, a)
        c = tuple(image[p] for p in pivots)
        if ratmat.vec_mat(c, basis) != image:
            raise InternalInvariantViolation("eventual range is not A-invariant")
        delta_rows.append(c)
    cp = tuple(ratmat.char_poly(a))
    _, nonzero_part = ratmat.strip_zero_roots(list(cp))
    if len(nonzero_part) - 1 != d:
        raise InternalInvariantViolation(
            "rank of A^k disagrees with the number of nonzero eigenvalues"
        )
    min_mod = min(abs(r) for r in distinct_roots(nonzero_part))
    return DimensionData(
        k=k,
        basis=basis,
        pivots=pivots,
        delta_restricted=tuple(delta_rows),
        char_poly=cp,
        rho_minus=float(1.0 / min_mod),
        matrix=a,
        eventual_power=ak,
    )


def kronecker_product(a_shift, b_shift):
    """Product shift with the row-major pair/edge correspondence recorded.

    Product edge copies are ordered row-major over (copy in A, copy in B), so
    the pairing with the canonical edge indexing is reproducible.  The record
    is on this object only: it equals the plain shift of its matrix.
    """
    kb, b = b_shift.k, b_shift.matrix
    # state (ia, ib) is ia * kb + ib, as in numpy's kron
    prod = build_edge_shift(np.kron(a_shift.matrix, b).tolist())
    edge_to_pair = [None] * prod.n_edges
    for ea, (sa, ta, ca) in enumerate(a_shift.edges):
        for eb, (sb, tb, cb) in enumerate(b_shift.edges):
            e = prod.edge_index[(sa * kb + sb, ta * kb + tb, ca * b[sb][tb] + cb)]
            edge_to_pair[e] = (ea, eb)
    if any(p is None for p in edge_to_pair):
        raise InternalInvariantViolation("pair correspondence is not onto")
    prod.product_of = (a_shift, b_shift)
    prod.pair_to_edge = {pair: e for e, pair in enumerate(edge_to_pair)}
    prod.edge_to_pair = tuple(edge_to_pair)
    return prod


def transpose_shift(shift):
    """Transpose shift plus the edge bijection e=(s,t,c) -> (t,s,c).

    Returns (shift of A^T, tuple mapping each edge index of A to the
    corresponding edge index of A^T).  The shift keeps this record, and
    the transpose shift the record back; when A^T = A the transpose shift
    is the shift itself.
    """
    if shift._transpose is None:
        tmatrix = tuple(zip(*shift.matrix))
        tshift = shift if tmatrix == shift.matrix else build_edge_shift(tmatrix)
        bijection = tuple(tshift.edge_index[(t, s, c)] for (s, t, c) in shift.edges)
        shift._transpose = (tshift, bijection)
        tshift._transpose = (shift, tuple(np.argsort(bijection).tolist()))
    return shift._transpose
