"""Sliding block codes between edge shifts, and certified automorphisms.

A code with memory m and anticipation a maps a point x to the point whose
i-th edge is the output on the window x[i-m..i+a], an admissible word of
m+a+1 edges; outputs are edges of the target shift, and consecutive ones
concatenate into admissible paths.

A code is the quasi-reduced ordered decision diagram of its outputs over
the window's positions (Bryant, IEEE Trans. Comput. C-35, 1986, over the
edge alphabet with every level kept), and the constructor takes its levels
(or a rule mapping, read as its column).  A node at level L is one distinct
function of the edges after an L-edge prefix of a window: it carries the
state its prefix ends at and has one child per edge out of that state that
a window continues with.  Level L is an array with one row per node and
one column per source edge, holding the child's index at level L + 1 (the
target edge at the last level), -1 where the edge does not continue; level
0 is the single root.  Nodes are numbered bottom-up in the lexicographic
order of their rows, so equal codes have equal arrays.

A rule table, the outputs in window rank order, is read into its levels
bottom-up by :meth:`SlidingBlockCode.from_column`, which can also check
that the outputs are target edges and compose; a system file's table is
checked entry by entry in :func:`sftlab.systems.parse_rule` first.  A
code's output on given windows is one gather per level
(:meth:`SlidingBlockCode.outputs`).  compose, product codes (whose nodes
are pairs of track nodes) and their split into tracks (each node's
children gathered by track edge) work level by level and enumerate no
window; pad_code inserts levels.  sigma^s on the window [-m, a] is the
identity read at s (:func:`read_at`): its levels padded by m + s edges in
front and a - s behind, so shift powers are built by padding and
recognized by comparing levels (:func:`shift_power_of`, once per code).
A code commutes with sigma, so a compose whose inner code is sigma^s pads
the outer code by m + s and a - s instead of building the product; it
still charges the composite window's words first.  An
:class:`Automorphism` is a pair of codes certified to compose to the
identity in both orders.
"""

from collections.abc import ItemsView, Mapping
import functools
import itertools

import numpy as np

from .errors import NotInverse, NotInvertibleWithin, PreconditionFailed, ShiftMismatch
from .shifts import transpose_shift


def _word_at(cols, i):
    """Row i of edge columns, as a tuple of Python ints."""
    return tuple(int(c[i]) for c in cols)


class SlidingBlockCode:
    """A sliding block code; ``levels`` holds its diagram (see the module
    docstring), and ``rule`` views it as a mapping."""

    def __init__(self, source, target, memory, anticipation, levels):
        """Code from the canonical levels of its diagram, kept as read-only
        intp arrays; outputs are read into levels by :meth:`from_column`."""
        if isinstance(levels, Mapping):  # a rule table: admissible window tuple -> output
            column = [levels[w] for w in source.words(memory + anticipation + 1)]
            if len(column) != len(levels):
                raise ValueError("rule has windows that are not admissible")
            levels = self.from_column(source, target, memory, anticipation, column, check=True).levels
        self.source = source
        self.target = target
        self.memory = int(memory)
        self.anticipation = int(anticipation)
        self.levels = tuple(level.astype(np.intp, copy=False) for level in levels)
        for level in self.levels:
            level.flags.writeable = False

    @classmethod
    def from_column(cls, source, target, memory, anticipation, column, check=False):
        """Code from its output column, a sequence of target edges in window
        rank order (:meth:`EdgeShift.rank`) with one entry per admissible
        window; with ``check`` the outputs must be composable."""
        if memory < 0 or anticipation < 0:
            raise ValueError("memory and anticipation must be nonnegative")
        window = memory + anticipation + 1
        column = np.asarray(column)
        count = source.word_count(window)
        if len(column) != count:
            raise ValueError(
                f"column has {len(column)} entries, but there are {count} "
                f"admissible windows of {window} edges"
            )
        if check:
            source.ensure_budget(window + 1)
            bad = np.flatnonzero((column < 0) | (column >= target.n_edges))
            if bad.size:
                raise ValueError(f"rule output {column[bad[0]]} is not a target edge")
        code = cls(
            source, target, memory, anticipation,
            _column_levels(source, window, column, target.n_edges),
        )
        if check:
            code.check_composable()
        return code

    @property
    def window(self):
        return self.memory + self.anticipation + 1

    @property
    def rule(self):
        return RuleView(self)

    @functools.cached_property
    def prefix_lcp(self):
        """D^-: the longest common prefix of two windows with different
        outputs, -1 when the code is constant.

        Every node at level L is the output's residual function after one
        L-edge prefix of a window, and every such prefix reaches one.  So
        the output is a function of the first L edges iff every node at
        level L is constant.  Two windows with different outputs and a
        common prefix of d edges pass through one node at level d, which is
        then not constant; and a node at level d that is not constant has
        two windows below it with different outputs, which share d edges.
        Hence D^- is one less than the first level whose nodes are all
        constant.  Constants are read bottom-up, so the walk stops at the
        first level from the bottom that has a varying node."""
        value = None  # the constant of each node a level down; a terminal is its own
        for level in range(self.window - 1, -1, -1):
            rows = self.levels[level]
            seen = rows if value is None else np.concatenate((value, (-1,)))[rows]
            high = seen.max(axis=1)  # an absent child reads -1, below every constant
            if (np.where(seen < 0, high[:, None], seen).min(axis=1) != high).any():
                return level
            value = high
        return -1

    @functools.cached_property
    def suffix_lcp(self):
        """D^+: the longest common suffix of two windows with different
        outputs, -1 when the code is constant.

        For L >= 1, two windows with the same last L edges have their first
        W - L edges (W the window) end at one state s, and every L-edge word
        out of s completes every such prefix.  So the output is a function
        of the last L edges iff all nodes at level W - L that end at one
        state are one node, i.e. that level has one node per state (level 0
        is the single root, so L = W always qualifies).  By the argument of
        :attr:`prefix_lcp`, D^+ is one less than the least such L, and -1
        when the output is a function of no edge at all."""
        if self.prefix_lcp < 0:
            return -1
        sources = self.source.edge_sources
        for last in range(1, self.window):
            rows = self.levels[self.window - last]
            if len(rows) > self.source.k:
                continue
            states = sources[np.argmax(rows >= 0, axis=1)]  # a node's state: its edges' source
            if len(rows) == 1 or np.bincount(states).max() == 1:
                return last - 1
        return self.window - 1

    def check_composable(self):
        """Raise ValueError unless consecutive outputs concatenate into paths."""
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
        (``window`` equal-length arrays of admissible words): one gather
        per level of the diagram."""
        nodes = self._offsets[0][cols[0]]
        for offsets, col in zip(self._offsets[1:], cols[1:]):
            nodes = offsets.take(nodes + col)
        return nodes

    @functools.cached_property
    def _offsets(self):
        """The levels flattened for :meth:`outputs`, each child index times
        the number of source edges: the offset of the child's row in the
        next flattened level (target edges at the last level)."""
        edges = self.source.n_edges
        return [level.ravel() * edges for level in self.levels[:-1]] + [self.levels[-1].ravel()]

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
    """Read-only view of a code as a mapping from admissible windows (tuples
    of edge indices) to target edges, in rank order."""

    __slots__ = ("_code",)

    def __init__(self, code):
        self._code = code

    def __getitem__(self, window):
        code = self._code
        if len(window) != code.window or not code.source.is_admissible(window):
            raise KeyError(window)
        return int(code.outputs([np.array([e]) for e in window])[0])

    def __iter__(self):
        return self._code.source.words(self._code.window)

    def __len__(self):
        return self._code.source.word_count(self._code.window)

    def items(self):
        return _RuleItems(self)


class _RuleItems(ItemsView):
    """(window, output) pairs of a :class:`RuleView`, read chunk by chunk
    instead of one lookup per window."""

    def __iter__(self):
        code = self._mapping._code
        for _, cols in code.source.ranked_words(code.window):
            yield from zip(zip(*(c.tolist() for c in cols)), code.outputs(cols).tolist())


# -- the diagram kernel --------------------------------------------------------

def _index_dtype(count):
    """Smallest signed dtype that holds -1..count - 1."""
    return np.min_scalar_type(-max(count, 1))


#: Packed keys stay below this, so one more digit never overflows int64.
_KEY_LIMIT = 1 << 62


def _sorted_rows(rows):
    """A lexicographic order of the rows of a 2-d integer array, and for
    each row in that order whether it differs from the one before.

    Each row is packed into one int64 key, its entries the digits (offset
    by their column's least entry), and the keys are sorted.  When the next
    column would overflow a key, the keys so far are first replaced by
    their ranks among the distinct keys.  Each column's bounds are read
    from that column: axis-0 reductions over C-ordered rows run strided."""
    keys, span = np.zeros(len(rows), dtype=np.int64), 1
    for col in rows.T:
        low, high = int(col.min()), int(col.max())
        if span * (high - low + 1) >= _KEY_LIMIT:
            order, starts = _sorted_keys(keys)
            keys[order] = starts.cumsum() - 1
            span = len(rows)
        keys *= high - low + 1
        keys += col
        keys -= low
        span *= high - low + 1
    return _sorted_keys(keys)


def _sorted_keys(keys):
    """:func:`_sorted_rows` of the rows of one entry ``keys``."""
    order = keys.argsort()
    ordered = keys[order]
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return order, starts


#: Up to this many rows :func:`_nodes` sorts Python tuples: on so few
#: that takes less time than the numpy calls, and past 32 rows more.
_FEW_ROWS = 32


def _nodes(rows):
    """The distinct rows of a level, in lexicographic order, and each row's
    index among them followed by -1, the index of an absent child.  A row
    of -1s (a node with no child) sorts first; it is dropped, and rows
    equal to it get index -1."""
    if len(rows) <= _FEW_ROWS:
        listed = list(map(tuple, rows.tolist()))
        distinct = sorted(set(listed))
        dead = bool(distinct) and max(distinct[0]) < 0
        index = {row: i - dead for i, row in enumerate(distinct)}
        ids = np.array([index[row] for row in listed] + [-1], dtype=np.intp)
        return np.array(distinct[dead:], dtype=np.intp).reshape(-1, rows.shape[1]), ids
    order, starts = _sorted_rows(rows)
    ids = np.empty(len(rows) + 1, dtype=_index_dtype(len(rows) + 1))
    ids[order] = starts.cumsum(dtype=ids.dtype) - 1
    rows = rows[order[starts]]
    if rows[0].max() < 0:
        rows, ids = rows[1:], ids - 1
    ids[-1] = -1
    return rows, ids


def _reduce(tables):
    """Canonical levels of a diagram given level by level, all of whose
    rows the root reaches: row i of ``tables[L]`` is a node at level L, and
    its entries index rows of ``tables[L + 1]`` (target edges at the last
    level), -1 where an edge does not continue.  Bottom-up, equal rows
    become one node, and rows left without a child are dropped."""
    levels, ids = [], None
    for table in reversed(tables):
        rows = table if ids is None else ids[table]
        if len(levels) < len(tables) - 1:  # the root stays, even without a child
            rows, ids = _nodes(rows)
        levels.append(rows)
    return levels[::-1]


def _column_levels(source, window, column, n_target):
    """The canonical levels of the code whose outputs, in window rank
    order, are ``column``: the prefix tree of the windows, reduced, built
    bottom-up one level at a time.  Row p of level L - 1's table is the
    word of L - 1 edges ranked p, and its entry for edge e is the node (the
    output at the last level) that the word followed by e reaches."""
    levels, below, count = [], column, n_target
    for length in range(window, 0, -1):
        table = np.full(
            (source.word_count(length - 1), source.n_edges), -1, dtype=_index_dtype(count)
        )
        for start, cols in source.ranked_words(length):
            prefix = source.rank(cols[:-1]) if length > 1 else 0
            table[prefix, cols[-1]] = below[start : start + len(cols[0])]
        if length > 1:
            table, below = _nodes(table)
            count = len(table)
        levels.append(table)
    return levels[::-1]


def _product(outer, inner):
    """Levels of outer o inner before :func:`_reduce`, by a product
    construction over the composite window: the inner code read as a
    transducer (:func:`_transducer`) feeds its outputs to the outer
    diagram, which moves down one level per output.

    After the composite window's first L edges, a product state is the
    outer node and the transducer's context.  Copies of the inner code
    start at the first outer.window edges, so the context follows the
    transducer's "start" table there and its "stop" table after.  A state
    whose edges do not continue is dead (context 0); the last level's
    entries are the outer's outputs, -1 for a dead state."""
    wi, wo = inner.window, outer.window
    reading = _transducer(inner, wo)
    size = len(reading[0][0])  # contexts
    # the outer's root, and context 1: no edge read
    nodes, contexts = np.zeros(1, dtype=np.intp), np.ones(1, dtype=np.intp)
    tables = []
    for step in range(wi + wo - 1):
        following, output = reading[step >= wo]
        following = following[contexts]
        if step >= wi - 1:  # the oldest copy has read its window: the outer reads its output
            # (-1 when the output word starts no outer window: the state
            # dies before the window ends; a dead state reads garbage)
            nodes = outer.levels[step - wi + 1][nodes[:, None], output[contexts]]
        else:
            nodes = nodes[:, None]  # the steps below broadcast it
        if step == wi + wo - 2:
            tables.append(np.where(following > 0, nodes, -1))
            break
        # equal product states merge; dead ones and those with no outer
        # node are dropped
        live = (following > 0) & (nodes >= 0)
        held, ids = _nodes(np.where(live, nodes * size + following, -1).reshape(-1, 1))
        nodes, contexts = np.divmod(held[:, 0], size)
        tables.append(ids[:-1].reshape(following.shape))
    return tables


def _transducer(code, starts):
    """The code read as a transducer over its source edges (Lind-Marcus
    1.5), kept on the code and read again when a compose needs more starts.

    A context is the state that the edges read so far end at (k before any
    edge) and, for l = 1..window - 1, the node of the copy of the code that
    has read l edges (-1: none); context 0 is dead, and context 1 has read
    nothing.  On each edge every copy moves down a level, the copy at the
    last level outputs, and under "start" a new copy begins.  Contexts are
    read round by round from context 1, under start for the first
    ``starts`` rounds and under stop in every round, until a round finds no
    new one.  A context is a function of the last window edges read (the
    state needs the last one), so past window + 1 starts none is new: a
    compose that starts window copies or more reads all window + 1 rounds,
    which serve every later compose.  Reading fewer is needed: all rounds of
    a random inner code of 13 to 16 edges on the full 2-shift, under a
    2-edge outer, hold contexts for every copy and ran out of 4 GB.

    Returns, under start and under stop, (next context, output): contexts x
    source edges tables.  The next context is 0, dead, where the edge does
    not continue (and where the context was not read under start); the
    output is -1 where none is due."""
    starts = code.window + 1 if starts >= code.window else starts
    kept = code.__dict__.get("_transducer")
    if kept is None or kept[0] < starts:
        kept = code.__dict__["_transducer"] = (starts, _read_contexts(code, starts))
    return kept[1]


def _read_contexts(code, starts):
    """The tables of :func:`_transducer`, with ``starts`` rounds read under
    start."""
    w, edges = code.window, code.source.n_edges
    index = {(-1,) * w: 0, (code.source.k, *[-1] * (w - 1)): 1}
    dead = (np.zeros((1, edges), dtype=np.intp), np.full((1, edges), -1))
    tables = ([dead], [dead])  # per phase: (next contexts, outputs) per round
    read, rounds = 1, 0
    while read < len(index):
        rounds += 1
        batch = np.array(list(index)[read:], dtype=np.intp)
        read = len(index)
        for stop, (after, out) in enumerate(_read(code, batch)):
            if stop or rounds <= starts:
                keys = list(map(tuple, after.reshape(-1, w).tolist()))
                for key in dict.fromkeys(keys):
                    index.setdefault(key, len(index))
                following = np.array(list(map(index.__getitem__, keys)))
            else:
                following, out = np.zeros_like(out), np.full_like(out, -1)
            tables[stop].append((following.reshape(out.shape), out))
    return [[np.concatenate(part) for part in zip(*phase)] for phase in tables]


def _read(code, contexts):
    """One edge of :func:`_transducer` from each context row, under start
    and under stop: the next context rows (contexts x edges x window; all
    -1, the dead context, where the edge does not continue) and the outputs
    (-1 where none is due)."""
    levels, w = code.levels, code.window
    n, edges = len(contexts), code.source.n_edges
    after = np.empty((n, edges, w), dtype=np.intp)
    after[:, :, 0] = code.source.next_state[contexts[:, 0]]
    dead = (after[:, :, 0] < 0) | (contexts[:, :1] < 0)  # the dead context stays dead
    for slot in range(2, w):  # the copy in slot - 1 has read one more edge
        held = contexts[:, slot - 1, None] >= 0
        after[:, :, slot] = np.where(held, levels[slot - 1][contexts[:, slot - 1]], -1)
        dead |= held & (after[:, :, slot] < 0)
    begun = levels[0][0]  # a new copy's node after one edge, or its output
    if w == 1:
        out = np.full(dead.shape, -1)
    else:
        held = contexts[:, w - 1, None] >= 0
        out = np.where(held, levels[w - 1][contexts[:, w - 1]], -1)
        dead |= held & (out < 0)
    phases = []
    for stop in (False, True):
        next_after, next_dead = after.copy(), dead if stop else dead | (begun < 0)
        next_out = out if stop or w > 1 else np.broadcast_to(begun, dead.shape)
        if w > 1:
            next_after[:, :, 1] = -1 if stop else begun
        next_after[next_dead] = -1
        phases.append((next_after, np.where(next_dead, -1, next_out)))
    return phases


def _padded(code, before, after):
    """The canonical levels of ``code`` on a window wider by ``before``
    edges in front and ``after`` behind.

    The levels that read edges without using them carry what the output
    still needs: in front, the state the prefix ends at (the root then
    restricted to that state's edges); behind, the state and the output.
    Such nodes are numbered by descending state, then output.  On an
    essential shift (every state has edges in and out) every node stays
    reachable and alive, distinct nodes stay distinct and that numbering is
    the lexicographic order of their rows, so the levels are canonical as
    built; elsewhere they are trimmed and reduced.  Building them so takes
    a fifth to a half of the time that reducing them takes on small codes,
    which the random codes of acceptance criterion 12 are."""
    shift, levels = code.source, list(code.levels)
    down = shift.k - 1 - shift.edge_targets  # the target's rank by descending state
    if after:
        last, count = levels.pop(), code.target.n_edges
        for _ in range(after):
            held, ids = _nodes(np.where(last >= 0, down * count + last, -1).reshape(-1, 1))
            levels.append(ids[:-1].reshape(last.shape))
            ranks, outputs = np.divmod(held[:, 0], count)
            states = shift.k - 1 - ranks
            last = np.where(shift.edge_sources == states[:, None], outputs[:, None], -1)
        levels.append(last)
    if before:
        by_state = shift.edge_sources == np.arange(shift.k - 1, -1, -1)[:, None]
        levels[:1] = [
            down[None, :],
            *[np.where(by_state, down, -1)] * (before - 1),
            np.where(by_state, levels[0][0], -1),
        ]
    if not shift.essential:
        levels = _reduce(_reachable(levels))
    return levels


def _reachable(levels):
    """The levels with the rows that the root does not reach removed."""
    levels = list(levels)
    for i in range(1, len(levels)):
        reached = np.zeros(len(levels[i]) + 1, dtype=bool)
        reached[levels[i - 1]] = True  # an absent child marks the spare last slot
        kept = np.flatnonzero(reached[:-1])
        index = np.full(len(levels[i]) + 1, -1)
        index[kept] = np.arange(len(kept))
        levels[i - 1] = index[levels[i - 1]]
        levels[i] = levels[i][kept]
    return levels


def reverse_code(code):
    """Conjugate by coordinate reversal: windows reverse, memory and
    anticipation swap, and edges pass through the transpose bijection
    (:func:`transpose_shift`).  Each transpose window is read back to front
    through the bijection's inverse."""
    if code.source != code.target:
        raise PreconditionFailed("reverse_code needs an endomorphism-shaped code")
    tshift, bijection = transpose_shift(code.source)
    column = np.empty(tshift.ensure_budget(code.window), dtype=_index_dtype(tshift.n_edges))
    back = np.argsort(bijection)  # transpose edge -> original edge
    forth = np.asarray(bijection)
    for start, cols in tshift.ranked_words(code.window):
        outputs = code.outputs(tuple(back[c] for c in reversed(cols)))
        column[start : start + len(cols[0])] = forth[outputs]
    return SlidingBlockCode.from_column(tshift, tshift, code.anticipation, code.memory, column)


def identity_code(shift):
    """The identity: a root that outputs each edge it reads."""
    return SlidingBlockCode(shift, shift, 0, 0, [np.arange(shift.n_edges)[None, :]])


def read_at(code, s, memory, anticipation):
    """The window-1 code ``code`` read at coordinate s of the window
    [-memory, anticipation]: x -> code(x[s]).  Its levels are ``code``'s
    padded by memory + s edges in front and anticipation - s behind, so
    sigma^s is the identity read at s and reads no table."""
    levels = _padded(code, memory + s, anticipation - s)
    return SlidingBlockCode(code.source, code.target, memory, anticipation, levels)


def shift_code(shift):
    """The shift map itself, the identity read at 1: memory 0, anticipation 1."""
    return read_at(identity_code(shift), 1, 0, 1)


def inverse_shift_code(shift):
    """sigma^-1, the identity read at -1: memory 1, anticipation 0."""
    return read_at(identity_code(shift), -1, 1, 0)


def compose(outer, inner):
    """outer(inner(x)) as a single code; memories and anticipations add.
    Built level by level by :func:`_product` and reduced, so no table is
    read; the budget still counts the composite window's words.  When the
    inner code is sigma^s on [-m, a] (:func:`shift_power_of`), the levels
    are the outer's padded by m + s and a - s instead: canonical levels are
    unique, so they equal the reduced product's."""
    if inner.target != outer.source:
        raise ShiftMismatch("inner target and outer source differ")
    m = inner.memory + outer.memory
    a = inner.anticipation + outer.anticipation
    inner.source.ensure_budget(m + a + 1)
    s = shift_power_of(inner)
    if s is None:
        levels = _reduce(_product(outer, inner))
    else:  # D^- <= m + s and D^+ <= a - s, so both pads are >= 0
        levels = _padded(outer, inner.memory + s, inner.anticipation - s)
    return SlidingBlockCode(inner.source, outer.target, m, a, levels)


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
    """Same behaviour on a window wider by the given extra memory and
    anticipation (useful to align windows); padding only widens, so
    negative extras are refused."""
    if extra_memory < 0 or extra_anticipation < 0:
        raise ValueError(
            f"pad_code widens windows: got extra_memory={extra_memory}, "
            f"extra_anticipation={extra_anticipation}"
        )
    m = code.memory + extra_memory
    a = code.anticipation + extra_anticipation
    code.source.ensure_budget(m + a + 1)
    levels = _padded(code, extra_memory, extra_anticipation)
    return SlidingBlockCode(code.source, code.target, m, a, levels)


def codes_equal(c1, c2):
    """Behavioural equality on the common window of two codes on equal
    shifts: both are padded to it, and canonical diagrams of one function
    are equal arrays."""
    if c1.source != c2.source or c1.target != c2.target:
        raise ShiftMismatch("codes live on different shifts")
    m = max(c1.memory, c2.memory)
    a = max(c1.anticipation, c2.anticipation)
    c1.source.ensure_budget(m + a + 1)
    padded = (_padded(c, m - c.memory, a - c.anticipation) for c in (c1, c2))
    return all(map(np.array_equal, *padded))


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
        """The automorphisms this one is the coordinatewise product of, split
        off the diagrams once by the recorded factors of its shift (no window
        is enumerated) and further when they are products themselves;
        ``(self,)`` when the codes do not factor."""
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
    """Coordinatewise action of two codes on a recorded product shift: the
    product of their diagrams on the common window, nodes pairs of nodes."""
    if prod_shift.product_of is None:
        raise ShiftMismatch("product_code needs a shift built by kronecker_product")
    a_shift, b_shift = prod_shift.product_of
    if left.source != a_shift or right.source != b_shift:
        raise ShiftMismatch("factor codes do not match the recorded factors")
    if left.target != a_shift or right.target != b_shift:
        raise ShiftMismatch("factor codes must be endomorphism-shaped")
    m = max(left.memory, right.memory)
    a = max(left.anticipation, right.anticipation)
    prod_shift.ensure_budget(m + a + 1)
    track_a, track_b, pair_edge = _pair_arrays(prod_shift)
    levels_a = _padded(left, m - left.memory, a - left.anticipation)
    levels_b = _padded(right, m - right.memory, a - right.anticipation)
    nodes_a = nodes_b = np.zeros(1, dtype=np.intp)  # the pair of roots
    tables = []
    for level_a, level_b, size in zip(levels_a, levels_b, map(len, levels_b[1:])):
        child_a = level_a[nodes_a[:, None], track_a]  # a product edge moves each track node
        child_b = level_b[nodes_b[:, None], track_b]
        live = (child_a >= 0) & (child_b >= 0)
        held, ids = _nodes(np.where(live, child_a * size + child_b, -1).reshape(-1, 1))
        nodes_a, nodes_b = np.divmod(held[:, 0], size)
        tables.append(ids[:-1].reshape(live.shape))
    out_a = levels_a[-1][nodes_a[:, None], track_a]
    out_b = levels_b[-1][nodes_b[:, None], track_b]
    tables.append(np.where((out_a >= 0) & (out_b >= 0), pair_edge[out_a, out_b], -1))
    return SlidingBlockCode(prod_shift, prod_shift, m, a, _reduce(tables))


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
    own window [-m, a], the identity read at s (:func:`read_at`); None
    otherwise.  Canonical levels are compared, so no window is enumerated.
    sigma^s reads edge m + s, so D^- <= m + s and D^+ <= a - s; those s are
    tried, least |s| first and then s > 0.  The answer is kept on the code."""
    kept = code.__dict__
    if "_shift_power" not in kept:
        found = None
        if code.source == code.target:
            m, a = code.memory, code.anticipation
            identity = identity_code(code.source)
            candidates = range(max(code.prefix_lcp, 0) - m, a - max(code.suffix_lcp, 0) + 1)
            for s in sorted(candidates, key=lambda s: (abs(s), s < 0)):
                if all(map(np.array_equal, read_at(identity, s, m, a).levels, code.levels)):
                    found = s
                    break
        kept["_shift_power"] = found
    return kept["_shift_power"]


def factor_product_code(code):
    """Split a code on a recorded product shift into track codes.

    Returns (left, right) when the rule acts coordinatewise on some window,
    else None.  Each track is read bottom-up, a node's children (track nodes
    one level down, the track edges of the outputs at the last) gathered by
    track edge; a track edge that leads on pairs with one of the other track
    that does.  So the track is a code iff every gather holds one value.  No
    budget is charged: the code's window was charged when it was built.
    """
    prod = code.source
    if prod.product_of is None or code.target != prod or code.levels[0].max() < 0:
        return None
    factors = []
    for shift, track in zip(prod.product_of, _pair_arrays(prod)):
        levels, below = [], track
        for depth, rows in enumerate(reversed(code.levels)):
            node, edge = np.nonzero(rows >= 0)
            children = below[rows[node, edge]]
            gathered = np.full((len(rows), shift.n_edges), -1, dtype=np.intp)
            gathered[node, track[edge]] = children  # scatter, then compare
            if (gathered[node, track[edge]] != children).any():
                return None
            if depth < code.window - 1:  # the root stays
                gathered, below = _nodes(gathered)
            levels.append(gathered)
        factors.append(SlidingBlockCode(shift, shift, code.memory, code.anticipation, levels[::-1]))
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
