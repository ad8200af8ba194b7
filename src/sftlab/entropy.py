"""Desk-scale entropy estimation for automorphisms.

Three instruments: a spacetime column census (how many distinct space-time
columns of width 2w+1 appear over n iterates), the iterate-window counter
used by the measure-growth argument, and invariant-subsystem restriction,
which transfers exactly computable entropies as certified lower bounds.
Both counts walk a product of the iterates' diagrams, enumerating no word;
estimates are heuristic unless the rule is a recognized (product of) shift
power(s) or the value rides on a certified invariant subsystem.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codes import (
    SlidingBlockCode,
    _index_dtype,
    _sorted_rows,
    iterates,
    pad_code,
    recognized_exponents,
    shift_power_of,
    verify_automorphism,
)
from .errors import NilpotentMatrix, NotInvariant, ZeroMatrix
from .records import CheckRecord
from .shifts import WORD_CHUNK, _pattern_power, build_edge_shift, count_words, perron_data


@dataclass(frozen=True)
class ColumnCensus:
    """Distinct tuples (x|[-w,w], phi(x)|[-w,w], ..., phi^{n-1}(x)|[-w,w])."""

    w: int
    n: int
    count: int
    estimate: float
    certified: bool
    method: str


def column_census(auto, w, n):
    """Census of spacetime columns.  The columns of a coordinatewise product
    are the pairs of its tracks' columns, so the count is the product of
    the tracks' counts.  A track whose rule is a shift power is counted by
    closed form (its windows, overlapping, reveal a word of the track's
    shift), any other by an exact count over the dependence window."""
    if w < 0 or n < 1:
        raise ValueError("need w >= 0 and n >= 1")
    _require_points(auto.shift)
    count, certified = 1, True
    for track in auto.tracks:
        s = shift_power_of(track.forward)
        if s is not None and abs(s) <= 2 * w + 1:
            count *= count_words(track.shift, 2 * w + 1 + abs(s) * (n - 1))
        else:
            count *= _distinct_windows(track, n, 2 * w + 1, True)
            certified = False
    return ColumnCensus(
        w=w,
        n=n,
        count=count,
        estimate=math.log(count) / n,
        certified=certified,
        method="product-form" if certified else "enumeration",
    )


def _require_points(shift):
    """Refuse a shift whose words die out: with A^k = 0 there are no
    points, so no columns or windows to count."""
    if count_words(shift, shift.k) == 0:
        raise NilpotentMatrix("A^k = 0; the shift has no points")


def _distinct_windows(auto, count, width, ordered):
    """Number of distinct collections of iterate windows phi^i(y)|[k,
    k+width-1], i < count, over all points y, as tuples or as sets; k does
    not change it.  phi^i padded by s = (count-1-i)m + p in front outputs
    window position p over a prefix of a word of width + (count-1)(m+a)
    edges.  The count·width diagrams are walked as one product (Bryant
    1986), an edge per level: a state is each iterate's rank of its outputs
    so far (EdgeShift.rank's terms, one per edge) and a node of each diagram
    still reading.  The last reads the whole word, so equal states merge."""
    shift, phi = auto.shift, auto.forward
    length = width + (count - 1) * (phi.memory + phi.anticipation)
    shift.ensure_budget(length)
    gains = [shift._rank_tables(width)[width - 1 - p][p > 0] for p in range(width)]
    diagrams = [  # (levels, iterate, window position)
        (pad_code(code, (count - 1 - i) * phi.memory + p).levels, i, p)
        for i, code in zip(range(count), iterates(phi)) for p in range(width)
    ]
    sizes = (len(level) for levels, _, _ in diagrams for level in levels)
    dtype = _index_dtype(max(shift.n_edges, shift.word_count(width), *sizes))
    states = np.zeros((count + len(diagrams), 1), dtype=dtype)  # a column per state
    for depth in range(length):
        reading = [d for d in diagrams if len(d[0]) > depth]
        kept = [*range(count), *(count + j for j, d in enumerate(reading) if len(d[0]) > depth + 1)]
        found = []
        for first in range(0, states.shape[1], WORD_CHUNK):  # each chunk deduplicated
            chunk = states[:, first : first + WORD_CHUNK]
            rows = np.repeat(chunk[:, :, None], shift.n_edges, axis=2)  # ranks carry over
            for row, nodes, (levels, i, p) in zip(rows[count:], chunk[count:], reading):
                np.take(levels[depth], nodes, axis=0, out=row)
                if len(levels) == depth + 1:  # row holds the output edges at position p
                    rows[i] += gains[p][row].astype(dtype)
            rows = rows.reshape(len(rows), -1)
            found.append(_distinct_columns(rows[kept][:, rows.min(axis=0) >= 0]))  # drop the dead
        states = _distinct_columns(np.concatenate(found, axis=1)) if len(found) > 1 else found[0]
    if not ordered:  # a set of windows: its sorted distinct ranks, padded in front with -1
        states.sort(axis=0)
        states[1:][states[1:] == states[:-1]] = -1
        states = _distinct_columns(np.sort(states, axis=0))
    return states.shape[1]


def _distinct_columns(states):
    """The distinct columns of a 2-d array, in lexicographic order."""
    order, starts = _sorted_rows(states.T)
    return states[:, order[starts]]


def c_phi_count(auto, n):
    """Number of distinct collections (sets) of iterate windows
    phi^i(y)|[k, k+2r+1], i = 0..n, with r the coding range of the forward
    rule; k does not change the count."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _require_points(auto.shift)
    r = max(auto.forward.memory, auto.forward.anticipation)
    return _distinct_windows(auto, n + 1, 2 * r + 2, False)


def c_phi_diagnostic(auto, n, action):
    """Finite-n growth rate of the iterate-window count (lhs) next to the
    measure multiplier's log (rhs); finite n can land on either side, so
    this only flags."""
    if n < 1:
        raise ValueError("n must be >= 1")
    card = c_phi_count(auto, n)
    return CheckRecord(
        "iterate-window-growth",
        "Inconclusive",
        math.log(card) / n,
        math.log(action.lambda_phi),
        detail=f"card={card} at n={n}",
    )


def _prune_states(k, edges, allowed):
    """States on a bi-infinite path of allowed edges, in ascending order:
    those with a path of k allowed edges out and one in, since such a path
    repeats a state and so reaches a cycle."""
    m = np.zeros((k, k), dtype=bool)
    for e in allowed:
        s, t, _ = edges[e]
        m[s, t] = True
    pattern = _pattern_power(m, k)
    alive = np.flatnonzero(pattern.any(axis=1) & pattern.any(axis=0)).tolist()
    if not alive:
        raise ZeroMatrix("no states survive the restriction")
    return alive


def restrict_code_to_subsystem(code, allowed_edges):
    """Restrict a sliding block code to the edge shift on a subset of edges.

    Every admissible window of the restricted shift must output an allowed
    edge; the first failing window in rank order is the NotInvariant
    witness.
    """
    sub, (restricted,), to_sub = _restrict(allowed_edges, code)
    return sub, restricted, to_sub


def _restrict(allowed_edges, *codes):
    """Codes on one shift, restricted onto one subsystem shift."""
    shift = codes[0].source
    allowed = tuple(sorted(set(allowed_edges)))
    states = _prune_states(shift.k, shift.edges, allowed)
    state_of = {s: i for i, s in enumerate(states)}
    kept = [e for e in allowed if shift.source(e) in state_of and shift.target(e) in state_of]
    matrix = [[0] * len(states) for _ in states]
    for e in kept:
        matrix[state_of[shift.source(e)]][state_of[shift.target(e)]] += 1
    sub = build_edge_shift(matrix)
    # renumbering keeps the order of the surviving states, so the kept edges
    # in index order are the subsystem's edges in canonical order
    to_sub = {e: i for i, e in enumerate(kept)}
    to_orig = np.array(kept, dtype=np.intp)  # sub edge -> edge
    into_sub = np.full(shift.n_edges, -1, dtype=np.intp)  # edge -> sub edge or -1
    into_sub[to_orig] = np.arange(sub.n_edges)
    restricted = []
    for code in codes:
        column = np.empty(sub.word_count(code.window), dtype=_index_dtype(sub.n_edges))
        for start, cols in sub.ranked_words(code.window):
            windows = tuple(to_orig[c] for c in cols)
            out = code.outputs(windows)
            mapped = into_sub[out]
            bad = np.flatnonzero(mapped < 0)
            if bad.size:
                i = bad[0]
                raise NotInvariant(tuple(int(c[i]) for c in windows), int(out[i]))
            column[start : start + len(out)] = mapped
        m, a = code.memory, code.anticipation
        restricted.append(SlidingBlockCode.from_column(sub, sub, m, a, column, check=True))
    return sub, restricted, to_sub


def restrict_to_subsystem(auto, allowed_edges):
    """Restriction of a certified automorphism to an invariant edge subset;
    both directions must keep the subset invariant."""
    sub, (fwd, inv), _ = _restrict(allowed_edges, auto.forward, auto.inverse)
    return sub, verify_automorphism(fwd, inv)


def exact_entropy_of(auto):
    """Exact h_top of the automorphism when every track's rule is a shift
    power: entropies of tracks add, and h(sigma^s) = |s| h(sigma); None
    otherwise."""
    recognized = recognized_exponents(auto)
    if recognized is None:
        return None
    return sum(abs(s) * perron_data(track).entropy for track, s in recognized[1])
