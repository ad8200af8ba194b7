"""How far coding windows propagate under iteration of an automorphism.

For a code psi with memory M and anticipation A', say the half-line
(-inf, 0] *codes* coordinate j when any two points agreeing on (-inf, 0]
have psi-images agreeing at j.  W^- is the largest m such that (-inf, 0]
codes all of (-inf, m]; W^+ is the dual for right half-lines.  Per
coordinate this is decidable from the rule table: group windows by their
content on the agreed side and ask whether any group admits two outputs.

Scans are bracketed by proved inequalities: W^-(n,phi) >= -A'(n) and
W^+(n,phi) <= M(n) come for free from window shapes, and the sum
inequalities W^-(n,phi) + W^-(n,phi^-1) <= 0, W^+(n,phi) + W^+(n,phi^-1)
>= 0 cap the other side.  When a scan exhausts its bracket without finding
an uncoded coordinate, the bracket endpoint is forced exactly.
"""

from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    Automorphism,
    SlidingBlockCode,
    iterates,
    recognized_exponents,
    resolve_budget,
)
from .errors import InternalInvariantViolation, PreconditionFailed
from .shifts import transpose_shift


def _require_scannable(shift):
    if not shift.irreducible:
        raise PreconditionFailed("coding-range analysis needs an irreducible shift")
    if not shift.positive_entropy:
        raise PreconditionFailed("coding-range analysis needs positive entropy")


def coded_minus(code, j):
    """Do points agreeing on (-inf, 0] have images agreeing at coordinate j?"""
    _require_scannable(code.source)
    m, a = code.memory, code.anticipation
    if j + a <= 0:
        return True  # the whole window sits in the agreed half-line
    shift = code.source
    if j - m <= 0:
        # windows sharing their first m - j + 1 edges (the coordinates <= 0)
        # have consecutive ranks; each such block must be constant
        shared = m - j + 1
        for start, cols in shift.ranked_words(code.window):
            out = code.column[start : start + len(cols[0])]
            first = np.arange(start, start + len(out)) - shift.offsets(cols[shared:])
            if not np.array_equal(out, code.column[first]):
                return False
        return True
    # window fully to the right of 0: the two points diverge at coordinate 1
    # from a common state, reaching the window starts by paths of equal length
    reach = np.array(shift.reach_exact(j - m - 1))
    seen = reach @ _presence(code, lambda cols: shift.edge_sources[cols[0]])
    return bool(np.all(seen.sum(axis=1) <= 1))  # one output per common state


def coded_plus(code, j):
    """Dual of :func:`coded_minus` for agreement on [0, +inf)."""
    _require_scannable(code.source)
    m, a = code.memory, code.anticipation
    if j - m >= 0:
        return True
    shift = code.source
    if j + a >= 0:
        # windows sharing their last j + a + 1 edges (the coordinates >= 0):
        # the block of windows sharing the first `free` edges lists every
        # suffix from its end state once, in rank order, so each window must
        # match the window with its suffix in the first block that ends there
        free = code.window - (j + a + 1)
        block = np.full(shift.k, -1, dtype=np.int64)
        for start, cols in shift.ranked_words(code.window):
            out = code.column[start : start + len(cols[0])]
            offsets = shift.offsets(cols[free:])
            states = shift.edge_sources[cols[free]]
            for s in np.flatnonzero(block < 0):
                hits = np.flatnonzero(states == s)
                if hits.size:
                    block[s] = start + hits[0] - offsets[hits[0]]
            if not np.array_equal(out, code.column[block[states] + offsets]):
                return False
        return True
    reach = np.array(shift.reach_exact(-(j + a) - 1))
    seen = reach.T @ _presence(code, lambda cols: shift.edge_targets[cols[-1]])
    return bool(np.all(seen.sum(axis=1) <= 1))


def _presence(code, state_of):
    """k x n_edges booleans: which outputs occur on the windows that
    ``state_of(cols)`` assigns to each state."""
    presence = np.zeros((code.source.k, code.target.n_edges), dtype=bool)
    for start, cols in code.source.ranked_words(code.window):
        presence[state_of(cols), code.column[start : start + len(cols[0])]] = True
    return presence


# -- literal-definition oracles (small systems only; used to guard the
#    grouped implementations in tests).  A group of windows -- the windows
#    that two agreeing points can show around coordinate j -- is coded when
#    every pair in it has the same output.  Equality is transitive, so that
#    holds exactly when every window has its group's first output, which
#    one pass over the rule table decides.  Near 0 a group is a slice on
#    the agreed side; far from 0 it is the windows whose end on that side
#    is reached from one common state, so the pass collects outputs per end
#    state and reach_exact joins them. --


def coded_minus_naive(code, j):
    _require_scannable(code.source)
    m, a = code.memory, code.anticipation
    if j + a <= 0:
        return True
    shift = code.source
    if j - m <= 0:  # the window's edges at coordinates <= 0
        return _one_output_per_group(code, slice(None, m - j + 1))
    reach = shift.reach_exact(j - m - 1)
    return _one_output_per_reach(code, reach, 0, shift.edge_sources.tolist())


def coded_plus_naive(code, j):
    _require_scannable(code.source)
    m, a = code.memory, code.anticipation
    if j - m >= 0:
        return True
    shift = code.source
    if j + a >= 0:  # the window's edges at coordinates >= 0
        return _one_output_per_group(code, slice(m - j, None))
    reach = tuple(zip(*shift.reach_exact(-(j + a) - 1)))  # row s: states reaching s
    return _one_output_per_reach(code, reach, -1, shift.edge_targets.tolist())


def _one_output_per_group(code, agreed):
    """Does every window have the output of the first window with the same
    slice ``agreed``?  Stops at the first one that does not."""
    first = {}
    for w, out in code.rule.items():
        if first.setdefault(w[agreed], out) != out:
            return False
    return True


def _one_output_per_reach(code, reach, end, edge_states):
    """Per row of ``reach``: do the windows whose edge ``end`` is at a state
    (``edge_states``) in the row have at most one output between them?"""
    outputs = [set() for _ in range(code.source.k)]
    for w, out in code.rule.items():
        outputs[edge_states[w[end]]].add(out)
    return all(
        len(set().union(*(outs for outs, hit in zip(outputs, row) if hit))) <= 1
        for row in reach
    )


def _scan_minus(code, start, ceiling):
    for j in range(start, ceiling + 1):
        if not coded_minus(code, j):
            return j - 1
    return ceiling


def _scan_plus(code, start, floor):
    for j in range(start, floor - 1, -1):
        if not coded_plus(code, j):
            return j + 1
    return floor


@dataclass(frozen=True)
class WValues:
    """W^-, W^+ at one power n, for the automorphism and its inverse."""

    n: int
    minus: int
    plus: int
    minus_inv: int
    plus_inv: int


def w_values(auto, n, budget=None, forward=None):
    """Exact W^-(n, phi), W^+(n, phi) and the same for phi^-1.  ``forward``
    is the code of phi^n when the caller has built it already; it is used
    when the automorphism is its own single track."""
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = resolve_budget(budget)
    per_track = []
    for track in _scanned_tracks(auto):
        fwd = forward if track is auto else None
        if fwd is None:
            fwd = track.power(n, budget=budget)
        per_track.append(_scan_w(n, fwd, track.power(-n, budget=budget)))
    return _combined(per_track)


def _scanned_tracks(auto):
    """The tracks whose W values make up the automorphism's.  A half-line
    codes coordinate j of a product iff it codes j on every track, and the
    tracks vary independently, so W^- is the tracks' min and W^+ their max.
    The tracks of an irreducible product are irreducible, so one of zero
    entropy is a single cycle, on which a half-line codes every coordinate:
    it bounds nothing."""
    if len(auto.tracks) == 1:
        return auto.tracks
    _require_scannable(auto.shift)
    return [track for track in auto.tracks if track.shift.positive_entropy]


def _combined(per_track):
    """W values of a product from the same n's values on its tracks."""
    n, minus, plus, minus_inv, plus_inv = zip(*map(astuple, per_track))
    return WValues(n[0], min(minus), max(plus), min(minus_inv), max(plus_inv))


def _scan_w(n, fwd, inv):
    """W values from the codes of phi^n and phi^-n.

    The inverse side is scanned first inside window-derived brackets, then
    the forward side inside the tighter brackets the sum inequalities give.
    """
    m_f, a_f = fwd.memory, fwd.anticipation
    m_i, a_i = inv.memory, inv.anticipation
    wm_i = _scan_minus(inv, -a_i + 1, a_f)
    wp_i = _scan_plus(inv, m_i - 1, -m_f)
    wm_f = _scan_minus(fwd, -a_f + 1, -wm_i)
    wp_f = _scan_plus(fwd, m_f - 1, -wp_i)
    if wm_f + wm_i > 0 or wp_f + wp_i < 0:
        raise InternalInvariantViolation(
            f"sum inequalities failed at n={n}: "
            f"W-=({wm_f},{wm_i}) W+=({wp_f},{wp_i})"
        )
    return WValues(n=n, minus=wm_f, plus=wp_f, minus_inv=wm_i, plus_inv=wp_i)


@dataclass(frozen=True)
class CodingRangeProfile:
    """W^± sequences for phi and phi^-1 at n = 1..n_max, plus the derived
    divergence sequences used by the ray-count bounds."""

    n_max: int
    w_minus: tuple
    w_plus: tuple
    w_minus_inv: tuple
    w_plus_inv: tuple
    a_minus: tuple
    a_plus: tuple

    def at(self, n):
        i = n - 1
        return WValues(
            n=n,
            minus=self.w_minus[i],
            plus=self.w_plus[i],
            minus_inv=self.w_minus_inv[i],
            plus_inv=self.w_plus_inv[i],
        )

    def inverse(self):
        """The profile of phi^-1: the roles of phi and phi^-1 swap."""
        return CodingRangeProfile(
            n_max=self.n_max,
            w_minus=self.w_minus_inv,
            w_plus=self.w_plus_inv,
            w_minus_inv=self.w_minus,
            w_plus_inv=self.w_plus,
            a_minus=self.a_plus,
            a_plus=self.a_minus,
        )


def coding_range_profile(auto, n_max, budget=None):
    """W values at n = 1..n_max, from the tracks' (:func:`_scanned_tracks`).
    Each track walks phi^n and phi^-n in lockstep, so each iterate is built
    once, from the one before, on the track's own shift."""
    budget = resolve_budget(budget)
    walks = []
    for track in _scanned_tracks(auto):
        forward = iterates(track.forward, budget)
        inverse = iterates(track.inverse, budget)
        next(forward), next(inverse)  # phi^0
        walks.append(map(_scan_w, range(1, n_max + 1), forward, inverse))
    vals = [_combined(per_track) for per_track in zip(*walks)]
    wm = tuple(v.minus for v in vals)
    wp = tuple(v.plus for v in vals)
    wmi = tuple(v.minus_inv for v in vals)
    wpi = tuple(v.plus_inv for v in vals)
    # proved shape constraints; failing any is a library bug
    for seq, label, super_add in (
        (wm, "W^-(phi)", True),
        (wmi, "W^-(phi^-1)", True),
        (wp, "W^+(phi)", False),
        (wpi, "W^+(phi^-1)", False),
    ):
        for p in range(1, n_max + 1):
            for q in range(1, n_max + 1 - p):
                lhs = seq[p + q - 1]
                rhs = seq[p - 1] + seq[q - 1]
                if super_add and lhs < rhs:
                    raise InternalInvariantViolation(
                        f"{label} not superadditive at {p}+{q}"
                    )
                if not super_add and lhs > rhs:
                    raise InternalInvariantViolation(
                        f"{label} not subadditive at {p}+{q}"
                    )
    a_minus = tuple(abs(wmi[i]) - wm[i] for i in range(n_max))
    a_plus = tuple(abs(wm[i]) - wmi[i] for i in range(n_max))
    return CodingRangeProfile(
        n_max=n_max,
        w_minus=wm,
        w_plus=wp,
        w_minus_inv=wmi,
        w_plus_inv=wpi,
        a_minus=a_minus,
        a_plus=a_plus,
    )


@dataclass(frozen=True)
class LyapunovBounds:
    """Certified enclosures for the asymptotic coding slopes alpha^±.

    Endpoints are exact rationals.  The generic enclosure is
    alpha^-(phi) in [max_n W^-(n,phi)/n, min_n -W^-(n,phi^-1)/n] (the left
    end by superadditivity, the right end by the sum inequality), and
    dually for alpha^+.  When the rule is recognized exactly as a shift
    power or a product of shift powers, the slopes are exact and the
    enclosure collapses to a point.
    """

    alpha_minus: tuple
    alpha_plus: tuple
    n_minus: tuple
    n_plus: tuple
    method: str
    verdict: str

    def distorted_candidate(self):
        return self.verdict == "consistent-with-distortion"


def _argbest(values, best):
    target = best(values)
    for i, v in enumerate(values):
        if v == target:
            return i + 1, target
    raise AssertionError


def lyapunov_bounds(auto, n_max, profile=None, budget=None):
    if profile is None:
        profile = coding_range_profile(auto, n_max, budget=budget)
    n_max = profile.n_max
    lo_m_n, lo_m = _argbest(
        [Fraction(profile.w_minus[i], i + 1) for i in range(n_max)], max
    )
    hi_m_n, hi_m = _argbest(
        [Fraction(-profile.w_minus_inv[i], i + 1) for i in range(n_max)], min
    )
    lo_p_n, lo_p = _argbest(
        [Fraction(-profile.w_plus_inv[i], i + 1) for i in range(n_max)], max
    )
    hi_p_n, hi_p = _argbest(
        [Fraction(profile.w_plus[i], i + 1) for i in range(n_max)], min
    )
    method = "interval"
    recognized = recognized_exponents(auto)
    if recognized is not None:
        kind, tracks = recognized
        # zero-entropy tracks are left out of W (see _scanned_tracks)
        exps = tuple(s for shift, s in tracks if shift.positive_entropy)
        am = Fraction(min(-s for s in exps))
        ap = Fraction(max(-s for s in exps))
        for i in range(n_max):
            n = i + 1
            ok = (
                profile.w_minus[i] == n * am
                and profile.w_plus[i] == n * ap
                and profile.w_minus_inv[i] == n * min(s for s in exps)
                and profile.w_plus_inv[i] == n * max(s for s in exps)
            )
            if not ok:
                raise InternalInvariantViolation(
                    f"recognized {kind} exponents {exps} contradict W data at n={n}"
                )
        if not (lo_m <= am <= hi_m and lo_p <= ap <= hi_p):
            raise InternalInvariantViolation(
                "exact slopes escape the generic enclosure"
            )
        lo_m = hi_m = am
        lo_p = hi_p = ap
        method = f"exact-{kind}"
    inside_m = lo_m <= 0 <= hi_m
    inside_p = lo_p <= 0 <= hi_p
    verdict = (
        "consistent-with-distortion"
        if inside_m and inside_p
        else "certified-not-distorted"
    )
    return LyapunovBounds(
        alpha_minus=(lo_m, hi_m),
        alpha_plus=(lo_p, hi_p),
        n_minus=(lo_m_n, hi_m_n),
        n_plus=(lo_p_n, hi_p_n),
        method=method,
        verdict=verdict,
    )


def reverse_code(code, tshift=None, bijection=None, budget=None):
    """Conjugate by coordinate reversal: windows reverse, memory and
    anticipation swap, and edges pass through the transpose bijection."""
    if code.source != code.target:
        raise PreconditionFailed("reverse_code needs an endomorphism-shaped code")
    if tshift is None:
        tshift, bijection = transpose_shift(code.source)
    bijection = np.asarray(bijection, dtype=np.intp)
    back = np.argsort(bijection)  # transpose edge -> original edge

    def outputs(cols):
        return bijection[code.outputs(tuple(back[c] for c in reversed(cols)))]

    count = tshift.ensure_budget(code.window, resolve_budget(budget))
    return SlidingBlockCode.tabulated(
        tshift, tshift, code.anticipation, code.memory, count, outputs
    )


def reverse_automorphism(auto):
    """The automorphism seen through x_i -> x_{-i}; returns
    (transpose shift, reversed automorphism, edge bijection)."""
    tshift, bijection = transpose_shift(auto.shift)
    fwd = reverse_code(auto.forward, tshift, bijection)
    inv = reverse_code(auto.inverse, tshift, bijection)
    cert = {"method": "reverse", "base": auto.certificate.get("method")}
    return tshift, Automorphism(fwd, inv, cert), bijection
