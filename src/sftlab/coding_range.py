"""How far coding windows propagate under iteration of an automorphism.

For a code psi with memory m and anticipation a, say the half-line
(-inf, 0] *codes* coordinate j when any two points agreeing on (-inf, 0]
have psi-images agreeing at j.  W^- is the largest j' such that (-inf, 0]
codes all of (-inf, j']; W^+ is the dual for right half-lines.

Both are read off the code's minimal window.  Two paths that share an edge
can be spliced there (Lind-Marcus 2.2), so an output that is a function of
two overlapping parts of the window is a function of their overlap: the
coordinates it reads form one interval [-m*, a*].  Near 0 (-a < j <= m)
(-inf, 0] fixes the first m - j + 1 edges of the window at j, so it codes
j iff m - j + 1 > D^- (:attr:`SlidingBlockCode.prefix_lcp`).  An
automorphism's code codes nothing beyond its window (:func:`window_w`):
W^- = m - max(D^-, 0), and dually W^+ = max(D^+, 0) - a.
"""

from dataclasses import astuple, dataclass
from fractions import Fraction

import numpy as np

from .codes import (
    Automorphism,
    iterates,
    recognized_exponents,
    reverse_code,
)
from .errors import InternalInvariantViolation, PreconditionFailed
from .shifts import transpose_shift


def _require_scannable(shift):
    if not shift.irreducible:
        raise PreconditionFailed("coding-range analysis needs an irreducible shift")
    if not shift.positive_entropy:
        raise PreconditionFailed("coding-range analysis needs positive entropy")


# -- literal-definition oracles (small systems only; they guard window_w in
#    acceptance criterion 12 and in tests).  A group of windows -- the
#    windows that two agreeing points can show around coordinate j -- is
#    coded when every pair in it has the same output (by transitivity: the
#    output of one window of the group).  They read the outputs
#    (SlidingBlockCode.outputs) against the edge columns of every window,
#    chunk by chunk.  Near 0 a group is the windows with one word on the
#    agreed side, keyed by its rank; far from 0, those whose end on that
#    side is reached from one common state. --


def coded_minus_naive(code, j):
    _require_scannable(code.source)
    m, a = code.memory, code.anticipation
    if j + a <= 0:
        return True
    if j - m <= 0:  # the window's edges at coordinates <= 0
        return _one_output_per_group(code, slice(None, m - j + 1))
    return _one_output_per_reach(code, code.source.reach_exact(j - m - 1), 0)


def coded_plus_naive(code, j):
    _require_scannable(code.source)
    m, a = code.memory, code.anticipation
    if j - m >= 0:
        return True
    if j + a >= 0:  # the window's edges at coordinates >= 0
        return _one_output_per_group(code, slice(m - j, None))
    reach = code.source.reach_exact(-(j + a) - 1).T  # row s: states reaching s
    return _one_output_per_reach(code, reach, -1)


def _windows(code):
    """Yield (edge columns, outputs) over the code's windows, chunk by chunk."""
    for _, cols in code.source.ranked_words(code.window):
        yield cols, code.outputs(cols)


def _one_output_per_group(code, agreed):
    """Does every window read back its own output after each has written it
    at the rank of its slice ``agreed`` (rank is injective on words)?"""
    keys, outputs = zip(*((code.source.rank(cols[agreed]), out) for cols, out in _windows(code)))
    keys, outputs = np.concatenate(keys), np.concatenate(outputs)
    written = np.empty(code.source.word_count(len(range(code.window)[agreed])), outputs.dtype)
    written[keys] = outputs
    return np.array_equal(written[keys], outputs)


def _one_output_per_reach(code, reach, end):
    """Per row of ``reach``: do the code's windows whose edge at ``end`` is
    at a state of the row (starts there; for end = -1 ends there) have at
    most one output between them?"""
    edge_states = (code.source.edge_sources, code.source.edge_targets)[end]
    presence = np.zeros((code.source.k, code.target.n_edges), dtype=bool)
    for cols, outputs in _windows(code):
        presence[edge_states[cols[end]], outputs] = True
    return bool(np.all((reach @ presence).sum(axis=1) <= 1))


@dataclass(frozen=True)
class WValues:
    """W^-, W^+ at one power n, for the automorphism and its inverse."""

    n: int
    minus: int
    plus: int
    minus_inv: int
    plus_inv: int


def w_values(auto, n, forward=None):
    """Exact W^-(n, phi), W^+(n, phi) and the same for phi^-1.  ``forward``
    is the code of phi^n when the caller has built it already; it is used
    when the automorphism is its own single track."""
    if n < 1:
        raise ValueError("n must be >= 1")
    per_track = []
    for track in _scanned_tracks(auto):
        fwd = forward if track is auto else None
        if fwd is None:
            fwd = track.power(n)
        per_track.append(_scan_w(n, fwd, track.power(-n)))
    return _combined(per_track)


def _scanned_tracks(auto):
    """The tracks whose W values make up the automorphism's.  A half-line
    codes coordinate j of a product iff it codes j on every track, and the
    tracks vary independently, so W^- is the tracks' min and W^+ their max.
    The tracks of an irreducible product are irreducible, so one of zero
    entropy is a single cycle, on which a half-line codes every coordinate:
    it bounds nothing.  The shift must pass :func:`_require_scannable`, so
    a single track, the automorphism itself, is kept."""
    _require_scannable(auto.shift)
    return [track for track in auto.tracks if track.shift.positive_entropy]


def _combined(per_track):
    """W values of a product from the same n's values on its tracks."""
    n, minus, plus, minus_inv, plus_inv = zip(*map(astuple, per_track))
    return WValues(n[0], min(minus), max(plus), min(minus_inv), max(plus_inv))


def window_w(code):
    """(W^-, W^+) of an automorphism's code of an irreducible shift of
    positive entropy, read off its window: W^- = m - max(D^-, 0), W^+ =
    max(D^+, 0) - a.  For D^- >= 1 that is the first uncoded coordinate
    near 0.  Else (-inf, 0] codes the whole window, but not m + 1.  D^- =
    -1 is a constant code, not onto a shift of positive entropy.  At D^- =
    0 the output is f(x[i - m]) for a map f on edges; each edge lies on a
    point of the irreducible shift, so the code is onto only if f is, and
    then f is a bijection.  Some state has two out-edges, and two points
    that agree on (-inf, 0], reach it at 0 and leave by different edges
    have images that differ at m + 1.  W^+ is the same with a state that
    has two in-edges."""
    return (
        code.memory - max(code.prefix_lcp, 0),
        max(code.suffix_lcp, 0) - code.anticipation,
    )


def _scan_w(n, fwd, inv):
    """W values from the codes of phi^n and phi^-n, each read off its own
    code by :func:`window_w`."""
    (wm_f, wp_f), (wm_i, wp_i) = window_w(fwd), window_w(inv)
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


def coding_range_profile(auto, n_max):
    """W values at n = 1..n_max, from the tracks' (:func:`_scanned_tracks`).
    Each track walks phi^n and phi^-n in lockstep, so each iterate is built
    once, from the one before, on the track's own shift."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    walks = []
    for track in _scanned_tracks(auto):
        forward = iterates(track.forward)
        inverse = iterates(track.inverse)
        next(forward), next(inverse)  # phi^0
        walks.append(map(_scan_w, range(1, n_max + 1), forward, inverse))
    _, wm, wp, wmi, wpi = zip(*(astuple(_combined(t)) for t in zip(*walks)))
    # proved shape constraints; failing any is a library bug
    for seq, label, sign, kind in (
        (wm, "W^-(phi)", 1, "superadditive"),
        (wmi, "W^-(phi^-1)", 1, "superadditive"),
        (wp, "W^+(phi)", -1, "subadditive"),
        (wpi, "W^+(phi^-1)", -1, "subadditive"),
    ):
        for p in range(1, n_max + 1):
            for q in range(1, n_max + 1 - p):
                if sign * (seq[p + q - 1] - seq[p - 1] - seq[q - 1]) < 0:
                    raise InternalInvariantViolation(f"{label} not {kind} at {p}+{q}")
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
    method: str
    verdict: str

    def distorted_candidate(self):
        return self.verdict == "consistent-with-distortion"


def _best_slope(seq, sign, best):
    """The ``best`` of the slopes sign * seq[n - 1] / n."""
    return best(Fraction(sign * w, n) for n, w in enumerate(seq, 1))


def lyapunov_bounds(auto, profile):
    """Slope enclosures for ``auto`` from its coding-range ``profile``."""
    lo_m = _best_slope(profile.w_minus, 1, max)
    hi_m = _best_slope(profile.w_minus_inv, -1, min)
    lo_p = _best_slope(profile.w_plus_inv, -1, max)
    hi_p = _best_slope(profile.w_plus, 1, min)
    method = "interval"
    recognized = recognized_exponents(auto)
    if recognized is not None:
        kind, tracks = recognized
        # zero-entropy tracks are left out of W (see _scanned_tracks)
        exps = tuple(s for shift, s in tracks if shift.positive_entropy)
        am = Fraction(min(-s for s in exps))
        ap = Fraction(max(-s for s in exps))
        for n in range(1, profile.n_max + 1):
            if profile.at(n) != WValues(n, n * am, n * ap, n * min(exps), n * max(exps)):
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
        method=method,
        verdict=verdict,
    )


def reverse_automorphism(auto):
    """The automorphism seen through x_i -> x_{-i}; returns
    (transpose shift, reversed automorphism, edge bijection)."""
    tshift, bijection = transpose_shift(auto.shift)
    fwd = reverse_code(auto.forward)
    inv = reverse_code(auto.inverse)
    cert = {"method": "reverse", "base": auto.certificate.get("method")}
    return tshift, Automorphism(fwd, inv, cert), bijection
