"""Verification suites and machine-readable reports.

Every check lands in a :class:`CheckRecord` with a status from the fixed
vocabulary {Confirmed, Consistent, Inconclusive, Violated, NotStrict,
Indeterminate}; a suite is a named list of records wrapped in a
:class:`Report`.  All logarithms are natural (nats), stated in every report
header.  Reports are deterministic given identical inputs -- byte-identical
once ``runtime_ms`` is masked, which is the one wall-clock field.

The acceptance suite is the package's contract: each criterion is a
standalone function usable from the test suite, and `run_suite("acceptance")`
executes them all.
"""

from __future__ import annotations

import json
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction

from . import ratmat
from .builtins import (
    DEFAULT_SUITE,
    FIVE_SYMBOL_COMPLETIONS,
    five_symbol_code,
    five_symbol_no_wall_edges,
    make_builtin,
    shift_builtin,
)
from .codes import (
    automorphism_power,
    codes_equal,
    identity_code,
    infer_inverse,
    pad_code,
    read_at,
    SlidingBlockCode,
)
from .coding_range import (
    coded_minus_naive,
    coded_plus_naive,
    coding_range_profile,
    lyapunov_bounds,
    reverse_automorphism,
    window_w,
)
from .dimension import (
    Beam,
    apply_automorphism_to_ray,
    canonical_zero_ray,
    dimension_matrix,
    distortion_spectrum_check,
    refine_ray,
    theta,
    unstable_measure,
    verify_entropy_bound,
    verify_main_bounds,
)
from .entropy import (
    c_phi_diagnostic,
    column_census,
    exact_entropy_of,
    restrict_code_to_subsystem,
)
from .errors import NotInvertibleWithin
from .records import CheckRecord, _json_value, format_fraction
from .shifts import DEFAULT_TOL, build_edge_shift, count_words, dimension_data, perron_data
from .shifts import kronecker_product, resolve_budget, window_budget
from .spectra import (
    IntPolynomial,
    check_conditions,
    search_primitive_realization,
    verify_eb_failure,
)

GOLDEN_RATIO = (1 + math.sqrt(5)) / 2

SUITE_NAMES = ("acceptance", "theorem-3", "theorem-4", "spectra", "profile")


# -- records and reports ------------------------------------------------------


@dataclass
class Report:
    suite: str
    records: list
    tol: float
    budget: int
    options: dict = field(default_factory=dict)
    payload: dict = field(default_factory=dict)

    @property
    def exit_code(self):
        return 1 if any(r.status == "Violated" for r in self.records) else 0

    def counts(self):
        return dict(sorted(Counter(r.status for r in self.records).items()))

    def to_dict(self, mask_runtime=False):
        records = [r.to_dict() for r in self.records]
        if mask_runtime:
            for r in records:
                r["runtime_ms"] = None
        doc = {
            "suite": self.suite,
            "log_base": "nats",
            "tol": self.tol,
            "budget": self.budget,
            "options": {k: _json_value(v) for k, v in sorted(self.options.items())},
            "records": records,
            "summary": {"total": len(self.records), **self.counts()},
            "exit_code": self.exit_code,
        }
        if self.payload:
            doc["payload"] = _json_value(self.payload)
        return doc

    def to_json(self, mask_runtime=False):
        return json.dumps(self.to_dict(mask_runtime=mask_runtime), indent=2, sort_keys=True)

    def render(self):
        lines = [
            f"suite: {self.suite}   logs: nats   tol: {self.tol:g}   budget: {self.budget}"
        ]
        lines.append(f"{'check':44} {'status':13} {'lhs':>16} {'rhs':>16}")
        for r in self.records:
            lines.append(
                f"{r.name:44} {r.status:13} {_cell(r.lhs):>16} {_cell(r.rhs):>16}"
            )
        summary = ", ".join(f"{k}: {v}" for k, v in self.counts().items())
        lines.append(f"summary: {len(self.records)} checks -- {summary}")
        lines.append(f"exit code: {self.exit_code}")
        return "\n".join(lines)


def _cell(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, Fraction):
        return format_fraction(value)
    text = str(value)
    return text if len(text) <= 16 else text[:13] + "..."


class Recorder:
    """Collects records, stamping each with the wall time since the last."""

    def __init__(self):
        self.records = []
        self._mark = time.perf_counter()

    def adopt(self, record, **changes):
        """Keep a verifier's record, re-named or re-statused by ``changes``."""
        now = time.perf_counter()
        record = replace(record, runtime_ms=(now - self._mark) * 1000.0, **changes)
        self._mark = now
        self.records.append(record)
        return record

    def add(self, name, status, lhs=None, rhs=None, tol=None, detail=""):
        return self.adopt(CheckRecord(name, status, lhs, rhs, tol, detail=detail))

    def exact(self, name, ok, lhs=None, rhs=None, detail=""):
        return self.add(name, "Confirmed" if ok else "Violated", lhs, rhs, 0, detail)

    def none_of(self, name, failed, cases, detail=""):
        """Confirmed iff ``failed`` is empty; the lhs counts its ``cases``."""
        return self.exact(name, not failed, f"{len(failed)} {cases}", "0", detail)

    def close(self, name, lhs, rhs, tol, detail=""):
        ok = abs(lhs - rhs) <= tol
        return self.add(
            name, "Confirmed" if ok else "Violated", float(lhs), float(rhs), tol, detail
        )


# -- the builtins of one run --------------------------------------------------


#: The run shift that a DEFAULT_SUITE builtin lives on, where not full_2.
_SUITE_SHIFTS = {
    "vertex_swap_B": "vertex_swap_B",
    "tau_golden": "golden_mean_product",
    "sigma_x_sigma_inv": "full_2_product",
    "five_symbol": "full_5",
}


def _run_builtins():
    """The shifts of one run by name, the products on the run's own factors,
    and the DEFAULT_SUITE builtins on them by name, as (shift, auto, action):
    each built once, the same objects handed to each of the run's criteria."""
    shifts = {
        name: shift_builtin(name)
        for name in ("golden_mean", "full_2", "full_3", "full_5", "vertex_swap_B")
    }
    shifts["full_4"] = build_edge_shift([[4]])
    for name in ("golden_mean", "full_2"):
        shifts[f"{name}_product"] = kronecker_product(shifts[name], shifts[name])
    built = {}
    for name, params in DEFAULT_SUITE:
        shift = shifts[_SUITE_SHIFTS.get(name, "full_2")]
        _, auto = make_builtin(name, dict(params), shift)
        built[name] = (shift, auto, dimension_matrix(auto))
    return shifts, built


# -- acceptance criteria ------------------------------------------------------
#
# Each criterion takes a Recorder, the verdict tolerance and the run's
# shifts and builtins (see _run_builtins).


def _criterion_golden_entropy(rec, tol, shifts, built):
    shift = shifts["golden_mean"]
    perron = perron_data(shift)
    rec.close("entropy", perron.entropy, math.log(GOLDEN_RATIO), 1e-9)
    p0, p2 = count_words(shift, 0), count_words(shift, 2)
    rec.exact("word-counts", p0 == 1 and p2 == 5, lhs=f"P(0)={p0}, P(2)={p2}", rhs="1, 5")


def _criterion_shift_sharpness(rec, tol, shifts, built):
    shift, auto, action = built["shift"]
    profile = coding_range_profile(auto, 4)
    expect = (-1, -2, -3, -4)
    rec.exact(
        "w-values",
        profile.w_minus == expect and profile.w_plus == expect,
        lhs=f"W-={profile.w_minus} W+={profile.w_plus}",
        rhs="both (-1,-2,-3,-4)",
    )
    bounds = lyapunov_bounds(auto, profile)
    rec.exact(
        "alpha-intervals",
        bounds.alpha_minus == (-1, -1) and bounds.alpha_plus == (-1, -1),
        lhs=f"{_interval_text(bounds.alpha_minus)} {_interval_text(bounds.alpha_plus)}",
        rhs="[-1,-1] twice",
    )
    rec.close("lambda-phi", action.lambda_phi, 2.0, 1e-9)
    rec.close("rho-S-phi", action.rho, 2.0, 1e-9)
    bound, _ = verify_main_bounds(auto, profile, action, tol=tol)
    sharp = bound.status == "Confirmed" and abs(bound.lhs) <= 1e-9
    rec.adopt(
        bound,
        name="main-bounds-sharp",
        status="Confirmed" if sharp else "Violated",
        rhs=0.0,
        tol=1e-9,
        detail=f"verify_main_bounds: {bound.status}",
    )


def _criterion_tau_example(rec, tol, shifts, built):
    shift, auto, action = built["tau_golden"]
    profile = coding_range_profile(auto, 4)
    bounds = lyapunov_bounds(auto, profile)
    bounds_inv = lyapunov_bounds(auto.inverse_automorphism(), profile.inverse())
    rec.exact(
        "alpha-minus-tau",
        bounds.alpha_minus == (0, 0),
        lhs=_interval_text(bounds.alpha_minus),
        rhs="[0,0]",
    )
    rec.exact(
        "alpha-minus-tau-inverse",
        bounds_inv.alpha_minus == (-1, -1),
        lhs=_interval_text(bounds_inv.alpha_minus),
        rhs="[-1,-1]",
    )
    rec.close("log-rho-vs-entropy", math.log(action.rho), math.log(GOLDEN_RATIO), 1e-6)
    bound, _ = verify_main_bounds(auto, profile, action, tol=tol)
    rec.adopt(
        bound,
        status="Confirmed" if bound.status == "Confirmed" else "Violated",
        detail=f"verify_main_bounds: {bound.status}",
    )


def _criterion_product_entropy(rec, tol, shifts, built):
    shift, auto, action = built["sigma_x_sigma_inv"]
    rec.close("lambda-phi", action.lambda_phi, 1.0, 1e-9)
    census = column_census(auto, 2, 6)
    rec.add(
        "column-census",
        "Confirmed" if census.estimate >= math.log(4) - 1e-9 else "Violated",
        census.estimate,
        math.log(4),
        1e-9,
        detail=f"count={census.count} method={census.method} certified={census.certified}",
    )
    entropy = exact_entropy_of(auto)
    rec.adopt(
        verify_entropy_bound(entropy, action, tol=tol),
        detail=f"exact h_top = {entropy:.6f}",
    )


def _criterion_vertex_swap(rec, tol, shifts, built):
    shift, auto, action = built["vertex_swap_B"]
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    rec.exact("S-phi", action.S_phi == swap, lhs=_matrix_text(action.S_phi), rhs="[[0,1],[1,0]]")
    square = ratmat.mat_mul(action.S_phi, action.S_phi)
    rec.exact("S-phi-squared", square == ratmat.identity(2), lhs=_matrix_text(square), rhs="I")
    rec.exact("not-inert", action.inert is False, lhs=str(action.inert), rhs="False")
    rec.close("lambda-phi", action.lambda_phi, 1.0, 1e-9)
    spectrum = distortion_spectrum_check(action, tol=tol)
    rec.adopt(
        spectrum,
        name="unit-circle-spectrum",
        status="Confirmed" if spectrum.lhs <= tol else "Violated",
        tol=0,
    )


def _criterion_sum_and_reverse(rec, tol, shifts, built):
    bad_sum, bad_rev, total = [], [], 0
    for name, (shift, auto, _) in built.items():
        _tshift, rev, _bij = reverse_automorphism(auto)
        profile = coding_range_profile(auto, 3)
        profile_rev = coding_range_profile(rev, 3)
        for n in (1, 2, 3):
            wv = profile.at(n)
            wr = profile_rev.at(n)
            total += 1
            if wv.minus + wv.minus_inv > 0 or wv.plus + wv.plus_inv < 0:
                bad_sum.append((name, n))
            if wr.minus != -wv.plus:
                bad_rev.append((name, n, wr.minus, -wv.plus))
    rec.none_of("sum-inequalities", bad_sum, "violations", detail=f"{total} (builtin, n) pairs")
    rec.none_of("reverse-identity", bad_rev, "violations", detail="W^-(n, reverse) = -W^+(n, phi)")


def _criterion_cubic(rec, tol, shifts, built):
    poly = IntPolynomial([1, -5, -6, 1])
    report = check_conditions(poly, tol=tol)
    traces = report.traces  # they do not depend on tol
    rec.exact(
        "power-traces",
        traces[0] == 5 and traces[1] == 37,
        lhs=f"tr1={traces[0]}, tr2={traces[1]}",
        rhs="5, 37",
    )
    rec.exact(
        "net-trace-n2", report.net_traces[1] == 32, lhs=report.net_traces[1], rhs=32
    )
    rec.exact(
        "conditions",
        report.all_ok and 5.9 < report.lambda_dominant < 6.0,
        lhs=f"lambda_d={report.lambda_dominant:.6f}, 1/min={1 / report.min_modulus:.6f}",
        rhs="dominant in (5.9, 6.0); reciprocal above it",
    )
    matrix = search_primitive_realization(poly)
    if matrix is None:
        rec.add("realization", "Inconclusive", detail="search exhausted")
        return
    rec.exact(
        "realization",
        ratmat.char_poly(matrix) == [1, -5, -6, 1],
        lhs=str(matrix),
        rhs="char poly t^3-5t^2-6t+1",
    )
    verdict = verify_eb_failure(matrix, tol=tol)
    ok = verdict["status"] == "Confirmed" and verdict["gap"] > 0
    rec.add(
        "entropy-bound-failure",
        "Confirmed" if ok else "Violated",
        verdict["lhs"],
        verdict["rhs"],
        tol,
        detail=f"gap={verdict['gap']:.6f}",
    )


def _criterion_functoriality(rec, tol, shifts, built):
    bad_sq, bad_inv, bad_comm, bad_theta = [], [], [], []
    for name, (shift, auto, action) in built.items():
        squared = automorphism_power(auto, 2)
        s_sq = dimension_matrix(squared).S_phi
        if s_sq != ratmat.mat_mul(action.S_phi, action.S_phi):
            bad_sq.append(name)
        s_inv = dimension_matrix(auto.inverse_automorphism()).S_phi
        if s_inv != ratmat.inverse(action.S_phi):
            bad_inv.append(name)
        delta = dimension_data(shift).delta_restricted
        if ratmat.mat_mul(action.S_phi, delta) != ratmat.mat_mul(delta, action.S_phi):
            bad_comm.append(name)
        ray = canonical_zero_ray(shift, 0)
        base = theta(Beam(level=0, rays=(ray,)))
        for depth in range(1, 5):
            if theta(refine_ray(ray, depth)) != base:
                bad_theta.append((name, depth))
    rec.none_of("S-of-square", bad_sq, "mismatches")
    rec.none_of("S-of-inverse", bad_inv, "mismatches")
    rec.none_of("delta-commutation", bad_comm, "mismatches")
    rec.none_of(
        "theta-level-independence", bad_theta, "mismatches", detail="refinement depths 1..4"
    )


def _criterion_measure_coherence(rec, tol, shifts, built):
    bad_scale, bad_pair, total = [], [], 0
    for name, (shift, auto, action) in built.items():
        v_right = perron_data(shift).v_right
        for state in range(shift.k):
            ray = canonical_zero_ray(shift, state)
            beam = Beam(level=0, rays=(ray,))
            base = unstable_measure(beam)
            image = apply_automorphism_to_ray(auto, ray)
            scaled = unstable_measure(image)
            total += 1
            if abs(scaled / base - action.lambda_phi) > 1e-6:
                bad_scale.append((name, state))
            for b in (beam, image):
                row = theta(b)
                paired = sum(float(row[i]) * v_right[i] for i in range(shift.k))
                if abs(paired - unstable_measure(b)) > 1e-9:
                    bad_pair.append((name, state))
    rec.none_of(
        "measure-scaling", bad_scale, "violations", detail=f"{total} canonical rays, tol 1e-6"
    )
    rec.none_of(
        "theta-pairing", bad_pair, "violations", detail="measure = theta . v_right, tol 1e-9"
    )


def _criterion_five_symbol(rec, tol, shifts, built):
    _, sigma_pair, _ = built["sigma_x_sigma_inv"]
    reference = sigma_pair.forward
    no_wall = five_symbol_no_wall_edges()
    bad = []
    certified = []
    for completion in sorted(FIVE_SYMBOL_COMPLETIONS):
        _, code = five_symbol_code(completion, shifts["full_5"])
        sub, restricted, _ = restrict_code_to_subsystem(code, no_wall)
        if sub.matrix != ((4,),) or not codes_equal(restricted, reference):
            bad.append(completion)
        try:
            infer_inverse(code, r_max=3)
            certified.append(completion)
        except NotInvertibleWithin:
            pass
    rec.none_of(
        "no-wall-restriction",
        bad,
        "completions differ",
        detail="restriction equals the paired shift/inverse-shift product",
    )
    entropy = exact_entropy_of(sigma_pair)
    rec.close("certified-lower-bound", entropy, math.log(4), 1e-12)
    rec.add(
        "completion-certification",
        "Consistent",
        lhs=", ".join(certified) if certified else "none",
        detail="completions whose full rule certifies as an automorphism (recorded, not asserted)",
    )


def _criterion_unit_circle(rec, tol, shifts, built):
    for name in ("identity", "vertex_swap_B"):
        shift, auto, action = built[name]
        bounds = lyapunov_bounds(auto, coding_range_profile(auto, 3))
        zero = (0, 0)
        rec.exact(
            f"{name}/alpha-zero",
            bounds.alpha_minus == zero and bounds.alpha_plus == zero,
            lhs=f"{_interval_text(bounds.alpha_minus)} {_interval_text(bounds.alpha_plus)}",
            rhs="[0,0] twice",
        )
        spectrum = distortion_spectrum_check(action, tol=1e-9)
        rec.adopt(
            spectrum,
            name=f"{name}/unit-circle",
            status="Confirmed" if spectrum.lhs <= 1e-9 else "Violated",
            tol=0,
            detail="max | |eig S_phi| - 1 |",
        )


def _random_code(rng, shift):
    """A random certified-valid sliding block code with window <= 7 on
    ``shift``: the identity or, on one state, a drawn symbol permutation,
    read at r (:func:`read_at`) for r in -3..3, on one state possibly at
    r + r2 for r2 in +-1, +-2 on a window wider by |r2| (the code composed
    with sigma^r2), then possibly padded.  Read at r, the identity is
    sigma^r on its window [-max(-r, 0), max(r, 0)]."""
    code = identity_code(shift)
    kind = rng.randrange(4)
    r = 0
    if kind == 1:
        r = rng.randint(1, 3)
    elif kind == 2:
        r = -rng.randint(1, 3)
    elif kind == 3 and shift.k == 1:
        perm = list(range(shift.n_edges))
        rng.shuffle(perm)
        code = SlidingBlockCode.from_column(shift, shift, 0, 0, perm)
    memory, anticipation = max(-r, 0), max(r, 0)
    if rng.random() < 0.5 and shift.k == 1:
        sign = 1 if rng.random() < 0.5 else -1
        r2 = sign * rng.randint(1, 2)
        r += r2
        memory, anticipation = memory + max(-r2, 0), anticipation + max(r2, 0)
    code = read_at(code, r, memory, anticipation)
    room = 7 - code.window
    if room > 0 and rng.random() < 0.6:
        code = pad_code(
            code,
            extra_memory=rng.randint(0, min(2, room)),
            extra_anticipation=rng.randint(0, max(0, min(2, room - 2))),
        )
    return code


def _criterion_oracle_equivalence(rec, tol, shifts, built):
    rng = random.Random(20260823)
    pool = [shifts[name] for name in ("full_2", "full_3", "full_4", "golden_mean")]
    mismatches = 0
    cases = 500
    for _ in range(cases):
        code = _random_code(rng, pool[rng.randrange(len(pool))])
        j = rng.randint(-5, 5)
        minus, plus = window_w(code)
        mismatches += coded_minus_naive(code, j) != (j <= minus)
        mismatches += coded_plus_naive(code, j) != (j >= plus)
    rec.exact(
        "coded-vs-naive",
        mismatches == 0,
        lhs=f"{mismatches} discrepancies",
        rhs="0",
        detail=f"{cases} randomized (code, j) cases, seeded",
    )


#: (criterion id, title, function) in acceptance order.
ACCEPTANCE_CRITERIA = (
    ("01-golden-entropy", "Golden mean entropy and word counts", _criterion_golden_entropy),
    ("02-shift-sharpness", "Shift coding ranges and sharp bounds", _criterion_shift_sharpness),
    ("03-tau-example", "Identity-times-inverse-shift slopes and rho", _criterion_tau_example),
    ("04-product-entropy", "Shift-times-inverse-shift census and bound", _criterion_product_entropy),
    ("05-vertex-swap", "Order-two non-inert action", _criterion_vertex_swap),
    ("06-sum-reverse", "Sum inequalities and reverse identity", _criterion_sum_and_reverse),
    ("07-cubic-witness", "Cubic spectrum conditions and failure witness", _criterion_cubic),
    ("08-functoriality", "Dimension action functoriality", _criterion_functoriality),
    ("09-measure-coherence", "Unstable measure scaling and pairing", _criterion_measure_coherence),
    ("10-five-symbol", "Five-symbol no-wall restriction", _criterion_five_symbol),
    ("11-unit-circle", "Distortion forces unit-circle spectrum", _criterion_unit_circle),
    ("12-oracle-equivalence", "W read off the window vs naive oracle", _criterion_oracle_equivalence),
)


def run_criterion(cid, tol=DEFAULT_TOL):
    """Records for one acceptance criterion, names prefixed with its id."""
    table = {c: fn for c, _, fn in ACCEPTANCE_CRITERIA}
    return _criterion_records(cid, table[cid], tol, _run_builtins())


def _criterion_records(cid, fn, tol, run):
    rec = Recorder()
    fn(rec, tol, *run)
    return [replace(r, name=f"{cid}/{r.name}") for r in rec.records]


# -- suites -------------------------------------------------------------------


def _suite_acceptance(options):
    tol = options.get("tol", DEFAULT_TOL)
    run = _run_builtins()
    records = []
    for cid, _, fn in ACCEPTANCE_CRITERIA:
        records.extend(_criterion_records(cid, fn, tol, run))
    return records, {}


def _suite_theorem_3(options):
    tol = options.get("tol", DEFAULT_TOL)
    shifts, built = _run_builtins()
    rec = Recorder()
    for name, (shift, auto, action) in built.items():
        entropy = exact_entropy_of(auto)
        if entropy is not None:
            rec.adopt(
                verify_entropy_bound(entropy, action, tol=tol),
                name=f"entropy-bound/{name}",
                detail=f"exact h_top={entropy:.6f}",
            )
        else:
            diag = c_phi_diagnostic(auto, 2, action)
            rec.adopt(
                diag,
                name=f"iterate-windows/{name}",
                detail=f"{diag.detail} (no certified entropy)",
            )
    _criterion_five_symbol(rec, tol, shifts, built)
    _criterion_cubic(rec, tol, shifts, built)
    return rec.records, {}


def _suite_theorem_4(options):
    tol = options.get("tol", DEFAULT_TOL)
    n_max = options.get("n_max", 3)
    shifts, built = _run_builtins()
    rec = Recorder()
    for name, (shift, auto, action) in built.items():
        profile = coding_range_profile(auto, n_max)
        bound, _ = verify_main_bounds(auto, profile, action, tol=tol)
        rec.adopt(
            bound,
            name=f"main-bounds/{name}",
            detail=f"{bound.detail}, n_max={n_max}",
        )
    _criterion_sum_and_reverse(rec, tol, shifts, built)
    _criterion_unit_circle(rec, tol, shifts, built)
    return rec.records, {}


def _suite_spectra(options):
    tol = options.get("tol", DEFAULT_TOL)
    poly = IntPolynomial(options.get("poly", [1, -5, -6, 1]))
    n_max = options.get("N", 12)
    rec = Recorder()
    report = check_conditions(poly, n_max=n_max, tol=tol)

    def condition_status(ok, name):
        if name in report.indeterminate:
            return "Indeterminate"
        return "Confirmed" if ok else "Violated"

    rec.add(
        "condition-dominant-root",
        condition_status(report.perron_ok, "perron"),
        report.lambda_dominant,
        None,
        tol,
        detail=f"margin {report.dominance_margin:.3g}",
    )
    rec.add(
        "condition-net-traces",
        "Confirmed" if report.net_trace_ok else "Violated",
        f"n<={report.n_checked}",
        ">= 0",
        0,
        detail=f"first values {report.net_traces[:4]}",
    )
    rec.add(
        "condition-reciprocal",
        condition_status(report.reciprocal_ok, "reciprocal"),
        1.0 / report.min_modulus,
        report.lambda_dominant,
        tol,
        detail=f"min-modulus root {report.min_modulus:.6f}",
    )
    payload = {"conditions": _conditions_payload(report)}
    if options.get("search", True) and report.perron_ok and report.net_trace_ok:
        matrix = search_primitive_realization(poly)
        if matrix is None:
            rec.add("realization", "Inconclusive", detail="no matrix within bounds")
        else:
            rec.exact(
                "realization",
                ratmat.char_poly(matrix)[: poly.degree + 1] == list(poly.coeffs),
                lhs=str(matrix),
                rhs=f"char poly t^m * ({poly})",
            )
            payload["matrix"] = [list(r) for r in matrix]
            verdict = verify_eb_failure(matrix, tol=tol)
            rec.add(
                "entropy-bound-failure",
                verdict["status"],
                verdict["lhs"],
                verdict["rhs"],
                tol,
                detail=f"gap={verdict['gap']:.6f}",
            )
    return rec.records, payload


def _conditions_payload(report):
    omitted = ("tol", "dominance_margin", "reciprocal_margin")
    return _json_value({k: v for k, v in asdict(report).items() if k not in omitted})


def profile_payload(profile, bounds):
    """Coding-range profile as JSON: integers plus 'p/q' interval endpoints."""
    return {
        "n_max": profile.n_max,
        "W_minus": list(profile.w_minus),
        "W_plus": list(profile.w_plus),
        "W_minus_inv": list(profile.w_minus_inv),
        "W_plus_inv": list(profile.w_plus_inv),
        "A_minus": list(profile.a_minus),
        "A_plus": list(profile.a_plus),
        "alpha_minus": dict(zip(("lo", "hi"), map(format_fraction, bounds.alpha_minus))),
        "alpha_plus": dict(zip(("lo", "hi"), map(format_fraction, bounds.alpha_plus))),
        "method": bounds.method,
        "verdict": bounds.verdict,
    }


def _suite_profile(options):
    name = options.get("auto", "tau_golden")
    n_max = options.get("n_max", 4)
    shift, auto = make_builtin(name, dict(DEFAULT_SUITE).get(name, {}))
    profile = coding_range_profile(auto, n_max)
    bounds = lyapunov_bounds(auto, profile)
    rec = Recorder()
    rec.add(
        "profile",
        "Confirmed",
        lhs=f"n_max={n_max}",
        detail=f"{name}: W^- {profile.w_minus}, W^+ {profile.w_plus}",
    )
    rec.add(
        "lyapunov-enclosure",
        "Confirmed" if not bounds.distorted_candidate() else "Consistent",
        lhs=f"alpha- {_interval_text(bounds.alpha_minus)}",
        rhs=f"alpha+ {_interval_text(bounds.alpha_plus)}",
        detail=f"method={bounds.method} verdict={bounds.verdict}",
    )
    return rec.records, {"profile": profile_payload(profile, bounds)}


_SUITES = {
    "acceptance": _suite_acceptance,
    "theorem-3": _suite_theorem_3,
    "theorem-4": _suite_theorem_4,
    "spectra": _suite_spectra,
    "profile": _suite_profile,
}


def run_suite(name, options=None):
    """Execute a named suite; returns a Report (never raises on Violated)."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    options = dict(options or {})
    with window_budget(options.get("budget")):
        records, payload = _SUITES[name](options)
        budget = resolve_budget()
    return Report(
        suite=name,
        records=records,
        tol=options.get("tol", DEFAULT_TOL),
        budget=budget,
        options=options,
        payload=payload,
    )


def _matrix_text(matrix):
    return "[" + ",".join(
        "[" + ",".join(format_fraction(x) for x in row) + "]" for row in matrix
    ) + "]"


def _interval_text(interval):
    lo, hi = interval
    return f"[{format_fraction(lo)},{format_fraction(hi)}]"
