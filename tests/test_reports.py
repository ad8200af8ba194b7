"""Report structure, determinism, and the named verification suites.

Acceptance criterion 12 composes nothing: its 500 seeded codes, window-1
codes read at an offset and padded, equal in memory, anticipation and
levels, with the same j, the codes built from sigma^r by iterates and
compose.
"""

import inspect
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import rule_code
from sftlab.reports import (
    ACCEPTANCE_CRITERIA,
    CheckRecord,
    Recorder,
    Report,
    SUITE_NAMES,
    profile_payload,
    run_criterion,
    run_suite,
)
from sftlab import codes, reports, shifts
from sftlab.builtins import DEFAULT_SUITE, make_builtin
from sftlab.coding_range import coding_range_profile, lyapunov_bounds
from sftlab.errors import WindowBudgetExceeded

STATUS_VOCABULARY = {
    "Confirmed",
    "Consistent",
    "Inconclusive",
    "Violated",
    "NotStrict",
    "Indeterminate",
}


def make_report(records):
    return Report(suite="spectra", records=records, tol=1e-9, budget=1000)


# -- records and reports ----------------------------------------------------


def test_record_serializes_fractions_and_rounds_runtime():
    record = CheckRecord(
        "x", "Confirmed", lhs=Fraction(-1, 3), rhs=(Fraction(1), 2), runtime_ms=1.23456
    )
    doc = record.to_dict()
    assert doc["lhs"] == "-1/3"
    assert doc["rhs"] == ["1", 2]
    assert doc["runtime_ms"] == 1.235


def test_exit_code_only_trips_on_violated():
    ok = make_report([CheckRecord("a", s) for s in sorted(STATUS_VOCABULARY - {"Violated"})])
    assert ok.exit_code == 0
    bad = make_report([CheckRecord("a", "Confirmed"), CheckRecord("b", "Violated")])
    assert bad.exit_code == 1
    assert bad.counts() == {"Confirmed": 1, "Violated": 1}


def test_report_json_shape():
    report = make_report([CheckRecord("a", "Confirmed", lhs=0.5, rhs=0.5, tol=1e-9)])
    doc = json.loads(report.to_json())
    assert doc["log_base"] == "nats"
    assert doc["summary"] == {"total": 1, "Confirmed": 1}
    assert doc["exit_code"] == 0
    assert doc["records"][0]["name"] == "a"


def test_mask_runtime_hides_the_only_wall_clock_field():
    report = make_report([CheckRecord("a", "Confirmed", runtime_ms=17.0)])
    assert report.to_dict()["records"][0]["runtime_ms"] == 17.0
    assert report.to_dict(mask_runtime=True)["records"][0]["runtime_ms"] is None


def test_render_layout():
    report = make_report(
        [
            CheckRecord("short", "Confirmed", lhs=1.0, rhs=None),
            CheckRecord("long", "Violated", lhs="x" * 40),
        ]
    )
    text = report.render()
    lines = text.splitlines()
    assert "logs: nats" in lines[0]
    assert "-" in lines[2]  # None renders as a dash
    assert "x" * 13 + "..." in lines[3]
    assert lines[-1] == "exit code: 1"
    assert "summary: 2 checks" in lines[-2]


def test_recorder_helpers():
    rec = Recorder()
    rec.exact("eq", True, lhs=1, rhs=1)
    rec.exact("neq", False)
    rec.close("near", 1.0, 1.0 + 1e-12, 1e-9)
    rec.close("far", 1.0, 2.0, 1e-9)
    verdict = CheckRecord("verdict", "NotStrict", 0.0, tol=1e-9)
    rec.adopt(verdict, name="adopted")
    statuses = [r.status for r in rec.records]
    assert statuses == ["Confirmed", "Violated", "Confirmed", "Violated", "NotStrict"]
    assert rec.records[4].lhs == 0.0
    assert rec.records[4].name == "adopted"
    assert verdict.name == "verdict" and verdict.runtime_ms == 0.0
    assert all(r.runtime_ms >= 0 for r in rec.records)


def test_recorder_counts_failures():
    rec = Recorder()
    rec.none_of("none", [], "mismatches", detail="d")
    rec.none_of("two", [("a", 1), ("b", 2)], "completions differ")
    assert [(r.status, r.lhs, r.rhs, r.tol, r.detail) for r in rec.records] == [
        ("Confirmed", "0 mismatches", "0", 0, "d"),
        ("Violated", "2 completions differ", "0", 0, ""),
    ]


# -- the builtins of one run ------------------------------------------------


def _counted_builtins(monkeypatch):
    """Every (name, automorphism) the suites build, in call order."""
    built = []

    def counted(name, params=None, shift=None):
        shift, auto = make_builtin(name, params, shift)
        built.append((name, auto))
        return shift, auto

    monkeypatch.setattr(reports, "make_builtin", counted)
    return built


def test_acceptance_run_builds_each_builtin_once(monkeypatch):
    built = _counted_builtins(monkeypatch)
    assert run_suite("acceptance").exit_code == 0
    assert [name for name, _ in built] == [name for name, _ in DEFAULT_SUITE]


def test_two_runs_share_no_automorphism(monkeypatch):
    built = _counted_builtins(monkeypatch)
    run_suite("theorem-4")
    run_suite("theorem-4")
    # every object is still held by ``built``, so equal ids mean one object
    assert len(built) == 2 * len(DEFAULT_SUITE)
    assert len({id(auto) for _, auto in built}) == len(built)


def test_acceptance_run_builds_one_shift_per_presentation(monkeypatch):
    # a presentation is a matrix with its product factors, if any; subsystem
    # restriction and the spectral checks build shifts of their own
    built = []
    init = shifts.EdgeShift.__init__

    def counted(self, matrix):
        init(self, matrix)
        if not any(
            frame.function == "restrict_code_to_subsystem" or frame.filename.endswith("spectra.py")
            for frame in inspect.stack(0)[1:]
        ):
            built.append(self)

    monkeypatch.setattr(shifts.EdgeShift, "__init__", counted)
    assert run_suite("acceptance").exit_code == 0
    groups = {}
    for shift in built:
        factors = shift.product_of and tuple(f.matrix for f in shift.product_of)
        groups.setdefault((shift.matrix, factors), []).append(shift)
    # the product [[4]] of two full 2-shifts is not the plain [[4]]
    assert (((4,),), (((2,),), ((2,),))) in groups and (((4,),), None) in groups
    assert len(groups) == 8
    assert all(len(group) == 1 for group in groups.values())


# -- criteria ---------------------------------------------------------------


def test_criteria_table_shape():
    assert len(ACCEPTANCE_CRITERIA) == 12
    ids = [cid for cid, _, _ in ACCEPTANCE_CRITERIA]
    assert ids == sorted(ids)
    assert ids[0] == "01-golden-entropy"
    assert ids[-1] == "12-oracle-equivalence"


def test_run_criterion_prefixes_names():
    records = run_criterion("01-golden-entropy")
    assert records
    assert all(r.name.startswith("01-golden-entropy/") for r in records)
    assert all(r.status == "Confirmed" for r in records)


def test_oracle_criterion_composes_nothing(monkeypatch):
    calls = []

    def counted(outer, inner):
        calls.append(outer)
        return compose(outer, inner)

    compose = codes.compose
    monkeypatch.setattr(codes, "compose", counted)
    (record,) = run_criterion("12-oracle-equivalence")
    # every code is a window-1 code read at an offset, then padded
    assert calls == []
    assert record.status == "Confirmed"
    assert record.lhs == "0 discrepancies"
    assert record.detail == "500 randomized (code, j) cases, seeded"


def ref_random_code(rng, powers):
    """Criterion 12's generator as it was built by composition: ``powers``
    holds sigma^r for r = -3..3 from ``codes.iterates`` of sigma or
    sigma^-1 read from their tables, and each product is ``codes.compose``."""
    shift = powers[0].source
    kind = rng.randrange(4)
    r = 0
    if kind == 1:
        r = rng.randint(1, 3)
    elif kind == 2:
        r = -rng.randint(1, 3)
    elif kind == 3 and shift.k == 1:
        r = None
        perm = list(range(shift.n_edges))
        rng.shuffle(perm)
        code = codes.SlidingBlockCode.from_column(shift, shift, 0, 0, perm)
    if r is not None:
        code = powers[r]
    if rng.random() < 0.5 and shift.k == 1:
        sign = 1 if rng.random() < 0.5 else -1
        code = codes.compose(code, powers[sign * rng.randint(1, 2)])
    room = 7 - code.window
    if room > 0 and rng.random() < 0.6:
        code = codes.pad_code(
            code,
            extra_memory=rng.randint(0, min(2, room)),
            extra_anticipation=rng.randint(0, max(0, min(2, room - 2))),
        )
    return code


def test_oracle_criterion_stream_matches_the_composed_codes():
    # the seeded stream of criterion 12, against its codes built by compose
    run_shifts, _ = reports._run_builtins()
    names = ("full_2", "full_3", "full_4", "golden_mean")
    pool = [run_shifts[name] for name in names]
    powers = []
    for shift in pool:
        powers.append({})
        for sign, read in ((1, 1), (-1, 0)):
            table = {w: w[read] for w in shift.words(2)}
            walk = codes.iterates(rule_code(shift, 1 - read, read, table))
            powers[-1].update((sign * r, next(walk)) for r in range(4))
    new, old = random.Random(20260823), random.Random(20260823)
    for case in range(500):
        code = reports._random_code(new, pool[new.randrange(len(pool))])
        ref = ref_random_code(old, powers[old.randrange(len(powers))])
        assert (code.memory, code.anticipation) == (ref.memory, ref.anticipation), case
        assert len(code.levels) == len(ref.levels), case
        assert all(map(np.array_equal, code.levels, ref.levels)), case
        assert new.randint(-5, 5) == old.randint(-5, 5), case


def test_five_symbol_criterion_lets_a_budget_overrun_propagate():
    # only NotInvertibleWithin means "not certified"; a completion whose
    # inverse search overran the window budget has no verdict
    run_shifts, built = reports._run_builtins()
    rec = Recorder()
    with shifts.window_budget(3000), pytest.raises(WindowBudgetExceeded):
        reports._criterion_five_symbol(rec, 1e-9, run_shifts, built)
    assert not any(r.name == "completion-certification" for r in rec.records)


def test_run_criterion_unknown_id():
    with pytest.raises(KeyError):
        run_criterion("99-nope")


# -- suites -----------------------------------------------------------------


@pytest.mark.parametrize("name", ["profile", "theorem-4"])
def test_run_suite_rejects_bad_n_max(name):
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        run_suite(name, {"n_max": 0})


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError) as info:
        run_suite("nope")
    assert "unknown suite" in str(info.value)
    assert set(SUITE_NAMES) == {"acceptance", "theorem-3", "theorem-4", "spectra", "profile"}


def test_profile_suite_is_deterministic_modulo_runtime(golden):
    # the default profile is tau_golden at n_max 4
    first = run_suite("profile")
    second = run_suite("profile")
    assert first.to_json(mask_runtime=True) == second.to_json(mask_runtime=True)
    golden("profile.json", first.to_json(mask_runtime=True) + "\n")
    assert first.exit_code == 0


def test_profile_suite_payload_fields():
    report = run_suite("profile", {"auto": "tau_golden"})
    payload = report.payload["profile"]
    assert payload["W_plus"] == [1, 2, 3, 4]
    assert payload["alpha_minus"] == {"lo": "0", "hi": "0"}
    assert payload["alpha_plus"] == {"lo": "1", "hi": "1"}
    assert payload["method"] == "exact-product"
    # the rendered payload matches a direct computation
    shift, auto = make_builtin("tau_golden")
    profile = coding_range_profile(auto, 4)
    bounds = lyapunov_bounds(auto, profile)
    assert payload == profile_payload(profile, bounds)


def test_profile_suite_marks_distortion_candidates_consistent():
    report = run_suite("profile", {"auto": "vertex_swap_B", "n_max": 3})
    enclosure = [r for r in report.records if r.name == "lyapunov-enclosure"]
    assert enclosure[0].status == "Consistent"
    assert report.exit_code == 0


def test_spectra_suite_default_polynomial(golden):
    report = run_suite("spectra")
    golden("spectra.json", report.to_json(mask_runtime=True) + "\n")
    names = [r.name for r in report.records]
    assert names == [
        "condition-dominant-root",
        "condition-net-traces",
        "condition-reciprocal",
        "realization",
        "entropy-bound-failure",
    ]
    assert report.exit_code == 0
    assert report.payload["matrix"] == [[5, 1, 0], [5, 0, 1], [4, 1, 0]]
    assert report.payload["conditions"]["net_traces"][:2] == [5, 32]


def test_spectra_suite_flags_reciprocal_failure():
    report = run_suite("spectra", {"poly": [1, -2], "search": False})
    by_name = {r.name: r.status for r in report.records}
    assert by_name["condition-dominant-root"] == "Confirmed"
    assert by_name["condition-reciprocal"] == "Violated"
    assert report.exit_code == 1


def test_spectra_suite_reports_indeterminate_band():
    report = run_suite("spectra", {"poly": [1, -1, -1], "search": False})
    by_name = {r.name: r.status for r in report.records}
    assert by_name["condition-reciprocal"] == "Indeterminate"
    assert report.exit_code == 0


def test_suite_budget_option_bounds_the_run(monkeypatch):
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    with pytest.raises(WindowBudgetExceeded):
        run_suite("theorem-4", {"budget": 10})
    report = run_suite("spectra", {"budget": 123})
    assert report.budget == 123
    assert "budget: 123" in report.render().splitlines()[0]
    assert run_suite("spectra").budget == shifts.DEFAULT_BUDGET


def test_theorem_suites_run_clean(golden):
    for name in ("theorem-3", "theorem-4"):
        report = run_suite(name)
        golden(f"{name}.json", report.to_json(mask_runtime=True) + "\n")
        assert report.records, name
        assert {r.status for r in report.records} <= STATUS_VOCABULARY
        assert report.exit_code == 0, name
