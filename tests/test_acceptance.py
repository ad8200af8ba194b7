"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (the parametrized id is the criterion id); each test also prints
its own PASS/FAIL summary line, visible under ``-s`` or on failure.
"""

import pytest

from sftlab import reports
from sftlab.reports import ACCEPTANCE_CRITERIA, run_criterion, run_suite

CRITERIA = {cid: title for cid, title, _ in ACCEPTANCE_CRITERIA}


@pytest.mark.parametrize("cid", sorted(CRITERIA), ids=sorted(CRITERIA))
def test_criterion(cid):
    records = run_criterion(cid)
    assert records, f"{cid} produced no records"
    violated = [r for r in records if r.status == "Violated"]
    verdict = "FAIL" if violated else "PASS"
    print(f"{verdict} {cid}  {CRITERIA[cid]}  ({len(records)} checks)")
    for r in violated:
        print(f"    {r.name}: lhs={r.lhs} rhs={r.rhs} tol={r.tol} {r.detail}")
    assert not violated, f"{cid}: {[r.name for r in violated]}"


def test_shift_bounds_are_sharp_to_machine_precision():
    records = {r.name: r for r in run_criterion("02-shift-sharpness")}
    sharp = records["02-shift-sharpness/main-bounds-sharp"]
    assert sharp.status == "Confirmed"
    assert abs(sharp.lhs) <= 1e-9


def test_cubic_witness_confirms_failure():
    records = {r.name: r for r in run_criterion("07-cubic-witness")}
    failure = records["07-cubic-witness/entropy-bound-failure"]
    assert failure.status == "Confirmed"
    assert failure.lhs > failure.rhs


def test_full_acceptance_suite_is_green(golden):
    report = run_suite("acceptance")
    golden("acceptance.json", report.to_json(mask_runtime=True) + "\n")
    assert report.exit_code == 0
    counts = report.counts()
    assert counts.get("Violated", 0) == 0
    assert sum(counts.values()) == len(report.records) == 40


def _discrepancies(record):
    return int(record.lhs.split()[0])


def test_oracle_equivalence_fails_when_the_read_is_one_off(monkeypatch):
    # W^- placed one coordinate too far: the oracle finds it uncoded
    read = reports.window_w
    monkeypatch.setattr(reports, "window_w", lambda code: (read(code)[0] + 1, read(code)[1]))
    [record] = run_criterion("12-oracle-equivalence")
    assert record.status == "Violated"
    assert _discrepancies(record) > 0


def test_oracle_equivalence_stream_reaches_both_outcomes(monkeypatch):
    outcomes = {"minus": [], "plus": []}

    def recording(oracle, seen):
        def call(code, j):
            seen.append(oracle(code, j))
            return seen[-1]

        return call

    for side, seen in outcomes.items():
        name = f"coded_{side}_naive"
        monkeypatch.setattr(reports, name, recording(getattr(reports, name), seen))
    [record] = run_criterion("12-oracle-equivalence")
    assert record.status == "Confirmed" and _discrepancies(record) == 0
    counts = {side: (seen.count(True), seen.count(False)) for side, seen in outcomes.items()}
    assert counts == {"minus": (270, 230), "plus": (280, 220)}
