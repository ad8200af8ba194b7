"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (the parametrized id is the criterion id); each test also prints
its own PASS/FAIL summary line, visible under ``-s`` or on failure.
"""

import pytest

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
