"""Golden reports: masked JSON (runtime_ms nulled) that the suites and the
README's commands must reproduce byte for byte, kept in tests/golden; and
three helpers the test modules import: codes from rule dicts, the check
that W read off a window is what the literal oracles find, and a 40-digit
reference for the Perron root."""

from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from sftlab import ratmat, shifts
from sftlab.codes import SlidingBlockCode
from sftlab.coding_range import _scanned_tracks, coded_minus_naive, coded_plus_naive, window_w

GOLDEN = Path(__file__).parent / "golden"


def rule_code(shift, memory, anticipation, rule):
    """The code on ``shift`` whose output on each window is ``rule[window]``
    (window tuples as keys), checked to compose."""
    column = [rule[w] for w in shift.words(memory + anticipation + 1)]
    return SlidingBlockCode.from_column(shift, shift, memory, anticipation, column, check=True)


def assert_w_attained_and_maximal(auto, n_max):
    """On each scanned track and n <= n_max, the W values that
    coding_range.window_w reads off the windows of phi^n and phi^-n are
    coded by the literal oracles, and one coordinate further is not."""
    for track in _scanned_tracks(auto):
        for n in range(1, n_max + 1):
            for code in (track.power(n), track.power(-n)):
                minus, plus = window_w(code)
                where = (track, n, code)
                assert coded_minus_naive(code, minus), where
                assert not coded_minus_naive(code, minus + 1), where
                assert coded_plus_naive(code, plus), where
                assert not coded_plus_naive(code, plus - 1), where


def reference_perron_root(matrix):
    """The Perron root of an irreducible integer matrix to 40 digits, as an
    exact Fraction of its binary value: Newton's method in mpmath on the
    exact characteristic polynomial, from numpy's largest real eigenvalue."""
    cp = ratmat.char_poly(matrix)
    start = float(np.linalg.eigvals(np.array(matrix, dtype=float)).real.max())
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda t: mpmath.polyval(cp, t), mpmath.mpf(start))
        assert abs(mpmath.polyval(cp, root)) < mpmath.mpf(10) ** -30 * root ** len(matrix)
    assert abs(root - start) < 1e-12 * start
    man, exp = root.man_exp
    return Fraction(man) * Fraction(2) ** exp


@pytest.fixture(autouse=True)
def no_window_budget_scope():
    """Fail a test that starts or ends inside a window_budget scope: a
    leaked scope caps every later call in the interpreter, as it would the
    later operations of a bench workload (bench/child.py runs them in one)."""
    assert shifts._WINDOW_BUDGET.get() is None, "a window_budget scope is in force"
    yield
    assert shifts._WINDOW_BUDGET.get() is None, "the test left a window_budget scope in force"


@pytest.fixture
def golden(monkeypatch):
    # the reports record the effective budget; the golden files hold the default
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)

    def check(name, text):
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert text == expected, f"output differs from tests/golden/{name}"

    return check
