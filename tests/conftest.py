"""Golden reports: masked JSON (runtime_ms nulled) that the suites and the
README's commands must reproduce byte for byte, kept in tests/golden."""

from pathlib import Path

import pytest

from sftlab import shifts

GOLDEN = Path(__file__).parent / "golden"


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
