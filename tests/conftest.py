"""Golden reports: masked JSON (runtime_ms nulled) that the suites and the
README's commands must reproduce byte for byte, kept in tests/golden."""

from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def golden(monkeypatch):
    # the reports record the effective budget; the golden files hold the default
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)

    def check(name, text):
        expected = (GOLDEN / name).read_text(encoding="utf-8")
        assert text == expected, f"output differs from tests/golden/{name}"

    return check
