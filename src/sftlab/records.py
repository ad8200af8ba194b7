"""The one verdict type: every check, from a verifier or a suite, is a
:class:`CheckRecord` with a status from the fixed vocabulary {Confirmed,
Consistent, Inconclusive, Violated, NotStrict, Indeterminate}."""

from dataclasses import dataclass
from fractions import Fraction


def format_fraction(value):
    """Exact rational as a JSON-friendly string: "3", "-5/7"."""
    return str(Fraction(value))


@dataclass(frozen=True)
class CheckRecord:
    name: str
    status: str
    lhs: object = None
    rhs: object = None
    tol: object = None
    runtime_ms: float = 0.0
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
            "tol": self.tol,
            "runtime_ms": round(self.runtime_ms, 3),
            "detail": self.detail,
        }


def _json_value(value):
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value
