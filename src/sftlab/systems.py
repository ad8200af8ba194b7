"""System definition files: JSON in, certified objects out.

A system file names one shift and any number of automorphisms over it, as
explicit rule tables (inverse given or inferred) or as references into the
builtin registry.  Every parse failure carries a JSON-path-style location
(``$.automorphisms.tau.forward.rule[3].window``) so a bad document points at
its own defect.  Serialization round-trips: a saved builtin reloads to a
behaviorally equal automorphism, and product shifts keep their factor
structure (``kronecker``) rather than collapsing to a flat matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .builtins import make_builtin, shift_builtin
from .codes import SlidingBlockCode, infer_inverse, verify_automorphism
from .errors import BadParams, ParseError, SftlabError, ShiftMismatch
from .shifts import DEFAULT_TOL, build_edge_shift, kronecker_product, window_budget

DEFAULT_R_MAX = 3


def _require_keys(obj, required, optional, location):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}", location)
    missing = [k for k in required if k not in obj]
    if missing:
        raise ParseError(f"missing key(s) {missing}", location)
    unknown = [k for k in obj if k not in required and k not in optional]
    if unknown:
        raise ParseError(f"unknown key(s) {unknown}", location)


def _int_at(obj, key, location, minimum=None):
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer", f"{location}.{key}")
    if minimum is not None and value < minimum:
        raise ParseError(f"{key} must be >= {minimum}, got {value}", f"{location}.{key}")
    return value


def parse_shift_spec(spec, location="$.shift"):
    """One of {"matrix": rows}, {"full_shift": n}, {"builtin": name},
    {"kronecker": [spec, spec]}."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ParseError(
            "shift spec must be an object with exactly one of "
            "matrix | full_shift | builtin | kronecker",
            location,
        )
    ((kind, value),) = spec.items()
    if kind == "matrix":
        if not isinstance(value, list) or not value:
            raise ParseError("matrix must be a nonempty list of rows", f"{location}.matrix")
        for i, row in enumerate(value):
            if not isinstance(row, list) or len(row) != len(value):
                raise ParseError(
                    f"row {i} must be a list of length {len(value)}",
                    f"{location}.matrix[{i}]",
                )
            for j, entry in enumerate(row):
                if isinstance(entry, bool) or not isinstance(entry, int) or entry < 0:
                    raise ParseError(
                        f"entry must be a nonnegative integer, got {entry!r}",
                        f"{location}.matrix[{i}][{j}]",
                    )
        try:
            return build_edge_shift(value)
        except SftlabError as exc:
            raise ParseError(str(exc), f"{location}.matrix") from None
    if kind == "full_shift":
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ParseError(
                f"full_shift must be a positive integer, got {value!r}",
                f"{location}.full_shift",
            )
        return build_edge_shift([[value]])
    if kind == "builtin":
        if not isinstance(value, str):
            raise ParseError("builtin must be a name", f"{location}.builtin")
        return shift_builtin(value)
    if kind == "kronecker":
        if not isinstance(value, list) or len(value) != 2:
            raise ParseError(
                "kronecker takes exactly two factor specs", f"{location}.kronecker"
            )
        left = parse_shift_spec(value[0], f"{location}.kronecker[0]")
        if value[1] == value[0]:  # one object for the one factor
            return kronecker_product(left, left)
        return kronecker_product(left, parse_shift_spec(value[1], f"{location}.kronecker[1]"))
    raise ParseError(f"unknown shift kind {kind!r}", location)


def parse_rule(obj, shift, location):
    """A rule table {"memory", "anticipation", "rule": [{"window", "out"}]},
    validated against the shift: every window admissible and listed once,
    every output an edge, all windows listed, outputs composable."""
    _require_keys(obj, ("memory", "anticipation", "rule"), (), location)
    memory = _int_at(obj, "memory", location, minimum=0)
    anticipation = _int_at(obj, "anticipation", location, minimum=0)
    entries = obj["rule"]
    if not isinstance(entries, list):
        raise ParseError("rule must be a list of entries", f"{location}.rule")
    seen, outs = set(), []
    width = memory + anticipation + 1
    for i, entry in enumerate(entries):
        here = f"{location}.rule[{i}]"
        _require_keys(entry, ("window", "out"), (), here)
        window = entry["window"]
        if (
            not isinstance(window, list)
            or len(window) != width
            or any(isinstance(e, bool) or not isinstance(e, int) for e in window)
        ):
            raise ParseError(
                f"window must be a list of {width} edge indices", f"{here}.window"
            )
        if any(not 0 <= e < shift.n_edges for e in window):
            raise ParseError(
                f"edge index out of range 0..{shift.n_edges - 1}", f"{here}.window"
            )
        if not shift.is_admissible(window):
            raise ParseError(f"inadmissible window {window}", f"{here}.window")
        if tuple(window) in seen:
            raise ParseError(f"duplicate window {window}", f"{here}.window")
        seen.add(tuple(window))
        out = _int_at(entry, "out", here, minimum=0)
        if out >= shift.n_edges:
            raise ParseError(f"rule output {out} is not a target edge", f"{here}.out")
        outs.append(out)
    shift.ensure_budget(width + 1)
    cols = np.array([entry["window"] for entry in entries], dtype=np.intp).reshape(-1, width).T
    column = np.full(shift.word_count(width), -1, dtype=np.intp)
    column[shift.rank(cols)] = outs
    missing = np.flatnonzero(column < 0)
    if missing.size:
        window = tuple(int(c[0]) for c in shift.unrank(width, missing[0], missing[0] + 1))
        raise ParseError(f"rule is not total: missing window {window!r}", f"{location}.rule")
    code = SlidingBlockCode.from_column(shift, shift, memory, anticipation, column)
    try:  # the budget and the outputs are checked above
        code.check_composable()
    except ValueError as exc:
        raise ParseError(str(exc), f"{location}.rule") from None
    return code


def parse_automorphism(obj, shift, location):
    """Either {"builtin": name, "params": {...}} or an explicit
    {"forward": rule, "inverse": rule | "infer", "R_max": r} table pair.

    Explicit inverses are verified (NotInverse propagates with its witness);
    "infer" searches coding radii up to R_max.  A builtin must live on the
    file's shift and is built on it.
    """
    if isinstance(obj, dict) and "builtin" in obj:
        _require_keys(obj, ("builtin",), ("params",), location)
        name = obj["builtin"]
        if not isinstance(name, str):
            raise ParseError("builtin must be a name", f"{location}.builtin")
        params = obj.get("params", {})
        if not isinstance(params, dict):
            raise ParseError("params must be an object", f"{location}.params")
        try:
            return make_builtin(name, params, shift)[1]
        except ShiftMismatch as exc:
            raise ParseError(str(exc), location) from None
        except BadParams as exc:
            raise ParseError(str(exc), f"{location}.params") from None
    _require_keys(obj, ("forward",), ("inverse", "R_max"), location)
    forward = parse_rule(obj["forward"], shift, f"{location}.forward")
    inverse_spec = obj.get("inverse", "infer")
    if inverse_spec == "infer":
        r_max = DEFAULT_R_MAX
        if "R_max" in obj:
            r_max = _int_at(obj, "R_max", location, minimum=0)
        return infer_inverse(forward, r_max=r_max)
    inverse = parse_rule(inverse_spec, shift, f"{location}.inverse")
    return verify_automorphism(forward, inverse)


@dataclass(frozen=True)
class SystemFile:
    """A parsed document: the shift, its named automorphisms, and the
    file-level tolerance/budget overrides."""

    shift: object
    automorphisms: dict
    tol: float
    budget: object  # int or None


def load_system_file(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(str(exc), "$") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}", "$") from None
    _require_keys(doc, ("shift",), ("automorphisms", "tol", "budget"), "$")
    shift = parse_shift_spec(doc["shift"], "$.shift")
    budget = _int_at(doc, "budget", "$", minimum=1) if "budget" in doc else None
    table = doc.get("automorphisms", {})
    if not isinstance(table, dict):
        raise ParseError("automorphisms must be an object", "$.automorphisms")
    with window_budget(budget):
        autos = {
            name: parse_automorphism(spec, shift, f"$.automorphisms.{name}")
            for name, spec in table.items()
        }
    tol = doc.get("tol", DEFAULT_TOL)
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol < math.inf:
        raise ParseError(f"tol must be a finite positive number, got {tol!r}", "$.tol")
    return SystemFile(shift=shift, automorphisms=autos, tol=float(tol), budget=budget)


# -- serialization ------------------------------------------------------------


def serialize_shift(shift):
    if shift.product_of is not None:
        left, right = shift.product_of
        return {"kronecker": [serialize_shift(left), serialize_shift(right)]}
    return {"matrix": [list(row) for row in shift.matrix]}


def serialize_rule(code):
    return {
        "memory": code.memory,
        "anticipation": code.anticipation,
        "rule": [
            {"window": list(window), "out": out}
            for window, out in code.rule.items()  # rank order is sorted order
        ],
    }


def serialize_automorphism(auto):
    return {
        "forward": serialize_rule(auto.forward),
        "inverse": serialize_rule(auto.inverse),
    }


def system_file_dict(shift, automorphisms, tol=None, budget=None):
    doc = {"shift": serialize_shift(shift)}
    if automorphisms:
        doc["automorphisms"] = {
            name: serialize_automorphism(auto)
            for name, auto in automorphisms.items()
        }
    if tol is not None:
        doc["tol"] = tol
    if budget is not None:
        doc["budget"] = budget
    return doc


def save_system(path, shift, automorphisms, tol=None, budget=None):
    doc = system_file_dict(shift, automorphisms, tol=tol, budget=budget)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
