"""Command-line front end: analyze system files, run suites, check spectra.

    sftlab analyze <file> [--auto NAME] [--n-max N] [--w W] [--steps N]
                          [--tol X] [--json PATH]
    sftlab suite <name> [--tol X] [--json PATH] [suite options]
    sftlab spectra check --poly "[1,-5,-6,1]" [--N 12]
    sftlab spectra search --poly "[1,-5,-6,1]" [--max-size 6] [--max-entry 8]
                          [--budget 1e7]

Exit codes: 0 all checks ok, 1 a check was Violated (or a library invariant
broke), 2 bad input, 3 budget exceeded.  Human tables go to standard output;
``--json`` additionally writes the full machine-readable report.
"""

from __future__ import annotations

import argparse
from dataclasses import asdict
import functools
import json
import math
import sys

from .coding_range import coding_range_profile, lyapunov_bounds
from .dimension import dimension_matrix, verify_entropy_bound, verify_main_bounds
from .entropy import column_census, exact_entropy_of
from .errors import (
    BadParams,
    InternalInvariantViolation,
    NonMonic,
    NotInverse,
    NotInvertibleWithin,
    NotPrimitive,
    ParseError,
    PreconditionFailed,
    SftlabError,
    UnknownBuiltin,
    WindowBudgetExceeded,
    ZeroConstantTerm,
)
from .ratmat import char_poly
from .reports import (
    Recorder,
    Report,
    SUITE_NAMES,
    profile_payload,
    run_suite,
)
from .records import format_fraction
from .shifts import resolve_budget, window_budget
from .spectra import IntPolynomial, search_primitive_realization, verify_eb_failure
from .systems import load_system_file


def _parse_poly(text):
    try:
        coeffs = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"--poly must be a JSON list of integers: {exc}", "--poly")
    try:
        poly = IntPolynomial(coeffs)
    except (NonMonic, TypeError) as exc:
        raise ParseError(str(exc), "--poly") from None
    if poly.degree < 1:
        raise ParseError(f"polynomial {coeffs} must have degree >= 1", "--poly")
    return poly


def _emit(report, json_path):
    print(report.render())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")


def _unless_refused(rec, name, compute, *args):
    """compute(*args), or None once its refusal is recorded as Inconclusive
    under ``name``.  A budget overrun or a library bug propagates."""
    try:
        return compute(*args)
    except (WindowBudgetExceeded, InternalInvariantViolation):
        raise
    except SftlabError as exc:
        rec.add(name, "Inconclusive", detail=str(exc))
        return None


def _cmd_analyze(args):
    parsed = load_system_file(args.file)
    tol = args.tol if args.tol is not None else parsed.tol
    if args.auto is not None:
        if args.auto not in parsed.automorphisms:
            raise ParseError(
                f"no automorphism named {args.auto!r}; file defines "
                f"{sorted(parsed.automorphisms)}",
                "$.automorphisms",
            )
        names = [args.auto]
    else:
        names = sorted(parsed.automorphisms)
    rec = Recorder()
    payload = {}
    with window_budget(parsed.budget):
        for name in names:
            auto = parsed.automorphisms[name]
            payload[name] = {}
            profile = _unless_refused(
                rec, f"{name}/coding-range", coding_range_profile, auto, args.n_max
            )
            if profile is not None:
                bounds = lyapunov_bounds(auto, profile)
                rec.add(
                    f"{name}/coding-range",
                    "Confirmed",
                    lhs=f"W^- {profile.w_minus}",
                    rhs=f"W^+ {profile.w_plus}",
                    detail=f"n_max={args.n_max}",
                )
                rec.add(
                    f"{name}/lyapunov",
                    "Consistent" if bounds.distorted_candidate() else "Confirmed",
                    lhs=f"[{format_fraction(bounds.alpha_minus[0])},{format_fraction(bounds.alpha_minus[1])}]",
                    rhs=f"[{format_fraction(bounds.alpha_plus[0])},{format_fraction(bounds.alpha_plus[1])}]",
                    detail=f"method={bounds.method} verdict={bounds.verdict}",
                )
                payload[name]["profile"] = profile_payload(profile, bounds)
            action = _unless_refused(rec, f"{name}/dimension-action", dimension_matrix, auto)
            if action is not None:
                rec.add(
                    f"{name}/dimension-action",
                    "Confirmed",
                    lhs=f"lambda={action.lambda_phi:.9g}",
                    rhs=f"rho={action.rho:.9g}",
                    detail=f"inert={action.inert} order={action.order_if_finite}",
                )
                payload[name]["S_phi"] = [[format_fraction(x) for x in row] for row in action.S_phi]
                if profile is not None:
                    bound, _ = verify_main_bounds(auto, profile, action, tol=tol)
                    rec.adopt(bound, name=f"{name}/main-bounds")
                entropy = exact_entropy_of(auto)
                if entropy is not None:
                    rec.adopt(
                        verify_entropy_bound(entropy, action, tol=tol),
                        name=f"{name}/entropy-bound",
                        detail=f"exact h_top={entropy:.6f}",
                    )
            if args.w is not None:
                census = _unless_refused(
                    rec, f"{name}/column-census", column_census, auto, args.w, args.steps
                )
                if census is not None:
                    rec.add(
                        f"{name}/column-census",
                        "Confirmed" if census.certified else "Consistent",
                        census.estimate,
                        None,
                        detail=f"count={census.count} method={census.method}",
                    )
                    payload[name]["census"] = asdict(census)
        report = Report(
            suite="analyze",
            records=rec.records,
            tol=tol,
            budget=resolve_budget(),
            options={"file": args.file, "n_max": args.n_max, "w": args.w, "steps": args.steps},
            payload=payload,
        )
    _emit(report, args.json_path)
    return report.exit_code


def _given(**options):
    """The options given on the command line: those that are not None."""
    return {key: value for key, value in options.items() if value is not None}


def _cmd_suite(args):
    poly = None if args.poly is None else list(_parse_poly(args.poly).coeffs)
    options = _given(tol=args.tol, poly=poly, N=args.N, auto=args.auto, n_max=args.n_max)
    try:
        report = run_suite(args.name, options)
    except BadParams as exc:  # only the builtin --auto names reads params
        raise BadParams(f"--auto {args.auto} takes the builtin's default params: {exc}") from None
    _emit(report, args.json_path)
    return report.exit_code


def _cmd_spectra_check(args):
    poly = list(_parse_poly(args.poly).coeffs)
    report = run_suite("spectra", _given(poly=poly, search=False, N=args.N, tol=args.tol))
    _emit(report, args.json_path)
    return report.exit_code


def _cmd_spectra_search(args):
    poly = _parse_poly(args.poly)
    matrix = search_primitive_realization(
        poly,
        max_size=args.max_size,
        max_entry=args.max_entry,
        budget=int(args.budget),
    )
    if matrix is None:
        print(f"no primitive realization of ({poly}) within "
              f"size {args.max_size}, entries {args.max_entry}")
        if args.json_path:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                json.dump({"polynomial": list(poly.coeffs), "matrix": None}, handle, indent=2)
                handle.write("\n")
        return 0
    print(f"realization of ({poly}):")
    for row in matrix:
        print(f"  {row}")
    print(f"characteristic polynomial: {IntPolynomial(char_poly(matrix))}")
    verdict = verify_eb_failure(matrix)
    print(
        f"inverse-spectral-radius check: {verdict['status']} "
        f"(log rho_minus = {verdict['lhs']:.6f}, entropy = {verdict['rhs']:.6f})"
    )
    if args.json_path:
        doc = {
            "polynomial": list(poly.coeffs),
            "matrix": [list(r) for r in matrix],
            "eb_failure": {k: v for k, v in verdict.items() if k != "name"},
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _at_least(low, kind=int):
    """argparse type: a finite number of ``kind`` no smaller than ``low``."""

    def number(text):
        if not low <= kind(text) < math.inf:
            raise argparse.ArgumentTypeError(f"must be finite and at least {low}, got {text}")
        return kind(text)

    return number


def _tolerance(text):
    """argparse type: a finite positive float, as load_system_file asks of $.tol."""
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return float(text)


@functools.cache  # one parser per process: each parse_args fills a new namespace
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sftlab",
        description="Verification toolkit for automorphisms of edge shifts "
        "(all logarithms natural)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a system definition file")
    analyze.add_argument("file")
    analyze.add_argument("--auto", help="restrict to one named automorphism")
    analyze.add_argument("--n-max", type=_at_least(1), default=3, dest="n_max")
    analyze.add_argument("--w", type=_at_least(0), default=None, help="column census half-width")
    analyze.add_argument(
        "--steps", type=_at_least(1), default=4, help="column census iterate count"
    )
    analyze.add_argument("--tol", type=_tolerance, default=None)
    analyze.add_argument("--json", dest="json_path", default=None)
    analyze.set_defaults(func=_cmd_analyze)

    suite = sub.add_parser("suite", help="run a named verification suite")
    suite.add_argument("name", choices=SUITE_NAMES)
    suite.add_argument("--tol", type=_tolerance, default=None)
    suite.add_argument("--poly", default=None)
    suite.add_argument("--N", type=_at_least(1), default=None)
    suite.add_argument("--auto", default=None)
    suite.add_argument("--n-max", type=_at_least(1), default=None, dest="n_max")
    suite.add_argument("--json", dest="json_path", default=None)
    suite.set_defaults(func=_cmd_suite)

    spectra = sub.add_parser("spectra", help="polynomial spectral conditions")
    spectra_sub = spectra.add_subparsers(dest="spectra_command", required=True)

    check = spectra_sub.add_parser("check", help="run the three conditions")
    check.add_argument("--poly", required=True)
    check.add_argument("--N", type=_at_least(1), default=None)
    check.add_argument("--tol", type=_tolerance, default=None)
    check.add_argument("--json", dest="json_path", default=None)
    check.set_defaults(func=_cmd_spectra_check)

    search = spectra_sub.add_parser("search", help="search for a primitive realization")
    search.add_argument("--poly", required=True)
    search.add_argument("--max-size", type=_at_least(1), default=6, dest="max_size")
    search.add_argument("--max-entry", type=_at_least(1), default=8, dest="max_entry")
    search.add_argument("--budget", type=_at_least(0, float), default=1e7)
    search.add_argument("--json", dest="json_path", default=None)
    search.set_defaults(func=_cmd_spectra_search)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        UnknownBuiltin,
        BadParams,
        NotInverse,
        NotInvertibleWithin,
        NonMonic,
        ZeroConstantTerm,
        PreconditionFailed,
        NotPrimitive,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except WindowBudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInvariantViolation as exc:
        print(f"internal invariant violated (library bug): {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
