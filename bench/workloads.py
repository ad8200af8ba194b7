"""Workload inputs, expected answers and verdict checks.

Each workload is a list of operations that one repetition runs in order in a
fresh interpreter: ``sftlab`` command lines entered through
``sftlab.cli.main``, and for ``exact-dimension`` one public API call.

- ``suites``: ``sftlab suite acceptance``, the twelve criteria.  Many small
  codes are built, verified, inverted and padded, and the literal half-line
  oracles run on 500 seeded codes, so it loads the codes, coding_range and
  ratmat layers in small pieces and shows per-call costs.  Fixed; the seed
  does not change it.
- ``deep-iterates``: ``sftlab analyze`` on the paper's worked examples at
  depth, where window tables grow exponentially with the iterate and
  ``codes.compose`` dominates.  The third item must stop with exit code 3,
  which keeps the budget-refusal path measured.  Fixed; the seed does not
  change it.
- ``exact-dimension``: seeded primitive cycle-plus-chord graphs with the
  shift and its inverse written as explicit rule tables, analyzed at a
  shallow depth, plus ``verify_eb_failure`` on one larger graph.  Exact
  ``Fraction`` linear algebra in ratmat dominates and codes is negligible.

Expected answers for the fixed workloads are hand-written in
``expected.json``.  For generated graphs they come from theory (a shift
power has exact W values) and from numpy eigenvalues computed here, never
from sftlab's own spectral code.
"""

import json
import math
import os
import random

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("suites", "deep-iterates", "exact-dimension")

#: Cycle lengths of the analyzed graphs, their analysis depth, and the size
#: of the verify_eb_failure graph.  Sizes are fixed so the seed changes
#: where the chord goes, not how much work there is.
GRAPH_SIZES = (6, 7, 8)
GRAPH_N_MAX = 2
EB_SIZE = 24
TOL = 1e-9

#: Small enough that five_symbol passes inference, n = 1 and n = 2
#: (5^5 windows) but not n = 3 (5^7 windows).
OVER_BUDGET = 20000

_FULL_2_PRODUCT = {"builtin": "full_2_product"}
_FIVE = {"builtin": "five_symbol", "params": {"completion": "swap"}}

_DEEP_ITERATES = (
    (
        "sigma_x_sigma_inv",
        {"shift": _FULL_2_PRODUCT, "automorphisms": {"sxs": {"builtin": "sigma_x_sigma_inv"}}},
        ["--n-max", "4"],
    ),
    (
        "five_symbol",
        {"shift": {"full_shift": 5}, "automorphisms": {"five": _FIVE}},
        ["--n-max", "3", "--w", "1", "--steps", "3"],
    ),
    (
        "five_symbol_over_budget",
        {"shift": {"full_shift": 5}, "budget": OVER_BUDGET, "automorphisms": {"five": _FIVE}},
        ["--n-max", "3"],
    ),
)


def load_expected():
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- cycle-plus-chord graphs ---------------------------------------------------


def chord_is_primitive(k, i, j):
    """A k-cycle 0 -> 1 -> ... -> k-1 -> 0 plus a chord i -> j has cycles of
    lengths k and 1 + (i - j) mod k; it is primitive iff they are coprime."""
    return math.gcd(k, 1 + (i - j) % k) == 1


def cycle_chord_matrix(k, i, j):
    matrix = [[0] * k for _ in range(k)]
    for s in range(k):
        matrix[s][(s + 1) % k] += 1
    matrix[i][j] += 1
    return matrix


def pick_chord(rng, k):
    return rng.choice(
        [(i, j) for i in range(k) for j in range(k) if chord_is_primitive(k, i, j)]
    )


def edges(matrix):
    """Edges in sftlab's canonical order: sorted by (source, target, copy)."""
    k = len(matrix)
    return [(s, t, c) for s in range(k) for t in range(k) for c in range(matrix[s][t])]


def shift_tables(matrix):
    """Explicit rule tables of the shift (memory 0, anticipation 1) and the
    inverse shift (memory 1, anticipation 0) on the matrix's edge shift."""
    es = edges(matrix)
    windows = [
        (a, b) for a in range(len(es)) for b in range(len(es)) if es[a][1] == es[b][0]
    ]
    sigma = {
        "memory": 0,
        "anticipation": 1,
        "rule": [{"window": [a, b], "out": b} for a, b in windows],
    }
    sigma_inv = {
        "memory": 1,
        "anticipation": 0,
        "rule": [{"window": [a, b], "out": a} for a, b in windows],
    }
    return sigma, sigma_inv


def spectrum(matrix):
    """(Perron root, smallest modulus of a nonzero eigenvalue) by numpy."""
    moduli = np.abs(np.linalg.eigvals(np.array(matrix, dtype=float)))
    nonzero = moduli[moduli > 1e-12]
    return float(moduli.max()), float(nonzero.min())


def eb_expectation(matrix, tol=TOL):
    """What verify_eb_failure must report: log rho_minus against the
    entropy log lambda, statused by the sign of their gap."""
    lam, min_mod = spectrum(matrix)
    lhs, rhs = -math.log(min_mod), math.log(lam)
    gap = lhs - rhs
    if gap > tol:
        status = "Confirmed"
    elif gap >= -tol:
        status = "NotStrict"
    else:
        status = "Inconclusive"
    return {"status": status, "lhs": lhs, "rhs": rhs}


def shift_power_profile(s, n_max):
    """W values of sigma^s (s = +-1) and their exact slopes: W^-(n) = W^+(n)
    = -s n, and -W for the inverse."""
    w = [-s * n for n in range(1, n_max + 1)]
    slope = str(-s)
    return {
        "W_minus": w,
        "W_plus": w,
        "W_minus_inv": [-x for x in w],
        "W_plus_inv": [-x for x in w],
        "alpha_minus": {"lo": slope, "hi": slope},
        "alpha_plus": {"lo": slope, "hi": slope},
        "method": "exact-shift-power",
    }


_ANALYZE_CHECKS = ("coding-range", "lyapunov", "dimension-action", "main-bounds", "entropy-bound")


def graph_item(matrix):
    sigma, sigma_inv = shift_tables(matrix)
    doc = {
        "shift": {"matrix": matrix},
        "automorphisms": {
            "sigma": {"forward": sigma, "inverse": sigma_inv},
            "sigma_inv": {"forward": sigma_inv, "inverse": sigma},
        },
    }
    lam, _ = spectrum(matrix)
    expect = {
        "exit_code": 0,
        "statuses": {
            f"{auto}/{check}": "Confirmed"
            for auto in ("sigma", "sigma_inv")
            for check in _ANALYZE_CHECKS
        },
        "profile": {
            "sigma": shift_power_profile(1, GRAPH_N_MAX),
            "sigma_inv": shift_power_profile(-1, GRAPH_N_MAX),
        },
        "lambda_phi": {"sigma": lam, "sigma_inv": 1.0 / lam},
    }
    return doc, ["--n-max", str(GRAPH_N_MAX)], expect


# -- plans ---------------------------------------------------------------------


def _analyze(name, doc, options, expect, directory):
    system = os.path.join(directory, f"{name}.json")
    with open(system, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
    report = os.path.join(directory, f"{name}.report.json")
    argv = ["analyze", system, *options, "--json", report]
    return {"name": name, "argv": argv, "report": report, "expect": expect}


def build_plan(workload, seed, directory):
    """Write the workload's input files into ``directory`` and return its
    plan: the operations of one repetition with their expected answers."""
    expected = load_expected()
    items = []
    if workload == "suites":
        report = os.path.join(directory, "acceptance.report.json")
        items.append({
            "name": "acceptance",
            "argv": ["suite", "acceptance", "--json", report],
            "report": report,
            "expect": expected["suites"]["acceptance"],
        })
    elif workload == "deep-iterates":
        for name, doc, options in _DEEP_ITERATES:
            items.append(_analyze(name, doc, options, expected[workload][name], directory))
    elif workload == "exact-dimension":
        rng = random.Random(seed)
        for k in GRAPH_SIZES:
            i, j = pick_chord(rng, k)
            name = f"cycle{k}_chord_{i}_{j}"
            matrix = cycle_chord_matrix(k, i, j)
            doc, options, expect = graph_item(matrix)
            items.append(_analyze(name, doc, options, expect, directory))
        i, j = pick_chord(rng, EB_SIZE)
        matrix = cycle_chord_matrix(EB_SIZE, i, j)
        items.append({
            "name": f"eb_failure_cycle{EB_SIZE}_chord_{i}_{j}",
            "api": "verify_eb_failure",
            "matrix": matrix,
            "expect": eb_expectation(matrix),
        })
    else:
        raise ValueError(f"unknown workload {workload!r}")
    plan = {"workload": workload, "seed": seed, "items": items}
    with open(os.path.join(directory, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle, indent=1)
    return plan


# -- checks --------------------------------------------------------------------


def _lambda_of(record):
    # dimension-action records carry "lambda=<9 significant digits>"
    return float(record["lhs"].partition("=")[2])


def check_report(expect, rc, doc):
    """Problems with one command's exit code and JSON report (empty if it
    matches the expected answer)."""
    problems = []
    if rc != expect["exit_code"]:
        problems.append(f"exit code {rc}, expected {expect['exit_code']}")
    if "statuses" not in expect:
        return problems
    if doc is None:
        return problems + ["no JSON report"]
    if doc.get("exit_code") != expect["exit_code"]:
        problems.append(f"report exit_code {doc.get('exit_code')}")
    records = {r["name"]: r for r in doc["records"]}
    got = {name: r["status"] for name, r in records.items()}
    if got != expect["statuses"]:
        wrong = sorted(
            n for n in set(got) | set(expect["statuses"])
            if got.get(n) != expect["statuses"].get(n)
        )
        problems.append(f"statuses differ at {wrong}")
    if "summary" in expect and doc.get("summary") != expect["summary"]:
        problems.append(f"summary {doc.get('summary')}")
    payload = doc.get("payload", {})
    for auto, want in expect.get("profile", {}).items():
        have = payload.get(auto, {}).get("profile", {})
        for key, value in want.items():
            if have.get(key) != value:
                problems.append(f"{auto} {key} = {have.get(key)}, expected {value}")
    for auto, want in expect.get("census", {}).items():
        have = payload.get(auto, {}).get("census", {})
        for key, value in want.items():
            if have.get(key) != value:
                problems.append(f"{auto} census {key} = {have.get(key)}, expected {value}")
    for auto, lam in expect.get("lambda_phi", {}).items():
        record = records.get(f"{auto}/dimension-action")
        if record is None or not math.isclose(_lambda_of(record), lam, rel_tol=1e-7):
            problems.append(f"{auto} lambda_phi differs from {lam!r}")
    return problems


def check_eb(expect, result):
    problems = []
    if result["status"] != expect["status"]:
        problems.append(f"status {result['status']}, expected {expect['status']}")
    for key in ("lhs", "rhs"):
        if not math.isclose(result[key], expect[key], rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{key} = {result[key]!r}, expected {expect[key]!r}")
    return problems
