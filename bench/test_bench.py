"""Tests of the benchmark itself: tracer arithmetic, the seeded generator
and the expected-answer derivations.

    python3 -m pytest bench -q
"""

import json
import math
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path[:0] = [BENCH, SRC]

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from sftlab import coding_range  # noqa: E402
from sftlab.builtins import make_builtin  # noqa: E402
from sftlab.codes import SlidingBlockCode, verify_automorphism  # noqa: E402
from sftlab.shifts import build_edge_shift  # noqa: E402


# -- tracer --------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    trace = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        wrapped_leaf()
        clock.advance(3.0)
        wrapped_leaf()

    def top():
        clock.advance(0.5)
        wrapped_middle()
        wrapped_leaf()
        clock.advance(0.25)

    wrapped_leaf = trace.wrap(leaf, "a.leaf")
    wrapped_middle = trace.wrap(middle, "b.middle")
    trace.wrap(top, "a.top")()

    summary = tracer.summarize(trace.spans)
    fns = summary["functions"]
    assert fns["a.leaf"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}
    assert fns["b.middle"] == {"calls": 1, "self_s": 5.0, "total_s": 7.0}
    assert fns["a.top"] == {"calls": 1, "self_s": 0.75, "total_s": 8.75}
    assert summary["layers"] == {
        "a": {"calls": 4, "self_s": 3.75},
        "b": {"calls": 1, "self_s": 5.0},
    }
    assert summary["self_s"] == 8.75  # self times partition the root span


def test_recursion_counts_total_once_and_overlapping_children_once():
    spans = [
        ("m.f", 0.0, 10.0, -1),
        ("m.f", 1.0, 4.0, 0),
        ("m.g", 2.0, 3.0, 1),
        ("m.g", 5.0, 8.0, 0),
        ("m.g", 6.0, 9.0, 0),  # overlaps its sibling: covered once
    ]
    fns = tracer.summarize(spans)["functions"]
    assert fns["m.f"]["total_s"] == 10.0
    assert fns["m.f"]["self_s"] == (10.0 - 3.0 - 4.0) + (3.0 - 1.0)
    assert fns["m.g"]["total_s"] == 1.0 + 3.0 + 3.0


def test_span_dump_round_trips(tmp_path):
    trace = tracer.Tracer()
    trace.wrap(lambda: None, "x.f")()
    trace.add("x.count", 7)
    path = tmp_path / "spans.json"
    trace.dump(path)
    spans, counts = tracer.load(path)
    assert [s[0] for s in spans] == ["x.f"] and spans[0][3] == -1
    assert counts == {"x.count": 7}


_INSTALLED_PROBE = """
import json, sys
import sftlab, sftlab.cli
import tracer
trace = tracer.Tracer()
tracer.install(trace)
_, auto = sftlab.make_builtin("shift")
sftlab.coding_range.coding_range_profile(auto, 3)
names = [s[0] for s in trace.spans]
parents = {trace.spans[s[3]][0] for s in trace.spans if s[0] == "codes.compose"}
print(json.dumps({"counts": trace.counts, "parents": sorted(parents),
                  "w_values": names.count("coding_range.w_values"),
                  "init_bound": sftlab.compose is sftlab.codes.compose}))
"""


def test_install_rebinds_every_reference_and_counts_redundant_powers():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]))
    out = subprocess.run(
        [sys.executable, "-c", _INSTALLED_PROBE],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    got = json.loads(out.stdout)
    assert got["init_bound"] and got["w_values"] == 3
    # compose is reached through codes.power, bound by name in coding_range
    assert got["parents"] == ["codes.power"]
    # sigma on the full 2-shift: phi^2 has 2^3 windows and phi^3 has 2^4, for
    # the map and its inverse; n = 3 rebuilds phi^2 on both sides
    assert got["counts"]["codes.compose.windows"] == 2 * (8 + 8 + 16)
    assert got["counts"]["codes.compose.redundant_windows"] == 2 * 8


# -- generator -----------------------------------------------------------------


def _files(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
        if name != "plan.json"
    }


def test_generator_is_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / n for n in "abc")
    for d in (a, b, c):
        d.mkdir()
    plan_a = workloads.build_plan("exact-dimension", 7, str(a))
    plan_b = workloads.build_plan("exact-dimension", 7, str(b))
    workloads.build_plan("exact-dimension", 8, str(c))
    assert _files(a) == _files(b)
    assert [i["name"] for i in plan_a["items"]] == [i["name"] for i in plan_b["items"]]
    assert [i["expect"] for i in plan_a["items"]] == [i["expect"] for i in plan_b["items"]]
    assert len(_files(a)) == len(workloads.GRAPH_SIZES)
    seeds = {
        tuple(i["name"] for i in workloads.build_plan("exact-dimension", s, str(c))["items"])
        for s in range(6)
    }
    assert len(seeds) > 1  # the seed moves the chords


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_chord_primitivity_matches_sftlab(k):
    for i in range(k):
        for j in range(k):
            shift = build_edge_shift(workloads.cycle_chord_matrix(k, i, j))
            assert workloads.chord_is_primitive(k, i, j) == shift.primitive


def test_fixed_workloads_ignore_the_seed(tmp_path):
    for name in ("suites", "deep-iterates"):
        a, b = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        a.mkdir(), b.mkdir()
        workloads.build_plan(name, 1, str(a))
        workloads.build_plan(name, 2, str(b))
        assert _files(a) == _files(b)


# -- expected-answer derivations ---------------------------------------------


def test_golden_mean_spectrum_and_eb_expectation():
    matrix = workloads.cycle_chord_matrix(2, 0, 0)
    assert matrix == [[1, 1], [1, 0]]
    golden = (1 + math.sqrt(5)) / 2
    lam, min_mod = workloads.spectrum(matrix)
    assert lam == pytest.approx(golden, rel=1e-12)
    assert min_mod == pytest.approx(1 / golden, rel=1e-12)
    eb = workloads.eb_expectation(matrix)
    assert eb["status"] == "NotStrict"  # the golden mean sits on the boundary
    assert eb["lhs"] == pytest.approx(math.log(golden), rel=1e-12)


def _naive_w(code):
    """W^- and W^+ from the literal-definition oracles alone."""
    j = -code.anticipation + 1
    while coding_range.coded_minus_naive(code, j):
        j += 1
    minus = j - 1
    j = code.memory - 1
    while coding_range.coded_plus_naive(code, j):
        j -= 1
    return minus, j + 1


def _naive_profile(auto, n_max):
    rows = [(_naive_w(auto.power(n)), _naive_w(auto.power(-n))) for n in range(1, n_max + 1)]
    return {
        "W_minus": [f[0] for f, _ in rows],
        "W_plus": [f[1] for f, _ in rows],
        "W_minus_inv": [i[0] for _, i in rows],
        "W_plus_inv": [i[1] for _, i in rows],
    }


def _table_code(shift, table):
    rule = {tuple(e["window"]): e["out"] for e in table["rule"]}
    return SlidingBlockCode(shift, shift, table["memory"], table["anticipation"], rule)


@pytest.mark.parametrize("k,i,j", [(2, 0, 0), (3, 1, 1), (3, 2, 1)])
def test_shift_tables_and_their_w_formula_at_small_sizes(k, i, j):
    matrix = workloads.cycle_chord_matrix(k, i, j)
    shift = build_edge_shift(matrix)
    sigma, sigma_inv = workloads.shift_tables(matrix)
    auto = verify_automorphism(_table_code(shift, sigma), _table_code(shift, sigma_inv))
    for s, a in ((1, auto), (-1, auto.inverse_automorphism())):
        want = workloads.shift_power_profile(s, 2)
        got = _naive_profile(a, 2)
        assert got == {key: want[key] for key in got}


def test_five_symbol_w_values_match_the_naive_oracles():
    expected = workloads.load_expected()["deep-iterates"]["five_symbol"]["profile"]["five"]
    _, auto = make_builtin("five_symbol", {"completion": "swap"})
    got = _naive_profile(auto, 2)
    assert got == {key: expected[key][:2] for key in got}


def test_check_report_flags_a_wrong_status():
    expect = workloads.load_expected()["deep-iterates"]["five_symbol_over_budget"]
    assert workloads.check_report(expect, 3, None) == []
    assert workloads.check_report(expect, 0, None) == ["exit code 0, expected 3"]
    expect = {"exit_code": 0, "statuses": {"a/x": "Confirmed"}}
    doc = {"exit_code": 0, "records": [{"name": "a/x", "status": "Consistent"}]}
    assert workloads.check_report(expect, 0, doc) == ["statuses differ at ['a/x']"]


# -- statistics ----------------------------------------------------------------


def test_percentile_keeps_ten_samples_beyond_it():
    assert "p50" not in run.percentile_summary(list(range(20)))
    summary = run.percentile_summary([float(x) for x in range(21)])
    assert summary["median"] == 10.0 and summary["n"] == 21
    assert summary["p52"] == 10.0  # rank 11 of 21: ten samples above it
    summary = run.percentile_summary([float(x) for x in range(100)])
    assert summary["p90"] == 89.0


def test_reference_units_take_each_operations_median_ratio():
    results = [
        {"op_s": [2.0, 0.5], "ref_s": [1.0, 1.0]},   # quiet: ratios 2, 0.5
        {"op_s": [6.0, 1.0], "ref_s": [3.0, 3.0]},   # slowed: 2, 1/3
        {"op_s": [4.0, 2.0], "ref_s": [2.0, 3.0]},   # 2, 2/3
    ]
    assert run.in_reference_units(results) == pytest.approx(2.0 + 0.5)


def test_speed_probe_samples_during_an_operation_and_leaves_them_out():
    def spin(seconds):
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            pass
        return "done"

    with child.SpeedProbe() as probe:
        result, elapsed, reference = probe.timed(spin, 0.5)
    durations = [d for _, d in probe.samples]
    assert result == "done"
    assert len(durations) >= 2 + 2  # the two edges and some from the timer
    inside = sum(durations[1:-1])
    assert elapsed + inside == pytest.approx(0.5, abs=0.05)
    assert reference == pytest.approx(sum(durations) / len(durations))
