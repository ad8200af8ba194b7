"""End-to-end command-line behavior: output, JSON artifacts, exit codes."""

import argparse
import json
import math
import os
from pathlib import Path
import subprocess
import sys

import pytest

from sftlab import cli, shifts
from sftlab.builtins import make_builtin, product_automorphism
from sftlab.cli import main
from sftlab.codes import identity_code, inverse_shift_code, shift_code, verify_automorphism
from sftlab.shifts import build_edge_shift, kronecker_product
from sftlab.systems import save_system


@pytest.fixture
def swap_file(tmp_path):
    shift, auto = make_builtin("vertex_swap_B")
    path = tmp_path / "swap.json"
    save_system(path, shift, {"t": auto})
    return str(path)


@pytest.fixture
def tau_file(tmp_path):
    shift, auto = make_builtin("tau_golden")
    path = tmp_path / "tau.json"
    save_system(path, shift, {"tau": auto})
    return str(path)


@pytest.fixture
def reducible_file(tmp_path):
    shift = build_edge_shift([[1, 1], [0, 2]])
    ident = verify_automorphism(identity_code(shift), identity_code(shift))
    sigma = verify_automorphism(shift_code(shift), inverse_shift_code(shift))
    path = tmp_path / "reducible.json"
    save_system(path, shift, {"a": ident, "b": ident, "s": sigma})
    return str(path)


@pytest.fixture
def nilpotent_file(tmp_path):
    table = {"memory": 0, "anticipation": 0, "rule": [{"window": [0], "out": 0}]}
    doc = {
        "shift": {"matrix": [[0, 1], [0, 0]]},
        "automorphisms": {"id": {"forward": table, "inverse": table}},
    }
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- analyze ----------------------------------------------------------------


def test_analyze_prints_a_report(swap_file, capsys):
    assert main(["analyze", swap_file]) == 0
    out = capsys.readouterr().out
    assert "logs: nats" in out
    assert "t/coding-range" in out
    assert "t/dimension-action" in out
    assert "exit code: 0" in out


def test_analyze_json_artifact(swap_file, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert main(["analyze", swap_file, "--json", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    assert doc["exit_code"] == 0
    assert doc["payload"]["t"]["S_phi"] == [["0", "1"], ["1", "0"]]
    assert doc["payload"]["t"]["profile"]["W_minus"] == [0, 0, 0]


def test_main_builds_one_parser_and_no_option_carries_over(swap_file, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    options = []
    for extra in (["--w", "1"], []):
        json_path = tmp_path / "report.json"
        assert main(["analyze", swap_file, *extra, "--json", str(json_path)]) == 0
        options.append(json.loads(json_path.read_text())["options"])
    assert built.count("sftlab") == 1
    assert [o["w"] for o in options] == [1, None]
    assert options[0] == {**options[1], "w": 1}


def test_analyze_single_automorphism_with_entropy_bound(tau_file, capsys):
    assert main(["analyze", tau_file, "--auto", "tau"]) == 0
    out = capsys.readouterr().out
    assert "tau/entropy-bound" in out
    assert "tau/main-bounds" in out


def _readme_tau():
    """The README's tau.json example: (system file text, printed table)."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    system = readme.split("$ cat tau.json\n", 1)[1].split("$ sftlab", 1)[0]
    table = readme.split("$ sftlab analyze tau.json --n-max 4\n", 1)[1]
    return system, table.split("```", 1)[0]


def test_readme_python_blocks_run_as_shown(capsys, monkeypatch):
    # every python block of the README, in order, in one namespace, gives
    # the values its comments state
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    namespace = {}
    for block in readme.split("```python\n")[1:]:
        exec(block.split("```", 1)[0], namespace)
    assert namespace["census"].count == 168
    assert namespace["check"].status == "Confirmed"
    assert capsys.readouterr().out == "144 100\n"
    assert namespace["again"].shift is namespace["tau"].shift


def test_analyze_prints_the_readme_table(tmp_path, capsys, monkeypatch, golden):
    # the README's tau.json example, input and output, verbatim
    system, table = _readme_tau()
    (tmp_path / "tau.json").write_text(system)
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", "tau.json", "--n-max", "4", "--json", "tau-report.json"]) == 0
    assert capsys.readouterr().out == table
    doc = json.loads((tmp_path / "tau-report.json").read_text())
    for record in doc["records"]:
        record["runtime_ms"] = None
    golden("analyze-tau.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_analyze_values_do_not_depend_on_tol(tmp_path, capsys):
    # the verdict band decides statuses; the numbers come from the Perron
    # kernel, one certified enclosure per shift and direction at a fixed
    # precision
    system, _ = _readme_tau()
    (tmp_path / "tau.json").write_text(system)
    json_path = tmp_path / "report.json"
    lhs = []
    for tol_args in ([], ["--tol", "0.5"]):
        args = ["analyze", str(tmp_path / "tau.json"), "--json", str(json_path), *tol_args]
        assert main(args) == 0
        lhs.append({r["name"]: r["lhs"] for r in json.loads(json_path.read_text())["records"]})
    assert lhs[1] == lhs[0]
    assert lhs[1]["tau/main-bounds"] == 1.4436354751788105


def test_analyze_builds_dimension_data_once_per_file(tmp_path, monkeypatch, capsys):
    shift, swap = make_builtin("vertex_swap_B")
    path = tmp_path / "two.json"
    save_system(path, shift, {"a": swap, "b": swap.inverse_automorphism()})
    calls = []
    compute = shifts._eventual_range

    def counted(arg):
        calls.append(arg)
        return compute(arg)

    monkeypatch.setattr(shifts, "_eventual_range", counted)
    assert main(["analyze", str(path)]) == 0
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "a/dimension-action" in out and "b/dimension-action" in out
    # two builtins are built on the file's one shift: the README's tau.json
    # with a second tau_golden entry
    golden = {"builtin": "golden_mean"}
    tau = {"builtin": "tau_golden"}
    doc = {"shift": {"kronecker": [golden, golden]}, "automorphisms": {"tau": tau, "tau2": tau}}
    path.write_text(json.dumps(doc))
    calls.clear()
    assert main(["analyze", str(path)]) == 0
    assert len(calls) == 1
    assert "tau2/dimension-action" in capsys.readouterr().out


def test_analyze_runs_the_perron_kernel_once_each_way(tmp_path, monkeypatch, capsys):
    # main-bounds and the exact entropy of a shift power both read the
    # Perron data of the one shift (the kernel on A), and both dimension
    # actions its left Perron direction (the kernel on A^T)
    shift, sigma = make_builtin("shift", {"shift": build_edge_shift([[1, 2], [1, 0]])})
    path = tmp_path / "shift.json"
    save_system(path, shift, {"s": sigma, "s_inv": sigma.inverse_automorphism()})
    calls = []

    def counted(matrix, kernel=shifts._perron_kernel):
        calls.append(matrix)
        return kernel(matrix)

    monkeypatch.setattr(shifts, "_perron_kernel", counted)
    assert main(["analyze", str(path)]) == 0
    assert sorted(calls) == [((1, 1), (2, 0)), ((1, 2), (1, 0))]
    out = capsys.readouterr().out
    assert "s/entropy-bound" in out and "s_inv/entropy-bound" in out


def test_analyze_dimension_failure_marks_every_automorphism(reducible_file, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    assert main(["analyze", reducible_file, "--json", str(json_path)]) == 0
    records = {r["name"]: r for r in json.loads(json_path.read_text())["records"]}
    for name in ("a", "b", "s"):
        record = records[f"{name}/dimension-action"]
        assert record["status"] == "Inconclusive"
        assert record["detail"] == "dimension action needs an irreducible shift"
        # the identity's window-1 codes need no half-line scan, but the
        # coding range is refused on this shift all the same
        record = records[f"{name}/coding-range"]
        assert record["status"] == "Inconclusive"
        assert record["detail"] == "coding-range analysis needs an irreducible shift"
        assert f"{name}/lyapunov" not in records and f"{name}/main-bounds" not in records


def test_analyze_golden_times_cycle_identity(tmp_path, capsys):
    # a product with a zero-entropy track; its exponent must not enter the
    # exact slopes
    _, sigma = make_builtin("shift", {"shift": build_edge_shift([[1, 1], [1, 0]])})
    _, ident = make_builtin("identity", {"shift": build_edge_shift([[0, 1], [1, 0]])})
    shift = kronecker_product(sigma.shift, ident.shift)
    auto = product_automorphism(sigma, ident, shift)
    path = tmp_path / "golden_x_cycle.json"
    save_system(path, shift, {"g": auto})
    json_path = tmp_path / "report.json"
    assert main(["analyze", str(path), "--w", "1", "--json", str(json_path)]) == 0
    records = {r["name"]: r for r in json.loads(json_path.read_text())["records"]}
    assert records["g/lyapunov"]["detail"].startswith("method=exact-product")
    assert all(r["status"] == "Confirmed" for r in records.values())


@pytest.mark.parametrize(
    "spec", [{"full_shift": 4}, {"matrix": [[4]]}, {"builtin": "full_2_product"}]
)
def test_analyze_sigma_x_sigma_inv_on_every_4_shift_spec(tmp_path, capsys, spec):
    # a [[4]] without product factors gets the builtin's own product shift,
    # so the automorphism keeps its two tracks and the same records
    path = tmp_path / "sxs.json"
    path.write_text(json.dumps({"shift": spec, "automorphisms": {"s": {"builtin": "sigma_x_sigma_inv"}}}))
    json_path = tmp_path / "report.json"
    assert main(["analyze", str(path), "--w", "1", "--json", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    records = [(r["name"], r["status"], r["lhs"], r["rhs"], r["detail"]) for r in doc["records"]]
    assert records == [
        ("s/coding-range", "Confirmed", "W^- (-1, -2, -3)", "W^+ (1, 2, 3)", "n_max=3"),
        ("s/lyapunov", "Confirmed", "[-1,-1]", "[1,1]", "method=exact-product verdict=certified-not-distorted"),
        ("s/dimension-action", "Confirmed", "lambda=1", "rho=1", "inert=True order=1"),
        ("s/main-bounds", "Confirmed", math.log(4), None, "5 component checks"),
        ("s/entropy-bound", "Confirmed", 0.0, math.log(4), "exact h_top=1.386294"),
        ("s/column-census", "Confirmed", math.log(4096) / 4, None, "count=4096 method=product-form"),
    ]


def test_acceptance_leaves_numpy_ma_unimported():
    # numpy loads numpy.ma lazily, e.g. from np.unique; sftlab has no use for it
    script = (
        "import sys; from sftlab.cli import main; main(['suite', 'acceptance']); "
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines()[-1] == "False"


def test_analyze_census_option(tau_file, tmp_path):
    json_path = tmp_path / "census.json"
    assert main(["analyze", tau_file, "--w", "1", "--steps", "2", "--json", str(json_path)]) == 0
    census = json.loads(json_path.read_text())["payload"]["tau"]["census"]
    assert census == {
        "w": 1,
        "n": 2,
        "count": 104,
        "estimate": pytest.approx(0.5 * 4.644390899),
        "certified": True,
        "method": "product-form",
    }


def test_analyze_census_on_a_shift_with_no_points_is_inconclusive(
    nilpotent_file, tmp_path, capsys
):
    json_path = tmp_path / "report.json"
    assert main(["analyze", nilpotent_file, "--w", "0", "--json", str(json_path)]) == 0
    report = json.loads(json_path.read_text())
    records = {r["name"]: r for r in report["records"]}
    assert records["id/column-census"]["status"] == "Inconclusive"
    assert records["id/column-census"]["detail"] == "A^k = 0; the shift has no points"
    assert "census" not in report["payload"]["id"]


def test_analyze_unknown_automorphism(swap_file, capsys):
    assert main(["analyze", swap_file, "--auto", "ghost"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "['t']" in err


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/system.json"]) == 2
    assert "input error: $:" in capsys.readouterr().err


def test_analyze_bad_matrix_entry(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"shift": {"matrix": [[1, -1], [1, 0]]}}))
    assert main(["analyze", str(path)]) == 2
    assert "$.shift.matrix[0][1]" in capsys.readouterr().err


def test_analyze_honors_budget_env(tau_file, monkeypatch, capsys):
    monkeypatch.setenv("SFTLAB_BUDGET", "10")
    assert main(["analyze", tau_file]) == 3
    assert "budget exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5"])
def test_analyze_rejects_a_malformed_budget_env(tau_file, monkeypatch, capsys, value):
    monkeypatch.setenv("SFTLAB_BUDGET", value)
    assert main(["analyze", tau_file]) == 2
    assert "input error: SFTLAB_BUDGET" in capsys.readouterr().err


def test_analyze_over_budget_leaves_the_next_run_unchanged(tmp_path, monkeypatch, capsys):
    # one interpreter: a file's budget ends with its run
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    five = {"builtin": "five_symbol", "params": {"completion": "swap"}}
    doc = {"shift": {"full_shift": 5}, "automorphisms": {"five": five}}
    plain, over, out = tmp_path / "plain.json", tmp_path / "over.json", tmp_path / "out.json"
    plain.write_text(json.dumps(doc))
    over.write_text(json.dumps({**doc, "budget": 20000}))

    def report():
        assert main(["analyze", str(plain), "--n-max", "3", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        for record in doc["records"]:
            record["runtime_ms"] = None
        return doc

    first = report()
    capsys.readouterr()
    assert main(["analyze", str(over), "--n-max", "3"]) == 3
    assert "needs 78125 words, budget is 20000" in capsys.readouterr().err
    assert report() == first
    assert first["budget"] == shifts.DEFAULT_BUDGET


def test_analyze_exits_3_where_the_bench_over_budget_item_does(tmp_path, monkeypatch, capsys):
    # the benchmark's five_symbol_over_budget item: phi^3 needs 5^7 words
    monkeypatch.delenv("SFTLAB_BUDGET", raising=False)
    five = {"builtin": "five_symbol", "params": {"completion": "swap"}}
    system = tmp_path / "five_symbol_over_budget.json"
    system.write_text(json.dumps(
        {"shift": {"full_shift": 5}, "budget": 20000, "automorphisms": {"five": five}}
    ))
    assert main(["analyze", str(system), "--n-max", "3"]) == 3
    assert "needs 78125 words, budget is 20000" in capsys.readouterr().err
    assert main(["analyze", str(system), "--n-max", "2"]) == 0


@pytest.mark.parametrize(
    "params", [{"builtin": "full_shift_symbol_permutation", "params": {"n": "x"}},
               {"builtin": "identity", "params": {"shift": [2]}}]
)
def test_analyze_bad_builtin_params_is_an_input_error(tmp_path, capsys, params):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"shift": {"full_shift": 2}, "automorphisms": {"p": params}}))
    assert main(["analyze", str(path)]) == 2
    assert "$.automorphisms.p.params" in capsys.readouterr().err


@pytest.mark.parametrize("params", [{"completoin": "wall"}, {"permutation": [0, 0]}])
def test_analyze_unknown_builtin_param_keys_are_input_errors(tmp_path, capsys, params):
    # a misspelt key is refused, not read as the default completion
    five = {"builtin": "five_symbol", "params": params}
    path = tmp_path / "five.json"
    path.write_text(json.dumps({"shift": {"full_shift": 5}, "automorphisms": {"five": five}}))
    assert main(["analyze", str(path), "--n-max", "1"]) == 2
    err = capsys.readouterr().err
    assert "$.automorphisms.five.params" in err and "unknown key(s)" in err


def test_analyze_wrong_inverse_is_an_input_error(tmp_path, capsys):
    _, shift_auto = make_builtin("shift")
    doc = {
        "shift": {"full_shift": 2},
        "automorphisms": {
            "bad": {
                "forward": {
                    "memory": 1,
                    "anticipation": 1,
                    "rule": [
                        {"window": [a, b, c], "out": c}
                        for a in (0, 1)
                        for b in (0, 1)
                        for c in (0, 1)
                    ],
                },
                "inverse": {
                    "memory": 0,
                    "anticipation": 0,
                    "rule": [
                        {"window": [0], "out": 0},
                        {"window": [1], "out": 1},
                    ],
                },
            }
        },
    }
    path = tmp_path / "noninverse.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


# -- every command ends in a verdict or a refusal ----------------------------


@pytest.mark.parametrize(
    "argv, code",
    [
        (["suite", "profile", "--auto", "product"], 2),  # no default tracks
        (["spectra", "check", "--poly", "[1]"], 2),  # constant polynomials
        (["spectra", "search", "--poly", "[1]"], 2),
        (["suite", "spectra", "--poly", "[1]"], 2),
        (["suite", "profile", "--auto", "nosuch"], 2),
        (["suite", "spectra", "--poly", "[1,0]"], 2),
        (["spectra", "search", "--poly", "[1,-2,1]"], 2),
        (["spectra", "check", "--poly", "[1,-2]"], 1),
        (["analyze", "NILPOTENT", "--w", "0"], 0),
        (["analyze", "REDUCIBLE", "--w", "0"], 0),
    ],
)
def test_cli_ends_in_a_verdict_or_a_refusal(reducible_file, nilpotent_file, capsys, argv, code):
    files = {"NILPOTENT": nilpotent_file, "REDUCIBLE": reducible_file}
    assert main([files.get(a, a) for a in argv]) == code
    out, err = capsys.readouterr()
    if argv == ["suite", "profile", "--auto", "product"]:
        assert "--auto product" in err and "tracks left and right" in err
    if code == 2:
        assert err.startswith("input error: ")
    else:
        assert f"exit code: {code}" in out
    if code == 1:
        assert "Violated" in out


# -- suite ------------------------------------------------------------------


def test_suite_profile(capsys):
    assert main(["suite", "profile", "--auto", "shift", "--n-max", "3"]) == 0
    assert "lyapunov-enclosure" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "FILE", "--n-max", "0"],
        ["analyze", "FILE", "--n-max", "-1"],
        ["analyze", "FILE", "--w", "-1"],
        ["analyze", "FILE", "--w", "1", "--steps", "0"],
        ["analyze", "FILE", "--tol", "-1"],
        ["analyze", "FILE", "--tol", "0"],
        ["analyze", "FILE", "--tol", "nan"],
        ["analyze", "FILE", "--tol", "inf"],
        ["suite", "profile", "--n-max", "0"],
        ["suite", "theorem-4", "--n-max", "0"],
        ["suite", "spectra", "--N", "-3"],
        ["suite", "acceptance", "--tol", "-1"],
        ["spectra", "check", "--poly", "[1,-5,-6,1]", "--N", "0"],
        ["spectra", "search", "--poly", "[1,-5,-6,1]", "--budget", "nan"],
        ["spectra", "search", "--poly", "[1,-5,-6,1]", "--budget", "-5"],
        ["spectra", "search", "--poly", "[1,-5,-6,1]", "--max-size", "-1"],
        ["spectra", "search", "--poly", "[1,-5,-6,1]", "--max-entry", "-1"],
    ],
)
def test_bad_numeric_options_are_usage_errors(tau_file, capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([tau_file if a == "FILE" else a for a in argv])
    assert info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_suite_rejects_unknown_name(capsys):
    with pytest.raises(SystemExit) as info:
        main(["suite", "nope"])
    assert info.value.code == 2


def test_suite_spectra_accepts_poly(tmp_path):
    json_path = tmp_path / "suite.json"
    code = main(["suite", "spectra", "--poly", "[1,-5,-6,1]", "--json", str(json_path)])
    assert code == 0
    doc = json.loads(json_path.read_text())
    assert doc["payload"]["matrix"] == [[5, 1, 0], [5, 0, 1], [4, 1, 0]]


# -- spectra check ----------------------------------------------------------


def test_spectra_check_passes_on_cubic(capsys):
    assert main(["spectra", "check", "--poly", "[1,-5,-6,1]"]) == 0
    out = capsys.readouterr().out
    assert "condition-reciprocal" in out
    assert "Violated" not in out


def test_spectra_check_flags_full_shift(capsys):
    assert main(["spectra", "check", "--poly", "[1,-2]"]) == 1
    assert "Violated" in capsys.readouterr().out


def test_spectra_check_bad_poly_inputs(capsys):
    assert main(["spectra", "check", "--poly", "not json"]) == 2
    assert main(["spectra", "check", "--poly", "[2,-1]"]) == 2
    err = capsys.readouterr().err
    assert "input error: --poly" in err
    assert "leading coefficient is 2" in err


# -- spectra search ---------------------------------------------------------


def test_spectra_search_prints_matrix_and_verdict(tmp_path, capsys, golden):
    json_path = tmp_path / "search.json"
    code = main(
        ["spectra", "search", "--poly", "[1,-5,-6,1]", "--json", str(json_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[5, 1, 0]" in out
    assert "characteristic polynomial: t^3 - 5t^2 - 6t + 1" in out
    assert "inverse-spectral-radius check: Confirmed" in out
    doc = json.loads(json_path.read_text())
    assert doc["matrix"] == [[5, 1, 0], [5, 0, 1], [4, 1, 0]]
    assert doc["eb_failure"]["status"] == "Confirmed"
    golden("spectra-search.json", json_path.read_text())


def test_spectra_search_padding_case(capsys):
    assert main(["spectra", "search", "--poly", "[1,-9]", "--max-entry", "8"]) == 0
    assert "[8, 1]" in capsys.readouterr().out


def test_spectra_search_exhaustion_is_not_an_error(tmp_path, capsys):
    json_path = tmp_path / "empty.json"
    code = main(
        ["spectra", "search", "--poly", "[1,-5,-6,1]", "--budget", "0",
         "--json", str(json_path)]
    )
    assert code == 0
    assert "no primitive realization" in capsys.readouterr().out
    assert json.loads(json_path.read_text())["matrix"] is None


def test_spectra_search_precondition_failure(capsys):
    assert main(["spectra", "search", "--poly", "[1,0,1]"]) == 2
    assert "dominant-root and net-trace" in capsys.readouterr().err
