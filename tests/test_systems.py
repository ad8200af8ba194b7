"""System files: parsing with located errors, and save/load round-trips."""

import json
import math
from fractions import Fraction

import pytest

from sftlab import builtins, shifts
from sftlab.builtins import DEFAULT_SUITE, make_builtin
from sftlab.codes import codes_equal
from sftlab.errors import (
    NotInverse,
    NotInvertibleWithin,
    ParseError,
    WindowBudgetExceeded,
)
from sftlab.records import format_fraction
from sftlab.shifts import build_edge_shift
from sftlab.cli import main
from sftlab.systems import (
    load_system_file,
    parse_rule,
    parse_shift_spec,
    save_system,
    serialize_automorphism,
    serialize_rule,
    system_file_dict,
)


def write_doc(tmp_path, doc, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# -- fractions --------------------------------------------------------------


def test_fraction_round_trip():
    for value in (Fraction(3), Fraction(-5, 7), Fraction(0), Fraction(22, 4)):
        assert Fraction(format_fraction(value)) == value
    assert format_fraction(Fraction(-5, 7)) == "-5/7"
    assert format_fraction(4) == "4"


# -- shift specs ------------------------------------------------------------


def test_shift_spec_kinds():
    golden = parse_shift_spec({"matrix": [[1, 1], [1, 0]]})
    assert golden.matrix == ((1, 1), (1, 0))
    assert parse_shift_spec({"full_shift": 3}).matrix == ((3,),)
    assert parse_shift_spec({"builtin": "golden_mean"}) == golden
    product = parse_shift_spec(
        {"kronecker": [{"full_shift": 2}, {"full_shift": 2}]}
    )
    assert product.matrix == ((4,),)
    assert product.product_of is not None


@pytest.mark.parametrize(
    "spec, location",
    [
        ({"matrix": [[1, -1], [1, 0]]}, "$.shift.matrix[0][1]"),
        ({"matrix": [[1, 1, 1], [1, 0]]}, "$.shift.matrix[0]"),
        ({"matrix": []}, "$.shift.matrix"),
        ({"matrix": [[0]]}, "$.shift.matrix"),
        ({"full_shift": 0}, "$.shift.full_shift"),
        ({"kronecker": [{"full_shift": 2}]}, "$.shift.kronecker"),
        ({"kronecker": [{"full_shift": 2}, {"full_shift": True}]},
         "$.shift.kronecker[1].full_shift"),
        ({"matrix": [[1]], "full_shift": 2}, "$.shift"),
        ({"wedge": 1}, "$.shift"),
    ],
)
def test_shift_spec_errors_carry_locations(spec, location):
    with pytest.raises(ParseError) as info:
        parse_shift_spec(spec)
    assert info.value.location == location
    assert str(info.value).startswith(location + ": ")


# -- document-level parsing -------------------------------------------------


def test_load_minimal_document(tmp_path):
    path = write_doc(tmp_path, {"shift": {"full_shift": 2}})
    parsed = load_system_file(path)
    assert parsed.shift.matrix == ((2,),)
    assert parsed.automorphisms == {}
    assert parsed.budget is None


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(ParseError) as info:
        load_system_file(tmp_path / "absent.json")
    assert info.value.location == "$"


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert "not valid JSON" in str(info.value)


def test_load_rejects_unknown_top_level_keys(tmp_path):
    path = write_doc(tmp_path, {"shift": {"full_shift": 2}, "extra": 1})
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert "unknown key(s) ['extra']" in str(info.value)


def test_load_validates_tol_and_budget(tmp_path):
    # json writes NaN and Infinity, and reads them back as floats
    for tol in (-1, math.nan, math.inf):
        path = write_doc(tmp_path, {"shift": {"full_shift": 2}, "tol": tol})
        with pytest.raises(ParseError) as info:
            load_system_file(path)
        assert info.value.location == "$.tol"
    path = write_doc(tmp_path, {"shift": {"full_shift": 2}, "budget": 0})
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert info.value.location == "$.budget"


def incomplete_rule_doc():
    # full 2-shift rule table missing the window (1,)
    return {
        "shift": {"full_shift": 2},
        "automorphisms": {
            "f": {
                "forward": {
                    "memory": 0,
                    "anticipation": 0,
                    "rule": [{"window": [0], "out": 0}],
                }
            }
        },
    }


def test_rule_totality_error_is_located(tmp_path):
    path = write_doc(tmp_path, incomplete_rule_doc())
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert info.value.location == "$.automorphisms.f.forward.rule"
    assert "missing window (1,)" in str(info.value)


def test_rule_entry_errors_are_located(tmp_path):
    doc = incomplete_rule_doc()
    rule = doc["automorphisms"]["f"]["forward"]["rule"]
    rule.append({"window": [0], "out": 0})
    path = write_doc(tmp_path, doc)
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert info.value.location == "$.automorphisms.f.forward.rule[1].window"
    assert "duplicate window" in str(info.value)

    rule[1] = {"window": [7], "out": 0}
    path = write_doc(tmp_path, doc)
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert "edge index out of range 0..1" in str(info.value)


def rule_doc(matrix, memory, entries):
    """A document whose one automorphism's forward table is ``entries``."""
    rule = [{"window": list(w), "out": out} for w, out in entries]
    forward = {"memory": memory, "anticipation": 0, "rule": rule}
    return {"shift": {"matrix": matrix}, "automorphisms": {"f": {"forward": forward}}}


def refusal(tmp_path, doc):
    with pytest.raises(ParseError) as info:
        load_system_file(write_doc(tmp_path, doc))
    return info.value.location.removeprefix("$.automorphisms.f.forward"), str(info.value)


def test_rejects_missing_window(tmp_path):
    location, message = refusal(tmp_path, rule_doc([[1, 1], [1, 0]], 1, [((0, 1), 1)]))
    assert location == ".rule"
    assert "rule is not total: missing window (0, 0)" in message


def test_an_explicit_table_is_charged_to_the_budget_once(tmp_path, monkeypatch, capsys):
    charged = []
    ensure_budget = shifts.EdgeShift.ensure_budget

    def counted(shift, length):
        charged.append(length)
        return ensure_budget(shift, length)

    shift, tau = make_builtin("tau_golden")
    monkeypatch.setattr(shifts.EdgeShift, "ensure_budget", counted)
    parse_rule(serialize_rule(tau.forward), shift, "$")
    assert charged == [tau.forward.window + 1]
    # the refusals keep their order: over budget before not total
    golden = [[1, 1], [1, 0]]
    doc = {**rule_doc(golden, 30, [((0,) * 31, 0)]), "budget": 1000}
    assert main(["analyze", str(write_doc(tmp_path, doc))]) == 3
    assert main(["analyze", str(write_doc(tmp_path, rule_doc(golden, 1, [((0, 1), 1)])))]) == 2
    assert "$.automorphisms.f.forward.rule: rule is not total" in capsys.readouterr().err


def test_rejects_inadmissible_window(tmp_path):
    golden = build_edge_shift([[1, 1], [1, 0]])
    entries = [(w, w[0]) for w in golden.words(2)]
    entries.insert(2, ((1, 1), 0))  # edge 1 cannot follow itself
    location, message = refusal(tmp_path, rule_doc([[1, 1], [1, 0]], 1, entries))
    assert location == ".rule[2].window"
    assert "inadmissible window [1, 1]" in message


def test_rejects_bad_output_index(tmp_path):
    location, message = refusal(tmp_path, rule_doc([[2]], 0, [((0,), 0), ((1,), 5)]))
    assert location == ".rule[1].out"
    assert "rule output 5 is not a target edge" in message


def test_rejects_non_composable_outputs_at_the_rule(tmp_path):
    # the constant rule to edge 1 (state 0 -> 1): 1 cannot follow 1
    entries = [((e,), 1) for e in range(3)]
    location, message = refusal(tmp_path, rule_doc([[1, 1], [1, 0]], 0, entries))
    assert location == ".rule"
    assert "not composable" in message


def test_builtin_reference_loads(tmp_path):
    path = write_doc(
        tmp_path,
        {
            "shift": {"matrix": [[2, 1], [1, 2]]},
            "automorphisms": {"t": {"builtin": "vertex_swap_B"}},
        },
    )
    autos = load_system_file(path).automorphisms
    _, expected = make_builtin("vertex_swap_B")
    assert codes_equal(autos["t"].forward, expected.forward)


def test_builtin_on_wrong_shift_is_an_error(tmp_path):
    path = write_doc(
        tmp_path,
        {
            "shift": {"full_shift": 2},
            "automorphisms": {"t": {"builtin": "vertex_swap_B"}},
        },
    )
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert info.value.location == "$.automorphisms.t"
    assert "lives on" in str(info.value)


def test_builtins_live_on_the_file_shift(tmp_path):
    for spec, names in (
        ({"full_shift": 2}, ("shift", "identity")),
        ({"builtin": "golden_mean_product"}, ("tau_golden",)),
    ):
        autos = {name: {"builtin": name} for name in names}
        parsed = load_system_file(write_doc(tmp_path, {"shift": spec, "automorphisms": autos}))
        assert all(auto.shift is parsed.shift for auto in parsed.automorphisms.values())


def _product_spec(left, right):
    return {"builtin": "product", "params": {"left": left, "right": right}}


@pytest.mark.parametrize(
    "n, spec",
    [
        (2, {"builtin": "full_shift_symbol_permutation", "params": {"n": "x"}}),
        (2, {"builtin": "identity", "params": {"shift": [2]}}),
        (2, {"builtin": "full_shift_symbol_permutation", "params": {"permutation": [0, 0]}}),
        (2, {"builtin": "full_shift_symbol_permutation", "params": {"permutation": 5}}),
        (5, {"builtin": "five_symbol", "params": {"R_max": "x"}}),
        (4, {"builtin": "sigma_x_sigma_inv", "params": {"shift": {}}}),
        (4, _product_spec(["identity", 5], ["shift", {}])),
        (4, {"builtin": "product", "params": {"left": ["identity", {}]}}),
        # a key the builtin does not read, also in a product's track
        (5, {"builtin": "five_symbol", "params": {"completoin": "wall"}}),
        (5, {"builtin": "five_symbol", "params": {"permutation": [0, 0]}}),
        (4, _product_spec(["identity", {"shfit": "full_2"}], ["shift", {}])),
        (4, {"builtin": "tau_golden", "params": {"shift": "full_2"}}),
    ],
)
def test_bad_builtin_params_are_located(tmp_path, n, spec):
    path = write_doc(tmp_path, {"shift": {"full_shift": n}, "automorphisms": {"p": spec}})
    with pytest.raises(ParseError) as info:
        load_system_file(path)
    assert info.value.location == "$.automorphisms.p.params"


@pytest.mark.parametrize("error", [KeyError, TypeError, ValueError])
def test_errors_while_a_builtin_is_built_are_not_params_errors(tmp_path, monkeypatch, error):
    # only the reading of params is the file's fault; a failure after it
    # propagates as it was raised
    def broken(*codes):
        raise error("raised while building")

    monkeypatch.setattr(builtins, "verify_automorphism", broken)
    doc = {"shift": {"full_shift": 2}, "automorphisms": {"p": {"builtin": "identity"}}}
    path = write_doc(tmp_path, doc)
    with pytest.raises(error, match="raised while building"):
        load_system_file(path)


def test_file_budget_bounds_builtins(tmp_path):
    # five_symbol's inverse search starts on 5^3 = 125 windows
    five = {"builtin": "five_symbol", "params": {"completion": "swap"}}
    doc = {"shift": {"full_shift": 5}, "budget": 100, "automorphisms": {"five": five}}
    with pytest.raises(WindowBudgetExceeded, match="needs 125 words, budget is 100"):
        load_system_file(write_doc(tmp_path, doc))
    del doc["budget"]
    assert load_system_file(write_doc(tmp_path, doc)).automorphisms["five"].shift.n_edges == 5


def test_product_builtins_share_a_product_shift_per_factor_structure(tmp_path):
    # the 6-shift has no recorded factors: products of 2 x 3 share one
    # product shift whatever their tracks' builtins, 3 x 2 gets its own,
    # and a rule table keeps the file's
    on_2, on_3 = ["shift", {"shift": "full_2"}], ["identity", {"shift": "full_3"}]
    _, identity = make_builtin("identity", {"shift": build_edge_shift([[6]])})
    doc = {
        "shift": {"full_shift": 6},
        "automorphisms": {
            "a": _product_spec(on_2, on_3),
            "b": _product_spec(on_3, on_2),
            "c": _product_spec(on_2, on_3),
            "d": _product_spec(["identity", {"shift": "full_2"}], on_3),
            "t": serialize_automorphism(identity),
        },
    }
    parsed = load_system_file(write_doc(tmp_path, doc))
    a, b, c, d, t = (parsed.automorphisms[name].shift for name in "abcdt")
    assert a is c is d and a is not b and a is not parsed.shift
    assert [f.matrix for f in a.product_of] == [((2,),), ((3,),)]
    assert [f.matrix for f in b.product_of] == [((3,),), ((2,),)]
    assert t is parsed.shift


def test_product_builtins_on_one_file_compute_dimension_data_once(tmp_path, monkeypatch):
    calls = []
    real = shifts._eventual_range
    monkeypatch.setattr(shifts, "_eventual_range", lambda s: calls.append(s) or real(s))
    sxs = {"builtin": "sigma_x_sigma_inv"}
    path = write_doc(tmp_path, {"shift": {"full_shift": 4}, "automorphisms": {"a": sxs, "b": sxs}})
    assert main(["analyze", str(path), "--n-max", "2"]) == 0
    assert len(calls) == 1


def test_wrong_explicit_inverse_propagates_witness(tmp_path):
    _, shift_auto = make_builtin("shift")
    doc = {
        "shift": {"full_shift": 2},
        "automorphisms": {
            "bad": {
                "forward": serialize_automorphism(shift_auto)["forward"],
                # identity is not the inverse of the shift
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
    path = write_doc(tmp_path, doc)
    with pytest.raises(NotInverse):
        load_system_file(path)


def test_inference_respects_r_max(tmp_path):
    _, shift_auto = make_builtin("shift")
    doc = {
        "shift": {"full_shift": 2},
        "automorphisms": {
            "s": {
                "forward": serialize_automorphism(shift_auto)["forward"],
                "inverse": "infer",
                "R_max": 2,
            }
        },
    }
    path = write_doc(tmp_path, doc)
    autos = load_system_file(path).automorphisms
    assert codes_equal(autos["s"].inverse, shift_auto.inverse)

    # the xor rule has no inverse at any radius
    doc["automorphisms"]["s"]["forward"] = {
        "memory": 0,
        "anticipation": 1,
        "rule": [
            {"window": [a, b], "out": a ^ b} for a in (0, 1) for b in (0, 1)
        ],
    }
    path = write_doc(tmp_path, doc)
    with pytest.raises(NotInvertibleWithin):
        load_system_file(path)


def test_env_budget_stops_rule_validation(tmp_path, monkeypatch):
    _, tau = make_builtin("tau_golden")
    shift, _ = make_builtin("tau_golden")
    path = tmp_path / "tau.json"
    save_system(path, shift, {"tau": tau})
    monkeypatch.setenv("SFTLAB_BUDGET", "10")
    with pytest.raises(WindowBudgetExceeded):
        load_system_file(path)


# -- serialization ----------------------------------------------------------


@pytest.mark.parametrize("name, params", DEFAULT_SUITE)
def test_save_load_round_trip(tmp_path, name, params):
    shift, auto = make_builtin(name, dict(params))
    path = tmp_path / f"{name}.json"
    save_system(path, shift, {"a": auto})
    loaded = load_system_file(path)
    assert loaded.shift == shift
    assert (loaded.shift.product_of is not None) == (shift.product_of is not None)
    assert codes_equal(loaded.automorphisms["a"].forward, auto.forward)
    assert codes_equal(loaded.automorphisms["a"].inverse, auto.inverse)


def test_save_preserves_tol_and_budget(tmp_path):
    shift = build_edge_shift([[2]])
    path = tmp_path / "system.json"
    save_system(path, shift, {}, tol=1e-8, budget=5000)
    parsed = load_system_file(path)
    assert parsed.tol == 1e-8
    assert parsed.budget == 5000


def test_system_file_dict_is_json_ready():
    shift, auto = make_builtin("tau_golden")
    doc = system_file_dict(shift, {"tau": auto})
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert "kronecker" in doc["shift"]
