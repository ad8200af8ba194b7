"""The named example systems and their certification behaviour."""

import pytest

from sftlab.builtins import (
    DEFAULT_SUITE,
    FIVE_SYMBOL_COMPLETIONS,
    FIVE_SYMBOL_WALL,
    five_symbol_code,
    five_symbol_no_wall_edges,
    make_builtin,
    product_automorphism,
    shift_builtin,
)
from sftlab.codes import (
    codes_equal,
    compose,
    factor_product_code,
    identity_code,
    pad_code,
    shift_power_of,
)
from sftlab.errors import BadParams, NotInvertibleWithin, ShiftMismatch, UnknownBuiltin
from sftlab.shifts import build_edge_shift, kronecker_product


def test_default_suite_all_construct():
    for name, params in DEFAULT_SUITE:
        shift, auto = make_builtin(name, dict(params))
        assert auto.shift == shift
        assert auto.certificate  # every builtin arrives certified


@pytest.mark.parametrize("name, params", DEFAULT_SUITE)
def test_builtin_lands_on_the_given_shift(name, params):
    shift, _ = make_builtin(name, dict(params))
    again, auto = make_builtin(name, dict(params), shift=shift)
    assert again is shift and auto.shift is shift
    # every track lives on a factor the shift records
    factors = [shift] if shift.product_of is None else list(shift.product_of)
    assert all(any(t.shift is f for f in factors) for t in auto.tracks)
    with pytest.raises(ShiftMismatch, match="lives on"):
        make_builtin(name, dict(params), shift=build_edge_shift([[3]]))


def test_product_builtin_refuses_wrong_factors():
    # the matrix is sigma_x_sigma_inv's [[4]], the factors are not [[2]]
    shift = kronecker_product(build_edge_shift([[4]]), build_edge_shift([[1]]))
    with pytest.raises(ShiftMismatch, match="lives on"):
        make_builtin("sigma_x_sigma_inv", shift=shift)


def test_unknown_names_raise():
    with pytest.raises(UnknownBuiltin):
        make_builtin("no_such_thing")
    with pytest.raises(UnknownBuiltin):
        shift_builtin("no_such_shift")
    with pytest.raises(UnknownBuiltin):
        five_symbol_code("no_such_completion")
    with pytest.raises(UnknownBuiltin):
        five_symbol_code(["swap"])


def test_vertex_swap_is_an_involution():
    shift, auto = make_builtin("vertex_swap_B")
    assert shift.matrix == ((2, 1), (1, 2))
    assert codes_equal(auto.forward, auto.inverse)
    square = compose(auto.forward, auto.forward)
    assert codes_equal(square, identity_code(shift))


def test_symbol_permutation_three_cycle():
    shift, auto = make_builtin(
        "full_shift_symbol_permutation", {"n": 3, "permutation": (1, 2, 0)}
    )
    cube = compose(compose(auto.forward, auto.forward), auto.forward)
    assert codes_equal(cube, identity_code(shift))
    assert not codes_equal(auto.forward, identity_code(shift))


def test_symbol_permutation_rejects_non_permutation():
    with pytest.raises(ValueError):
        make_builtin("full_shift_symbol_permutation", {"n": 2, "permutation": (0, 0)})


def test_each_builtin_refuses_the_params_keys_it_does_not_read():
    reads = {
        "identity": ["shift"],
        "shift": ["shift"],
        "inverse_shift": ["shift"],
        "full_shift_symbol_permutation": ["n", "permutation"],
        "vertex_swap_B": [],
        "five_symbol": ["completion", "R_max"],
        "tau_golden": [],
        "sigma_x_sigma_inv": ["shift"],
        "product": ["left", "right"],
    }
    for name, keys in reads.items():
        for key in ("completoin", "shift", "permutation"):
            if key not in keys:
                with pytest.raises(BadParams, match=f"unknown key.*{key}"):
                    make_builtin(name, {key: None})
    for name, params in DEFAULT_SUITE:
        assert set(params) <= set(reads[name])


def test_tau_golden_is_identity_times_inverse_shift():
    shift, auto = make_builtin("tau_golden")
    golden = shift_builtin("golden_mean")
    assert shift.product_of == (golden, golden)
    left, right = factor_product_code(auto.forward)
    assert shift_power_of(left) == 0
    assert shift_power_of(right) == -1


def test_sigma_x_sigma_inv_tracks():
    shift, auto = make_builtin("sigma_x_sigma_inv")
    left, right = factor_product_code(auto.forward)
    assert shift_power_of(left) == 1
    assert shift_power_of(right) == -1


def test_product_builtin_params():
    shift, auto = make_builtin(
        "product", {"left": ("shift", {}), "right": ("identity", {})}
    )
    assert shift.product_of is not None
    left, right = factor_product_code(auto.forward)
    assert shift_power_of(left) == 1
    assert shift_power_of(right) == 0


def test_product_automorphism_direct():
    _, a = make_builtin("shift")
    _, b = make_builtin("inverse_shift")
    prod = kronecker_product(a.shift, b.shift)
    auto = product_automorphism(a, b, prod)
    assert auto.shift is prod and prod.n_edges == 4
    assert codes_equal(
        auto.power(1), pad_code(auto.forward, 0, 0)
    )  # sanity: power(1) is the forward rule


# -- five-symbol reflection rule -------------------------------------------


def test_five_symbol_no_wall_edges():
    assert five_symbol_no_wall_edges() == (0, 1, 2, 3)
    assert FIVE_SYMBOL_WALL == 4


def test_five_symbol_rule_shape():
    shift, code = five_symbol_code("swap")
    assert shift.n_edges == 5
    assert (code.memory, code.anticipation) == (1, 1)
    # walls are fixed regardless of context
    assert all(
        out == FIVE_SYMBOL_WALL
        for (l, c, r), out in code.rule.items()
        if c == FIVE_SYMBOL_WALL
    )


@pytest.mark.parametrize("completion", ["identity", "swap"])
def test_five_symbol_invertible_completions(completion):
    shift, auto = make_builtin("five_symbol", {"completion": completion})
    assert auto.inverse.memory == auto.inverse.anticipation == 1


@pytest.mark.parametrize("completion", ["first", "second", "wall"])
def test_five_symbol_non_invertible_completions(completion):
    with pytest.raises(NotInvertibleWithin):
        make_builtin("five_symbol", {"completion": completion, "R_max": 1})


def test_five_symbol_completions_cover_the_open_window():
    # the completion only matters on wall-pair-wall windows; elsewhere all
    # completions give the same rule
    _, base = five_symbol_code("identity")
    for name in FIVE_SYMBOL_COMPLETIONS:
        _, other = five_symbol_code(name)
        diffs = {
            w for w in base.rule if base.rule[w] != other.rule[w]
        }
        assert all(
            w[0] == FIVE_SYMBOL_WALL and w[2] == FIVE_SYMBOL_WALL and w[1] != FIVE_SYMBOL_WALL
            for w in diffs
        )
