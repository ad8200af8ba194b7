"""Named example systems: shifts and certified automorphisms.

``make_builtin(name, params, shift)`` returns an (EdgeShift, Automorphism)
pair.  A builtin lives on its own shift or on the one its ``shift``
parameter gives (a shift builtin's name or an EdgeShift; full_2 by
default).  It is built on ``shift``, which must have that matrix, or else
on a new copy; a product builtin builds each track on the factor its
product shift records.  The five-symbol rule's ``completion`` parameter
names the output on the one window its table leaves open (a lone pair
symbol between two walls); see FIVE_SYMBOL_COMPLETIONS.
"""

import itertools

from .codes import (
    SlidingBlockCode,
    identity_code,
    infer_inverse,
    inverse_shift_code,
    product_code,
    shift_code,
    verify_automorphism,
)
from .errors import BadParams, ShiftMismatch, UnknownBuiltin
from .shifts import EdgeShift, build_edge_shift, kronecker_product

GOLDEN_MEAN = ((1, 1), (1, 0))
SWAP_B = ((2, 1), (1, 2))
FULL_5 = ((5,),)

_SHIFT_MATRICES = {
    "golden_mean": GOLDEN_MEAN,
    "full_2": ((2,),),
    "full_3": ((3,),),
    "full_5": FULL_5,
    "vertex_swap_B": SWAP_B,
}

#: Named products of a shift builtin with itself, by the factor's name.
_SQUARES = {"golden_mean_product": "golden_mean", "full_2_product": "full_2"}


def shift_builtin(name):
    """A new copy of a named shift; a product's two factors are one object."""
    if name in _SQUARES:
        factor = shift_builtin(_SQUARES[name])
        return kronecker_product(factor, factor)
    try:
        return build_edge_shift(_SHIFT_MATRICES[name])
    except KeyError:
        raise UnknownBuiltin(f"no shift builtin named {name!r}") from None


def _named_shift(params):
    """The shift a builtin's "shift" parameter gives, as its matrix when it
    names a plain shift builtin, so that checking a shift builds nothing."""
    spec = params.get("shift", "full_2")
    if isinstance(spec, EdgeShift):
        return spec
    if not isinstance(spec, str):
        raise BadParams(f"shift must be a shift builtin's name, got {spec!r}")
    return _SHIFT_MATRICES[spec] if spec in _SHIFT_MATRICES else shift_builtin(spec)


def _param(params, key, default, read=int):
    """``read`` of params[key], else of ``default``; a refusal is BadParams."""
    try:
        return read(params.get(key, default))
    except (TypeError, ValueError) as exc:
        raise BadParams(f"bad {key}: {exc}") from None


# -- five-symbol reflection rule ------------------------------------------
#
# Alphabet: four pair symbols (a, b) with a, b in {0, 1}, plus a wall symbol
# c, as the five edges of the full 5-shift.  Edge i < 4 carries the pair
# (i >> 1, i & 1); edge 4 is the wall.  Away from walls the first track
# pulls from the right and the second track pushes from the left; next to a
# wall the missing neighbour is replaced by the centre's other track.

FIVE_SYMBOL_WALL = 4

FIVE_SYMBOL_COMPLETIONS = {
    "identity": lambda a, b: _pair_edge(a, b),
    "swap": lambda a, b: _pair_edge(b, a),
    "first": lambda a, b: _pair_edge(a, a),
    "second": lambda a, b: _pair_edge(b, b),
    "wall": lambda a, b: FIVE_SYMBOL_WALL,
}


def _pair_edge(a, b):
    return (a << 1) | b


def _pair(e):
    return (e >> 1, e & 1)


def five_symbol_code(completion="swap", shift=None):
    """Forward rule of the five-symbol example on the full 5-shift
    ``shift`` (a new copy when none is given); returns (shift, code).

    Always constructible, for every completion; invertibility is a separate
    question settled by ``infer_inverse``.
    """
    try:
        complete = FIVE_SYMBOL_COMPLETIONS[completion]
    except (KeyError, TypeError):  # TypeError: not a name, nor hashable
        raise UnknownBuiltin(
            f"unknown completion {completion!r}; choose from "
            f"{sorted(FIVE_SYMBOL_COMPLETIONS)}"
        ) from None
    shift = shift or build_edge_shift(FULL_5)
    wall = FIVE_SYMBOL_WALL
    column = []  # one output per window, in rank (lexicographic) order
    for left, centre, right in itertools.product(range(5), repeat=3):
        if centre == wall:
            out = wall
        elif left == wall and right == wall:
            out = complete(*_pair(centre))
        else:
            first = _pair(centre)[1] if right == wall else _pair(right)[0]
            second = _pair(centre)[0] if left == wall else _pair(left)[1]
            out = _pair_edge(first, second)
        column.append(out)
    return shift, SlidingBlockCode.from_column(shift, shift, 1, 1, column)


def five_symbol_no_wall_edges():
    """The four pair edges, i.e. the wall-free subsystem's allowed set."""
    return tuple(e for e in range(5) if e != FIVE_SYMBOL_WALL)


def _identity(params, shift):
    code = identity_code(shift)
    return verify_automorphism(code, code)


def _shift(params, shift):
    return verify_automorphism(shift_code(shift), inverse_shift_code(shift))


def _inverse_shift(params, shift):
    return verify_automorphism(inverse_shift_code(shift), shift_code(shift))


def _full_shift_symbol_permutation(params, shift):
    n = shift.n_edges
    perm = _param(params, "permutation", reversed(range(n)), tuple)
    if not all(isinstance(p, int) for p in perm) or sorted(perm) != list(range(n)):
        raise BadParams(f"not a permutation of 0..{n - 1}: {perm!r}")
    fwd = SlidingBlockCode.from_column(shift, shift, 0, 0, perm)
    inv_perm = [0] * n
    for i, p in enumerate(perm):
        inv_perm[p] = i
    inv = SlidingBlockCode.from_column(shift, shift, 0, 0, inv_perm)
    return verify_automorphism(fwd, inv)


def _vertex_swap_B(params, shift):
    column = [shift.edge_index[(1 - s, 1 - t, c)] for s, t, c in shift.edges]
    code = SlidingBlockCode.from_column(shift, shift, 0, 0, column)
    return verify_automorphism(code, code)


def _five_symbol(params, shift):
    _, code = five_symbol_code(params.get("completion", "swap"), shift)
    return infer_inverse(code, r_max=_param(params, "R_max", 3))


def product_automorphism(left, right, prod):
    """Coordinatewise product of two certified automorphisms on ``prod``,
    a product shift (kronecker_product) of their shifts."""
    fwd = product_code(left.forward, right.forward, prod)
    inv = product_code(left.inverse, right.inverse, prod)
    return verify_automorphism(fwd, inv)


#: Builtins on one shift: name -> (the params keys it reads, its shift or
#: matrix from the params, builder).
_AUTOMORPHISM_BUILTINS = {
    "identity": (("shift",), _named_shift, _identity),
    "shift": (("shift",), _named_shift, _shift),
    "inverse_shift": (("shift",), _named_shift, _inverse_shift),
    "full_shift_symbol_permutation": (
        ("n", "permutation"),
        lambda params: ((_param(params, "n", 2),),),
        _full_shift_symbol_permutation,
    ),
    "vertex_swap_B": ((), lambda params: SWAP_B, _vertex_swap_B),
    "five_symbol": (("completion", "R_max"), lambda params: FULL_5, _five_symbol),
}


def _track(spec):
    """A product builtin's track: its [name, params] pair."""
    name, params = spec
    if not (isinstance(name, str) and isinstance(params, dict)):
        raise ValueError(f"not a [name, params] pair: {spec!r}")
    return name, params


def _tracks(params):
    """The product builtin's two tracks, which have no defaults."""
    missing = [side for side in ("left", "right") if side not in params]
    if missing:
        raise BadParams(f"product needs the tracks {' and '.join(missing)}, [name, params] pairs")
    return tuple(_param(params, side, None, _track) for side in ("left", "right"))


#: Product builtins: name -> (the params keys it reads, the (name, params)
#: of its two tracks).
_PRODUCT_BUILTINS = {
    "product": (("left", "right"), _tracks),
    "tau_golden": ((), lambda params: (
        ("identity", {"shift": "golden_mean"}),
        ("inverse_shift", {"shift": "golden_mean"}),
    )),
    "sigma_x_sigma_inv": (("shift",), lambda params: (
        ("shift", {"shift": params.get("shift", "full_2")}),
        ("inverse_shift", {"shift": params.get("shift", "full_2")}),
    )),
}


def make_builtin(name, params=None, shift=None):
    """Build a named automorphism on ``shift`` (see the module docstring);
    returns (shift, automorphism)."""
    params = params or {}
    if name in _PRODUCT_BUILTINS:
        keys, tracks = _PRODUCT_BUILTINS[name]
        _refuse_unknown_keys(name, params, keys)
        return _product(name, tracks(params), shift)
    try:
        keys, home, build = _AUTOMORPHISM_BUILTINS[name]
    except KeyError:
        raise UnknownBuiltin(f"no automorphism builtin named {name!r}") from None
    _refuse_unknown_keys(name, params, keys)
    own = home(params)
    matrix = getattr(own, "matrix", own)
    if shift is None:
        shift = own if isinstance(own, EdgeShift) else build_edge_shift(matrix)
    elif shift.matrix != matrix:
        own = f"EdgeShift({list(map(list, matrix))})"
        raise ShiftMismatch(f"builtin {name!r} lives on {own}, not on {shift!r}")
    return shift, build(params, shift)


def _refuse_unknown_keys(name, params, keys):
    """BadParams when ``params`` has a key that builtin ``name`` does not
    read, so a misspelt key is not a silent default."""
    unknown = [k for k in params if k not in keys]
    if unknown:
        raise BadParams(f"unknown key(s) {unknown}; {name!r} reads {list(keys)}")


def _factor_key(name, params):
    """The matrix of the shift a builtin lives on; for a product builtin,
    its tracks' keys."""
    if name in _PRODUCT_BUILTINS:
        return tuple(_factor_key(*track) for track in _PRODUCT_BUILTINS[name][1](params))
    own = _AUTOMORPHISM_BUILTINS[name][1](params) if name in _AUTOMORPHISM_BUILTINS else None
    return getattr(own, "matrix", own)


def _product(name, tracks, shift):
    """A product builtin, each track built on the factor ``shift`` records.
    A shift with no factors recorded must equal the product of the tracks'
    own shifts, which the automorphism then lives on, keeping its tracks;
    the shift keeps that product for the builtins of the same factor key."""
    factors = getattr(shift, "product_of", None) or (None, None)
    if shift is not None and factors[0] is None:
        key = tuple(_factor_key(*track) for track in tracks)
        if key in shift._products:
            return _product(name, tracks, shift._products[key])
    (_, left), (_, right) = (make_builtin(*track, factor) for track, factor in zip(tracks, factors))
    prod = shift if factors[0] else kronecker_product(left.shift, right.shift)
    if shift is not None and shift != prod:
        raise ShiftMismatch(f"builtin {name!r} lives on {prod!r}, not on {shift!r}")
    if shift is not None and prod is not shift:
        shift._products[key] = prod
    return prod, product_automorphism(left, right, prod)


#: Default instantiations used by the verification suites.
DEFAULT_SUITE = (
    ("identity", {}),
    ("shift", {}),
    ("inverse_shift", {}),
    ("full_shift_symbol_permutation", {"n": 2, "permutation": (1, 0)}),
    ("vertex_swap_B", {}),
    ("tau_golden", {}),
    ("sigma_x_sigma_inv", {}),
    ("five_symbol", {"completion": "swap"}),
)
