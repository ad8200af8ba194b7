"""Rays, beams, theta classes, and the exact induced action.

Claims covered:
    - ray normal forms: equal tails compare equal regardless of presentation
    - beams validate levels/distinctness; count vectors are per-state tallies
    - theta is exact, level-independent, and additive under refinement
    - Delta^-1 is built when theta first asks: analyze and the eb-failure
      witness on a 24-cycle plus a chord never invert, and a copy of the
      dimension data builds its own
    - the unstable measure refines consistently, scales by lambda_phi under
      the automorphism, and equals the pairing of theta with the Perron
      eigenvector
    - dimension_matrix reproduces hand-checked matrices on the examples and
      is functorial (squares, inverses, compositions), and its consistency
      and commutation checks fire on a code that is no automorphism
    - the inequality verifiers return the designed statuses
    - lambda_phi matches numpy's Perron root where a power iteration
      would converge slowly
    - the finite order is exact past 64 (Phi_7 Phi_12 gives 84) and needs
      S^N = I besides a cyclotomic characteristic polynomial
    - dimension_matrix equals the theta/Delta^-1 reference route, and ray
      images equal per-window lookups, on every builtin with its inverse and
      square and on seeded cycle-plus-chord graphs
    - verify_main_bounds' five rows give the records of the per-component
      branches they replaced, on the same builtins and cycle-plus-chord graphs
    - the Perron kernel's Collatz-Wielandt enclosure, on A and on A^T,
      holds the 40-digit root and is at most 1e-13 of it wide, and the two
      intersect, on seeded cycle-plus-chord graphs up to k = 180, random
      irreducible matrices, [[2]], a period-2 swap and a skewed 12-cycle;
      perron_left is the kernel's vector on A^T at the pivots
    - a ray whose tail holds a non-edge is refused
"""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_perron_root, rule_code
from test_ratmat import int_where_integral
from sftlab import codes, ratmat
from sftlab.builtins import DEFAULT_SUITE, make_builtin
from sftlab.codes import automorphism_power, compose_automorphisms
from sftlab.coding_range import coding_range_profile, lyapunov_bounds, w_values
from sftlab.dimension import (
    Beam,
    Ray,
    _abs_interval,
    _bound,
    apply_automorphism_to_ray,
    _finite_order,
    canonical_zero_ray,
    dimension_matrix,
    distortion_spectrum_check,
    lambda_phi_of,
    refine_ray,
    theta,
    unstable_measure,
    verify_entropy_bound,
    verify_main_bounds,
)
from sftlab.errors import (
    InadmissibleWord,
    InconsistentSystem,
    InternalInvariantViolation,
    PreconditionFailed,
    ReducibleInput,
    WindowBudgetExceeded,
)
from sftlab.cli import main
from sftlab.records import CheckRecord
from sftlab.shifts import (
    DEFAULT_TOL,
    _perron_kernel,
    build_edge_shift,
    dimension_data,
    distinct_roots,
    perron_data,
    window_budget,
)
from sftlab.spectra import verify_eb_failure
from sftlab.systems import save_system

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = [[1, 1], [1, 0]]


# -- rays and beams ---------------------------------------------------------


def test_ray_normal_form_equality():
    full2 = build_edge_shift([[2]])
    a = Ray(full2, 0, (0,), ())
    b = Ray(full2, 0, (0, 0), ())  # non-primitive cycle presentation
    c = Ray(full2, 0, (0,), (0,))  # transient continuing the cycle
    assert a == b == c
    assert len({a, b, c}) == 1
    assert a != Ray(full2, 0, (1,), ())
    assert a != Ray(full2, 1, (0,), ())


def test_ray_tail_edges():
    golden = build_edge_shift(GOLDEN)
    # ...(1 2) repeating, then edge 0 at the level
    ray = Ray(golden, 0, (1, 2), (0,))
    assert ray.word(-4, 0) == (1, 2, 1, 2, 0)
    assert ray.end_state == 0
    with pytest.raises(PreconditionFailed):
        ray.tail_edge(1)


def test_ray_rejects_inadmissible():
    golden = build_edge_shift(GOLDEN)
    with pytest.raises(InadmissibleWord):
        Ray(golden, 0, (1,), ())  # edge 1 cannot follow itself around a loop
    with pytest.raises(PreconditionFailed):
        Ray(golden, 0, (), (0,))
    # the golden mean has edges 0..2: -1 is not edge 2 read from the end
    for cycle, transient in (((1, -1), ()), ((0,), (3,))):
        with pytest.raises(InadmissibleWord):
            Ray(golden, 0, cycle, transient)


def test_beam_validation():
    full2 = build_edge_shift([[2]])
    r0 = Ray(full2, 0, (0,), ())
    r1 = Ray(full2, 0, (1,), ())
    beam = Beam(level=0, rays=(r0, r1))
    assert beam.count_vector == (2,)
    with pytest.raises(PreconditionFailed):
        Beam(level=0, rays=(r0, Ray(full2, 0, (0, 0), ())))  # duplicate tail
    with pytest.raises(PreconditionFailed):
        Beam(level=1, rays=(r0,))
    with pytest.raises(PreconditionFailed):
        Beam(level=0, rays=())


def test_canonical_zero_ray_variants():
    full2 = build_edge_shift([[2]])
    assert canonical_zero_ray(full2, 0, variant=0).cycle == (0,)
    assert canonical_zero_ray(full2, 0, variant=1) != canonical_zero_ray(full2, 0)
    golden = build_edge_shift(GOLDEN)
    assert canonical_zero_ray(golden, 0).cycle == (0,)
    assert canonical_zero_ray(golden, 1).end_state == 1


def test_refine_ray_counts_extensions():
    golden = build_edge_shift(GOLDEN)
    ray = canonical_zero_ray(golden, 0)
    assert len(refine_ray(ray, 2).rays) == 3  # words 00, 01, 12 from state 0
    with pytest.raises(PreconditionFailed):
        refine_ray(ray, -1)


# -- theta and the unstable measure -----------------------------------------


def test_theta_exact_values_full_shift():
    full2 = build_edge_shift([[2]])
    beam = Beam(level=0, rays=(canonical_zero_ray(full2, 0),))
    assert theta(beam) == (Fraction(1),)
    assert theta(refine_ray(canonical_zero_ray(full2, 0), 3)) == (Fraction(1),)


def test_theta_level_weighting():
    # a single ray pushed to level 1 carries weight delta^-1
    full2 = build_edge_shift([[2]])
    deep = Beam(level=1, rays=(Ray(full2, 1, (0,), ()),))
    assert theta(deep) == (Fraction(1, 2),)


def test_theta_refinement_invariance_golden():
    golden = build_edge_shift(GOLDEN)
    for state in range(2):
        ray = canonical_zero_ray(golden, state)
        base = theta(Beam(level=0, rays=(ray,)))
        for depth in (1, 2, 3, 4):
            assert theta(refine_ray(ray, depth)) == base


def test_dimension_data_fields_survive_replace():
    # A and A^k are declared fields, so a copy carries them
    golden = build_edge_shift(GOLDEN)
    dim = dimension_data(golden)
    copy = dataclasses.replace(dim)
    assert copy.matrix == golden.matrix
    assert copy.eventual_power == ratmat.mat_pow(golden.matrix, 2)
    vec = (3, 2)
    assert copy.apply_delta_power(vec, -4) == dim.apply_delta_power(vec, -4)


def test_delta_inverse_is_built_when_theta_first_asks(tmp_path, monkeypatch, capsys):
    # analyze on a system file and the eb-failure witness never invert Delta
    name, shift, sigma = next(_seeded_cycles_with_a_chord(13, (24,)))
    path = tmp_path / f"{name}.json"
    save_system(path, shift, {"sigma": sigma})

    def refuse(matrix):
        raise AssertionError("Delta was inverted")

    with monkeypatch.context() as patch:
        patch.setattr(ratmat, "inverse", refuse)
        assert main(["analyze", str(path)]) == 0
        assert verify_eb_failure(shift.matrix)["name"] == "eb-failure"
        dim = dimension_data(shift)
    assert "delta_inverse" not in vars(dim)
    ray = canonical_zero_ray(shift, 0)
    base = theta(Beam(level=0, rays=(ray,)))
    assert vars(dim)["delta_inverse"] == ratmat.inverse(dim.delta_restricted)
    for depth in (1, 2):
        assert theta(refine_ray(ray, depth)) == base
    # a copy builds its own on first use
    copy = dataclasses.replace(dim)
    assert "delta_inverse" not in vars(copy)
    assert copy.apply_delta_power(dim.basis[0], -3) == dim.apply_delta_power(dim.basis[0], -3)


def test_measure_refinement_invariance():
    golden = build_edge_shift(GOLDEN)
    ray = canonical_zero_ray(golden, 0)
    base = unstable_measure(Beam(level=0, rays=(ray,)))
    for depth in (1, 2, 3):
        assert unstable_measure(refine_ray(ray, depth)) == pytest.approx(base)


def test_measure_equals_theta_pairing():
    shift, _ = make_builtin("tau_golden")
    per = perron_data(shift)
    for state in range(shift.k):
        beam = Beam(level=0, rays=(canonical_zero_ray(shift, state),))
        pairing = sum(
            float(x) * v for x, v in zip(theta(beam), per.v_right)
        )
        assert unstable_measure(beam) == pytest.approx(pairing, abs=1e-9)


@pytest.mark.parametrize(
    "name,ratio",
    [("shift", 2.0), ("vertex_swap_B", 1.0), ("tau_golden", 1 / PHI)],
)
def test_measure_scales_by_lambda(name, ratio):
    shift, auto = make_builtin(name)
    ray = canonical_zero_ray(shift, 0)
    base = unstable_measure(Beam(level=0, rays=(ray,)))
    image = apply_automorphism_to_ray(auto, 1, ray)
    assert unstable_measure(image) / base == pytest.approx(ratio, abs=1e-9)


def test_apply_automorphism_n_zero_and_level_guard():
    shift, auto = make_builtin("shift")
    ray = canonical_zero_ray(shift, 0)
    assert apply_automorphism_to_ray(auto, 0, ray).rays == (ray,)
    deep = Ray(shift, 1, (0,), ())
    with pytest.raises(PreconditionFailed):
        apply_automorphism_to_ray(auto, 1, deep)


def test_apply_automorphism_builds_each_power_once_within_budget(monkeypatch):
    real_compose = codes.compose
    completed = []

    def counting_compose(outer, inner):
        result = real_compose(outer, inner)
        completed.append(result.window)
        return result

    monkeypatch.setattr(codes, "compose", counting_compose)
    shift, auto = make_builtin("shift")
    ray = canonical_zero_ray(shift, 0)
    # phi^2 and phi^-2 are one compose each
    apply_automorphism_to_ray(auto, 2, ray)
    assert completed == [3, 3]
    # phi^2 has 8 windows of width 3: the budget refuses it before any work
    completed.clear()
    with pytest.raises(WindowBudgetExceeded), window_budget(4):
        apply_automorphism_to_ray(auto, 2, ray)
    assert completed == []


# -- the induced matrix -----------------------------------------------------


def test_action_on_examples():
    expected = {
        "identity": ((Fraction(1),),),
        "shift": ((Fraction(2),),),
        "vertex_swap_B": ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        "sigma_x_sigma_inv": ((Fraction(1),),),
    }
    for name, s_phi in expected.items():
        _, auto = make_builtin(name)
        act = dimension_matrix(auto)
        assert act.S_phi == s_phi, name


def test_action_invariants_on_examples():
    _, ident = make_builtin("identity")
    act = dimension_matrix(ident)
    assert act.inert and act.order_if_finite == 1

    _, swap = make_builtin("vertex_swap_B")
    act = dimension_matrix(swap)
    assert not act.inert and act.order_if_finite == 2
    assert act.lambda_phi == pytest.approx(1.0, abs=1e-9)
    assert act.rho == pytest.approx(1.0, abs=1e-9)

    _, sigma = make_builtin("shift")
    act = dimension_matrix(sigma)
    assert act.order_if_finite is None
    assert act.lambda_phi == pytest.approx(2.0, abs=1e-9)


def test_tau_action_block_structure():
    _, tau = make_builtin("tau_golden")
    act = dimension_matrix(tau)
    g_inv = ratmat.inverse(GOLDEN)
    # identity on the first track, inverse multiplication on the second:
    # the 4x4 action is I_2 (x) G^-1 in the product basis
    expected = tuple(
        tuple(
            (g_inv[ib][jb] if ia == ja else Fraction(0))
            for ja in range(2)
            for jb in range(2)
        )
        for ia in range(2)
        for ib in range(2)
    )
    assert act.S_phi == expected
    assert act.lambda_phi == pytest.approx(1 / PHI, abs=1e-9)
    assert act.rho == pytest.approx(PHI, abs=1e-9)


def test_action_functoriality():
    shift, swap = make_builtin("vertex_swap_B")
    _, sigma = make_builtin("shift", {"shift": shift})
    s_swap = dimension_matrix(swap).S_phi
    s_sigma = dimension_matrix(sigma).S_phi
    comp = compose_automorphisms(swap, sigma)  # swap after sigma
    assert dimension_matrix(comp).S_phi == ratmat.mat_mul(s_sigma, s_swap)

    squared = automorphism_power(swap, 2)
    assert dimension_matrix(squared).S_phi == ratmat.mat_mul(s_swap, s_swap)
    inverse = swap.inverse_automorphism()
    assert dimension_matrix(inverse).S_phi == ratmat.inverse(s_swap)


def _block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return tuple(map(tuple, out))


def _companion(coeffs):
    """Companion matrix of a monic polynomial (coefficients descending)."""
    n = len(coeffs) - 1
    rows = [[int(j == i + 1) for j in range(n)] for i in range(n - 1)]
    rows.append([-c for c in reversed(coeffs[1:])])
    return rows


def _poly_product(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def test_finite_order_is_exact_beyond_64():
    # Phi_7 Phi_12, conjugated by a unimodular matrix: order lcm(7, 12) = 84
    phi7, phi12 = [1, 1, 1, 1, 1, 1, 1], [1, 0, -1, 0, 1]
    block = _block_diagonal(_companion(phi7), _companion(phi12))
    unimodular = tuple(
        tuple(1 if i == j else (i + 2 * j) % 3 - 1 if i < j else 0 for j in range(10))
        for i in range(10)
    )
    back = tuple(tuple(int(x) for x in row) for row in ratmat.inverse(unimodular))
    s = ratmat.mat_mul(ratmat.mat_mul(unimodular, block), back)
    cp = ratmat.char_poly(s)
    assert cp == _poly_product(phi7, phi12)
    assert _finite_order(s, cp) == 84
    ident = ratmat.identity(10)
    assert ratmat.mat_pow(s, 84) == ident
    assert all(ratmat.mat_pow(s, 84 // p) != ident for p in (2, 3, 7))


def test_finite_order_needs_more_than_the_char_poly():
    # (t - 1)^2 is cyclotomic, but a Jordan block has infinite order
    jordan = ((1, 1), (0, 1))
    assert _finite_order(jordan, ratmat.char_poly(jordan)) is None
    # a char poly with a non-integral coefficient is never cyclotomic
    rational = ((Fraction(1, 2), 0), (0, 2))
    assert ratmat.char_poly(rational) == [1, Fraction(-5, 2), 1]
    assert _finite_order(rational, ratmat.char_poly(rational)) is None
    # a rational matrix can still have finite order: the swap conjugated by
    # diag(1, 2)
    swap = ((0, Fraction(2)), (Fraction(1, 2), 0))
    assert _finite_order(swap, ratmat.char_poly(swap)) == 2


@pytest.mark.parametrize(
    "name,order",
    [
        ("identity", 1),
        ("shift", None),
        ("inverse_shift", None),
        ("full_shift_symbol_permutation", 1),
        ("vertex_swap_B", 2),
        ("tau_golden", None),
        ("sigma_x_sigma_inv", 1),
        ("five_symbol", 1),
    ],
)
def test_builtin_orders(name, order):
    _, auto = make_builtin(name, dict(dict(DEFAULT_SUITE)[name]))
    assert dimension_matrix(auto).order_if_finite == order


def test_lambda_phi_converges_on_a_long_cycle_with_a_chord():
    # a power iteration on A + I needs tens of thousands of steps here
    k = 40
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][(i + 1) % k] = 1
    m[0][2] += 1
    dim = dimension_data(build_edge_shift(m))
    lam = max(abs(np.linalg.eigvals(np.array(m, dtype=float))))
    assert lambda_phi_of(dim.delta_restricted, dim) == pytest.approx(lam, abs=1e-12)


@pytest.mark.parametrize(
    "matrix,error,message",
    [
        (GOLDEN, InternalInvariantViolation, "does not commute"),
        ([[1, 1, 0], [0, 0, 1], [1, 1, 1]], InconsistentSystem, "state 2's ray class"),
    ],
)
def test_action_checks_fire_on_a_constant_code(matrix, error, message):
    # the constant code onto the loop at state 0 is no automorphism: its
    # conditions are inconsistent, or their solution does not commute with
    # the multiplication map
    shift = build_edge_shift(matrix)
    const = rule_code(shift, 0, 0, {(e,): 0 for e in range(shift.n_edges)})
    bogus = codes.Automorphism(const, codes.identity_code(shift), {})
    with pytest.raises(error, match=message):
        dimension_matrix(bogus)


def test_action_rejects_bad_shifts():
    from sftlab.codes import identity_code, verify_automorphism

    reducible = build_edge_shift([[1, 1], [0, 2]])
    auto = verify_automorphism(identity_code(reducible), identity_code(reducible))
    with pytest.raises(ReducibleInput):
        dimension_matrix(auto)

    trivial = build_edge_shift([[1]])
    auto = verify_automorphism(identity_code(trivial), identity_code(trivial))
    with pytest.raises(PreconditionFailed):
        dimension_matrix(auto)


# -- the verifiers ----------------------------------------------------------


def test_entropy_bound_statuses():
    _, tau = make_builtin("tau_golden")
    act = dimension_matrix(tau)
    tight = verify_entropy_bound(math.log(PHI), act)
    assert tight.status == "Confirmed"
    assert tight.lhs == pytest.approx(math.log(PHI), abs=1e-9)
    low = verify_entropy_bound(0.1, act)
    assert low.status == "Inconclusive"


def test_main_bounds_on_shift_are_tight():
    shift, auto = make_builtin("shift")
    profile = coding_range_profile(auto, 3)
    act = dimension_matrix(auto)
    bound, checks = verify_main_bounds(auto, profile, act)
    assert bound.status == "Confirmed"
    assert bound.lhs == pytest.approx(0.0, abs=1e-12)
    by_name = {c.name: c for c in checks}
    assert len(by_name) == len(checks) == 5
    assert by_name["bound-minus"].status == "Confirmed"
    assert by_name["bound-plus"].status == "Confirmed"
    assert by_name["one-sided-minus"].status == "Confirmed"
    assert by_name["one-sided-plus"].status == "Confirmed"
    assert by_name["unit-circle"].status == "Inconclusive"


def test_main_bounds_zero_slopes_check_unit_circle():
    shift, auto = make_builtin("vertex_swap_B")
    profile = coding_range_profile(auto, 2)
    act = dimension_matrix(auto)
    bound, checks = verify_main_bounds(auto, profile, act)
    by_name = {c.name: c for c in checks}
    assert by_name["unit-circle"].status == "Confirmed"
    assert by_name["one-sided-minus"].status == "Inconclusive"
    assert bound.status == "Confirmed"


def test_distortion_spectrum_check():
    _, swap = make_builtin("vertex_swap_B")
    action = dimension_matrix(swap)
    out = distortion_spectrum_check(action)
    assert out.status == "Confirmed"
    assert out.lhs == pytest.approx(0.0, abs=1e-12)
    eigenvalues = distinct_roots(ratmat.char_poly(action.S_phi))
    assert sorted(round(complex(z).real, 6) for z in eigenvalues) == [-1.0, 1.0]

    _, sigma = make_builtin("shift")
    action = dimension_matrix(sigma)
    out = distortion_spectrum_check(action)
    assert out.status == "Inconclusive"
    assert abs(math.log(action.rho)) > out.tol


# -- the reference route ----------------------------------------------------
#
# dimension_matrix solves S_phi from integer rows of the direct limit and
# decides its order from the characteristic polynomial.  The route it
# replaced stays here as the reference: ray images one window at a time
# through the rule view, conditions as theta classes (Delta^-1 step by
# step), independent rows picked one rref at a time, S = C^-1 Y, and the
# order by up to 64 products.


def ref_image_beam(auto, ray):
    code = auto.power(1)
    mem, ant = code.memory, code.anticipation
    wv = w_values(auto, 1)
    level_out, w_fwd = -wv.minus_inv, wv.minus
    p, q = len(ray.cycle), len(ray.transient)
    cut = min(-ant - q, w_fwd - 1)
    fixed_len = p + (w_fwd - 1 - cut)
    fixed_part, words = None, set()
    for ext in ray.shift.words(max(0, level_out + ant), start_state=ray.end_state):
        def edge_at(i):
            return ray.tail_edge(i) if i <= 0 else ext[i - 1]

        seg = tuple(
            code.rule[tuple(edge_at(i) for i in range(j - mem, j + ant + 1))]
            for j in range(cut - p + 1, level_out + 1)
        )
        if fixed_part is None:
            fixed_part = seg[:fixed_len]
        assert seg[:fixed_len] == fixed_part
        words.add(seg[fixed_len:])
    rays = sorted(
        (Ray(ray.shift, level_out, fixed_part[:p], fixed_part[p:] + w) for w in words),
        key=lambda r: r._key,
    )
    return Beam(level=level_out, rays=tuple(rays))


def ref_action(auto, dim):
    """(S_phi, order, inert, rho, lambda_phi) by the reference route."""
    shift = auto.shift
    c_rows, y_rows = [], []
    for state in range(shift.k):
        ray = canonical_zero_ray(shift, state)
        image = ref_image_beam(auto, ray)
        beam = apply_automorphism_to_ray(auto, 1, ray)
        assert beam.level == image.level
        assert [(r.cycle, r.transient) for r in beam.rays] == [
            (r.cycle, r.transient) for r in image.rays
        ]
        c_rows.append(dim.coords(theta(Beam(level=0, rays=(ray,)))))
        y_rows.append(dim.coords(theta(image)))
    chosen = []
    for i in range(shift.k):
        reduced, _ = ratmat.rref([c_rows[j] for j in chosen + [i]])
        if len(reduced) == len(chosen) + 1:
            chosen.append(i)
        if len(chosen) == dim.d:
            break
    c_sq = tuple(c_rows[i] for i in chosen)
    s_phi = ratmat.mat_mul(ratmat.inverse(c_sq), tuple(y_rows[i] for i in chosen))
    assert all(ratmat.vec_mat(c, s_phi) == tuple(y) for c, y in zip(c_rows, y_rows))
    ident = ratmat.identity(dim.d)
    order, power = None, s_phi
    for j in range(1, 65):
        if power == ident:
            order = j
            break
        power = ratmat.mat_mul(power, s_phi)
    rho = max(abs(complex(z)) for z in distinct_roots(ratmat.char_poly(s_phi)))
    return s_phi, order, s_phi == ident, float(rho), float(lambda_phi_of(s_phi, dim))


def _seeded_cycles_with_a_chord(seed, sizes):
    """Shift and inverse shift on k-cycles plus one chord, primitive."""
    rng = random.Random(seed)
    for k in sizes:
        while True:
            matrix = [[int(j == (i + 1) % k) for j in range(k)] for i in range(k)]
            i, j = rng.randrange(k), rng.randrange(k)
            matrix[i][j] += 1
            shift = build_edge_shift(matrix)
            if shift.primitive:
                break
        sigma = codes.verify_automorphism(
            codes.shift_code(shift), codes.inverse_shift_code(shift)
        )
        yield f"cycle{k}_chord_{i}_{j}", shift, sigma


def _reference_cases(sizes=(4, 5, 7, 10)):
    for name, params in DEFAULT_SUITE:
        shift, auto = make_builtin(name, dict(params))
        yield name, shift, auto
        yield f"{name}^-1", shift, auto.inverse_automorphism()
        yield f"{name}^2", shift, automorphism_power(auto, 2)
    for name, shift, sigma in _seeded_cycles_with_a_chord(7, sizes):
        yield name, shift, sigma
        yield f"{name}^-1", shift, sigma.inverse_automorphism()


def test_dimension_matrix_matches_the_reference_route():
    for name, shift, auto in _reference_cases():
        dim = dimension_data(shift)
        s_phi, order, inert, rho, lam = ref_action(auto, dim)
        act = dimension_matrix(auto)
        # the same values; rref gives ints where they are integral, and the
        # reference's products keep a Fraction wherever one entered
        assert act.S_phi == s_phi and int_where_integral(act.S_phi), name
        assert (act.order_if_finite, act.inert) == (order, inert), name
        assert (act.rho, act.lambda_phi) == (rho, lam), name


# verify_main_bounds reads each inequality off one row (name, failed
# hypothesis, lhs, rhs_lo, rhs_hi).  The per-component branches it replaced
# stay here as the reference.


def ref_main_bounds(auto, profile, action, tol=DEFAULT_TOL):
    bounds_f = lyapunov_bounds(auto, profile)
    bounds_i = lyapunov_bounds(auto.inverse_automorphism(), profile.inverse())
    am, ap = bounds_f.alpha_minus, bounds_f.alpha_plus
    ami, api = bounds_i.alpha_minus, bounds_i.alpha_plus
    h = perron_data(auto.shift).entropy
    log_rho_minus = math.log(dimension_data(auto.shift).rho_minus)
    growth = h + log_rho_minus
    lhs = math.log(action.rho)
    abs_ami = _abs_interval(ami)
    abs_ap = _abs_interval(ap)
    checks = [
        _bound(
            "bound-minus",
            lhs,
            float(abs_ami[0]) * growth - float(am[1]) * h,
            float(abs_ami[1]) * growth - float(am[0]) * h,
            tol,
        ),
        _bound(
            "bound-plus",
            lhs,
            float(abs_ap[0]) * growth + float(api[0]) * h,
            float(abs_ap[1]) * growth + float(api[1]) * h,
            tol,
        ),
    ]
    if ami[0] > 0:
        checks.append(
            _bound("one-sided-minus", lhs, -float(am[1]) * h, -float(am[0]) * h, tol)
        )
    else:
        checks.append(
            CheckRecord(
                "one-sided-minus",
                "Inconclusive",
                detail="left slope of the inverse not certainly positive",
            )
        )
    if ap[1] < 0:
        checks.append(
            _bound("one-sided-plus", lhs, float(api[0]) * h, float(api[1]) * h, tol)
        )
    else:
        checks.append(
            CheckRecord(
                "one-sided-plus",
                "Inconclusive",
                detail="right slope of the map not certainly negative",
            )
        )
    zero = (Fraction(0), Fraction(0))
    if (am, ap, ami, api) == (zero, zero, zero, zero):
        deviation = distortion_spectrum_check(action, tol=tol).lhs
        checks.append(_bound("unit-circle", deviation, 0.0, 0.0, tol))
    else:
        checks.append(
            CheckRecord(
                "unit-circle",
                "Inconclusive",
                detail="slope enclosures are not all exactly zero",
            )
        )

    statuses = {c.status for c in checks}
    if "Violated" in statuses:
        overall = "Violated"
    elif "Consistent" in statuses:
        overall = "Consistent"
    else:
        overall = "Confirmed"
    gap = min(c.rhs[0] - c.lhs for c in checks if c.rhs is not None)
    record = CheckRecord(
        "main-bounds", overall, gap, None, tol, detail=f"{len(checks)} component checks"
    )
    return record, tuple(checks)


def _fields(records):
    """Every field but runtime_ms, as repr: the same values with the same types."""
    return [repr(dataclasses.replace(r, runtime_ms=0.0)) for r in records]


def test_main_bounds_rows_match_the_reference_route():
    statuses = set()
    for name, shift, auto in _reference_cases(sizes=(4, 5, 7)):
        # (five_symbol^2)^3 is built on windows of 13 edges, 5^13 words on
        # the full 5-shift, past the default window budget of 5e7
        profile = coding_range_profile(auto, 2 if name == "five_symbol^2" else 3)
        action = dimension_matrix(auto)
        record, checks = verify_main_bounds(auto, profile, action)
        ref_record, ref_checks = ref_main_bounds(auto, profile, action)
        assert _fields((record, *checks)) == _fields((ref_record, *ref_checks)), name
        statuses.update((c.name, c.status) for c in checks)
    # every component applies somewhere and is refused somewhere
    for component in ("one-sided-minus", "one-sided-plus", "unit-circle"):
        assert {(component, "Confirmed"), (component, "Inconclusive")} <= statuses
    assert ("bound-minus", "Consistent") in statuses


def _random_irreducible_matrices(seed, sizes):
    """Sparse entries 0-2 over a random Hamiltonian cycle, so irreducible."""
    rng = random.Random(seed)
    for k in sizes:
        matrix = [[rng.choice((0, 0, 0, 1, 2)) for _ in range(k)] for _ in range(k)]
        order = list(range(k))
        rng.shuffle(order)
        for s, t in zip(order, order[1:] + order[:1]):
            matrix[s][t] = max(matrix[s][t], 1)
        yield matrix


def _skewed_cycle():
    """A 12-cycle with 9 loops at state 0 and 7 at state 5: its Perron
    vector spans ten orders of magnitude, so numpy's plain eigenvector
    certifies the root only to about 1e-6 relative and one solve from the
    flat vector to about 6e-3."""
    m = [[int(j == (i + 1) % 12) for j in range(12)] for i in range(12)]
    m[0][0], m[5][5] = 9, 7
    return m


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(shift.matrix, id=name)
        for name, shift, _ in _seeded_cycles_with_a_chord(11, (3, 9, 16, 24, 180))
    ]
    + [
        pytest.param(m, id=f"random{len(m)}")
        for m in _random_irreducible_matrices(5, (1, 2, 4, 7, 12))
    ]
    + [
        pytest.param([[2]], id="full_2"),
        pytest.param([[0, 1], [1, 0]], id="swap"),
        pytest.param(_skewed_cycle(), id="skewed_cycle12"),
    ],
)
def test_perron_kernel_encloses_the_root_both_ways(matrix):
    shift = build_edge_shift(matrix)
    assert shift.irreducible
    root = reference_perron_root(matrix)
    slack = root / 10**38  # the reference's own precision
    right = perron_data(shift)
    left = _perron_kernel(tuple(zip(*shift.matrix)))
    for lo, hi in (right.enclosure, left.enclosure):
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
        assert lo - slack <= root <= hi + slack
        assert hi - lo <= root / 10**13
    assert max(right.enclosure[0], left.enclosure[0]) <= min(right.enclosure[1], left.enclosure[1])
    dim = dimension_data(shift)
    assert dim.perron_left == tuple(left.v_right[p] for p in dim.pivots)
    for data in (right, left):
        assert min(data.v_right) > 0 and math.isclose(sum(data.v_right), 1.0)
        assert abs(data.lambda_ - root) <= 4 * root / 10**15
