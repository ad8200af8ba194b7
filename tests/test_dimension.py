"""Rays, beams, theta classes, and the exact induced action.

Claims covered:
    - ray normal forms: equal tails compare equal regardless of presentation
    - beams validate levels/distinctness; count vectors are per-state tallies
    - theta is exact, level-independent, and additive under refinement
    - the unstable measure refines consistently, scales by lambda_phi under
      the automorphism, and equals the pairing of theta with the Perron
      eigenvector
    - dimension_matrix reproduces hand-checked matrices on the examples and
      is functorial (squares, inverses, compositions)
    - the inequality verifiers return the designed statuses
    - lambda_phi matches numpy's Perron root where the left Perron
      iteration converges slowly
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from sftlab import codes, ratmat
from sftlab.builtins import make_builtin
from sftlab.codes import automorphism_power, compose_automorphisms
from sftlab.coding_range import coding_range_profile
from sftlab.dimension import (
    Beam,
    Ray,
    apply_automorphism_to_ray,
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
    PreconditionFailed,
    ReducibleInput,
    WindowBudgetExceeded,
)
from sftlab.shifts import build_edge_shift, dimension_data, distinct_roots, perron_data

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
    dim = dimension_data(full2)
    beam = Beam(level=0, rays=(canonical_zero_ray(full2, 0),))
    assert theta(beam, dim) == (Fraction(1),)
    assert theta(refine_ray(canonical_zero_ray(full2, 0), 3), dim) == (Fraction(1),)


def test_theta_level_weighting():
    # a single ray pushed to level 1 carries weight delta^-1
    full2 = build_edge_shift([[2]])
    dim = dimension_data(full2)
    deep = Beam(level=1, rays=(Ray(full2, 1, (0,), ()),))
    assert theta(deep, dim) == (Fraction(1, 2),)


def test_theta_refinement_invariance_golden():
    golden = build_edge_shift(GOLDEN)
    dim = dimension_data(golden)
    for state in range(2):
        ray = canonical_zero_ray(golden, state)
        base = theta(Beam(level=0, rays=(ray,)), dim)
        for depth in (1, 2, 3, 4):
            assert theta(refine_ray(ray, depth), dim) == base


def test_dimension_data_fields_survive_replace():
    # A and A^k are declared fields, so a copy carries them
    golden = build_edge_shift(GOLDEN)
    dim = dimension_data(golden)
    copy = dataclasses.replace(dim)
    assert copy.matrix == golden.matrix
    assert copy.eventual_power == ratmat.mat_pow(golden.matrix, 2)
    beam = refine_ray(canonical_zero_ray(golden, 1), 2)
    assert theta(beam, copy) == theta(beam, dim)
    assert copy.in_dimension_group((1, 2))
    assert not copy.in_dimension_group((Fraction(1, 2), Fraction(1, 2)))


def test_measure_refinement_invariance():
    golden = build_edge_shift(GOLDEN)
    per = perron_data(golden)
    ray = canonical_zero_ray(golden, 0)
    base = unstable_measure(Beam(level=0, rays=(ray,)), per)
    for depth in (1, 2, 3):
        assert unstable_measure(refine_ray(ray, depth), per) == pytest.approx(base)


def test_measure_equals_theta_pairing():
    shift, _ = make_builtin("tau_golden")
    dim = dimension_data(shift)
    per = perron_data(shift)
    for state in range(shift.k):
        beam = Beam(level=0, rays=(canonical_zero_ray(shift, state),))
        pairing = sum(
            float(x) * v for x, v in zip(theta(beam, dim), per.v_right)
        )
        assert unstable_measure(beam, per) == pytest.approx(pairing, abs=1e-9)


@pytest.mark.parametrize(
    "name,ratio",
    [("shift", 2.0), ("vertex_swap_B", 1.0), ("tau_golden", 1 / PHI)],
)
def test_measure_scales_by_lambda(name, ratio):
    shift, auto = make_builtin(name)
    per = perron_data(shift)
    ray = canonical_zero_ray(shift, 0)
    base = unstable_measure(Beam(level=0, rays=(ray,)), per)
    image = apply_automorphism_to_ray(auto, 1, ray)
    assert unstable_measure(image, per) / base == pytest.approx(ratio, abs=1e-9)


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

    def counting_compose(outer, inner, budget=None):
        result = real_compose(outer, inner, budget=budget)
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
    with pytest.raises(WindowBudgetExceeded):
        apply_automorphism_to_ray(auto, 2, ray, budget=4)
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


def test_lambda_phi_converges_on_a_long_cycle_with_a_chord():
    # the left Perron iteration needs tens of thousands of steps here
    k = 40
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        m[i][(i + 1) % k] = 1
    m[0][2] += 1
    dim = dimension_data(build_edge_shift(m))
    lam = max(abs(np.linalg.eigvals(np.array(m, dtype=float))))
    assert lambda_phi_of(dim.delta_restricted, dim) == pytest.approx(lam, abs=1e-12)


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
    dim = dimension_data(shift)
    per = perron_data(shift)
    act = dimension_matrix(auto, dim=dim)
    bound, checks = verify_main_bounds(auto, profile, act, dim, per)
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
    dim = dimension_data(shift)
    per = perron_data(shift)
    act = dimension_matrix(auto, dim=dim)
    bound, checks = verify_main_bounds(auto, profile, act, dim, per)
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
