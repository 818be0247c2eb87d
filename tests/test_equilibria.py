import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from robe3bp import equilibria
from robe3bp import (
    ConvergenceError,
    Params,
    SingularityError,
    grad_omega,
    mean_motion_sq,
    radii,
    refine_equilibrium,
    triangular_points,
)
from conftest import FROZEN, acceptance_grid, any_cell


def test_aux_unit_distance_case():
    # -mu/2k = 1 exactly, so b1 = 1; a1 = -0.1 + 0.1 - 1 = -1 puts this case
    # exactly on the degenerate boundary b1^2 = a1^2
    pts = triangular_points(Params(mu=0.1, k=-0.05, a1_oblate=0.0))
    assert pts.b1_aux == 1.0
    npt.assert_allclose(pts.a1_aux, -1.0, rtol=1e-15)
    assert not pts.exists  # z = 0: strict inequality


def test_aux_canonical_values(canonical):
    pts = triangular_points(canonical)
    npt.assert_allclose(pts.a1_aux, FROZEN["a1_aux"], rtol=1e-14)
    npt.assert_allclose(pts.b1_aux, FROZEN["b1_aux"], rtol=1e-14)
    npt.assert_allclose(pts.b1_aux, 5.0 ** (1 / 3), rtol=1e-14)


def test_aux_rejects_overflowing_b1():
    # -mu/2k = 5e318 overflows to inf, which once gave exists=True with z = inf
    with pytest.raises(ValueError, match="overflows"):
        triangular_points(Params(mu=0.1, k=-1e-320))


def test_rejects_k_the_floats_cannot_carry():
    # a negative subnormal k once gave exists=True with z ~ 3e102, and
    # k = -1e308 an a1 of -inf
    for k, message in ((-2e-309, "k=-2e-309 is a negative subnormal"),
                       (-1e308, "a1 = 2k/n\\^2 \\+ mu - 1 overflows")):
        with pytest.raises(ValueError, match=message):
            triangular_points(Params(mu=0.1, k=k))
        with pytest.raises(ValueError, match=message):
            triangular_points(Params(mu=np.array([0.1, 0.1]), k=np.array([-0.01, k])))
    # the smallest normal k < 0 keeps its point, and a positive subnormal k has none
    assert triangular_points(Params(mu=0.1, k=-2.2250738585072014e-308)).exists
    assert not triangular_points(Params(mu=0.1, k=5e-324)).exists


def test_triangular_points_canonical(canonical):
    pts = triangular_points(canonical)
    assert pts.exists
    npt.assert_allclose(pts.x_eq, FROZEN["x_eq"], rtol=1e-14)
    npt.assert_allclose(pts.z_plus, FROZEN["z_eq"], rtol=1e-14)
    npt.assert_allclose(pts.x_eq, -0.0194175, atol=1e-7)
    npt.assert_allclose(pts.z_plus, 1.4417660, atol=1e-7)
    for branch in (+1, -1):
        assert np.abs(grad_omega(pts.point(branch), canonical)).max() < 1e-12


def test_triangular_points_radicand_failure():
    # b1^2 = 0.25 < a1^2 = 2.89; the region condition 2k + mu = -0.7 < 0 fails too
    params = Params(mu=0.1, k=-0.4, a1_oblate=0.0)
    pts = triangular_points(params)
    assert not pts.exists
    assert pts.b1_aux == 0.5
    npt.assert_allclose(pts.a1_aux, -1.7, rtol=1e-15)
    assert pts.x_eq is None and pts.z_plus is None


def test_triangular_points_positive_k():
    pts = triangular_points(Params(mu=0.1, k=0.01))
    assert not pts.exists
    assert pts.a1_aux is None and pts.b1_aux is None
    with pytest.raises(ValueError):
        pts.point()


def _region_ok(params):
    """The region condition 2k/n^2 + mu > 0, as ``robe3bp locate`` reports it."""
    return 2.0 * params.k / params.n_sq + params.mu > 0.0


def test_canonical_cell_has_points_inside_the_region(canonical):
    assert triangular_points(canonical).exists
    assert canonical.k < 0 and _region_ok(canonical)
    # 2k/n^2 + mu ~ 0.0806 and the radicand ~ 2.0787
    npt.assert_allclose(2 * canonical.k / canonical.n_sq + canonical.mu, 0.0805825,
                        atol=1e-7)
    npt.assert_allclose(FROZEN["radicand"], 2.0787, atol=1e-4)


def test_k_zero_has_no_points_and_no_aux():
    pts = triangular_points(Params(mu=0.1, k=0.0))
    assert not pts.exists
    assert pts.a1_aux is None and pts.b1_aux is None


def test_cell_outside_the_region_has_no_points():
    params = Params(mu=0.1, k=-0.4, a1_oblate=0.0)
    assert not triangular_points(params).exists
    assert params.k < 0 and not _region_ok(params)


def _region_boundary_cells():
    """Cells just inside, on and just outside the line 2k/n^2 + mu = 0."""
    cells = []
    for mu in (0.05, 0.3, 0.5, 0.95):
        for a1 in (0.0, 0.05, 0.2):
            k0 = -mu * mean_motion_sq(a1) / 2.0
            for k in (0.999 * k0, np.nextafter(k0, 0.0), k0, np.nextafter(k0, -1.0),
                      1.001 * k0):
                cells.append((mu, float(k), a1))
    return cells


def test_existence_verdict_matches_exists_for_negative_k():
    # the radicand condition implies k < 0 and the region condition, so
    # `exists` alone gives the verdict
    for mu, k, a1 in acceptance_grid() + _region_boundary_cells():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        assert params.k < 0 and _region_ok(params) or not triangular_points(params).exists


@settings(max_examples=300, deadline=None)
@given(any_cell)
def test_existence_verdict_is_exists_property(cell):
    # random cells, |k| down to 1e-300, k >= 0 and within 3 ulps of the fold
    mu, k, a1 = cell
    params = Params(mu=mu, k=k, a1_oblate=a1)
    assert params.k < 0 and _region_ok(params) or not triangular_points(params).exists


def test_existence_implies_region_ok():
    cells = acceptance_grid() + _region_boundary_cells()
    seen = set()
    for mu, k, a1 in cells:
        params = Params(mu=mu, k=k, a1_oblate=a1)
        exists = triangular_points(params).exists
        seen.add((_region_ok(params), exists))
        assert _region_ok(params) or not exists
    # the cells reach every combination the implication allows
    assert seen == {(True, True), (True, False), (False, False)}


def test_mirror_and_r2_properties():
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if not pts.exists:
            continue
        assert pts.point(-1).tolist() == [pts.x_eq, 0.0, -pts.z_plus]
        for branch in (+1, -1):
            _, r2 = radii(pts.point(branch), mu)
            npt.assert_allclose(r2, pts.b1_aux, rtol=1e-12)


def test_residual_property_over_grid():
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if not pts.exists:
            continue
        for branch in (+1, -1):
            assert np.abs(grad_omega(pts.point(branch), params)).max() < 1e-10


@settings(max_examples=300, deadline=None)
@given(any_cell)
def test_gradient_at_minus_z_mirrors_plus_z_property(cell):
    # the gradient sees z only through z * z and the odd z-component, and
    # rounding to nearest commutes with negation: so the -z point's gradient is
    # the +z point's mirrored bit for bit (a zero z-component is +0.0 at both),
    # and `locate`'s one residual holds for both points
    mu, k, a1 = cell
    params = Params(mu=mu, k=k, a1_oblate=a1)
    pts = triangular_points(params)
    if pts.exists:
        gx, gy, gz = grad_omega(pts.point(+1), params).tolist()
        assert grad_omega(pts.point(-1), params).tolist() == [gx, gy, -gz]


def test_boundary_small_k():
    # k -> 0^-: b1 grows without bound while existence and the region hold
    params = Params(mu=0.1, k=-1e-9, a1_oblate=0.0)
    pts = triangular_points(params)
    assert pts.b1_aux > 1e2
    assert pts.exists
    assert _region_ok(params)


def test_refine_from_perturbed_guess(canonical):
    pts = triangular_points(canonical)
    target = pts.point(+1)
    found = refine_equilibrium(target + 1e-3, canonical)
    npt.assert_allclose(found, target, atol=1e-10)


def test_refine_fixed_point_returns_unchanged(canonical):
    target = triangular_points(canonical).point(+1)
    out = refine_equilibrium(target, canonical)
    npt.assert_array_equal(out, target)


def test_refine_at_second_primary_is_singular(canonical):
    with pytest.raises(SingularityError):
        refine_equilibrium((1 - canonical.mu, 0.0, 0.0), canonical)


def test_refine_exhausted_iterations(canonical, monkeypatch):
    monkeypatch.setattr(equilibria, "_REFINE_MAX_ITER", 0)
    with pytest.raises(ConvergenceError):
        refine_equilibrium((0.5, 0.5, 0.5), canonical)


def test_refine_singular_hessian():
    # n^2 - 2k = 0, and mu / r2^3 underflows to 0 this far out: the Hessian is
    # diag(0, 0, -1) and the gradient (0, 0, -1), so the Newton solve fails
    params = Params(mu=0.1, k=0.5)
    with pytest.raises(ConvergenceError, match="singular Hessian") as info:
        refine_equilibrium((1e200, 0.0, 1.0), params)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_refine_halves_its_step_once(canonical, monkeypatch):
    # the full first Newton step from here raises the residual; half of it does not
    seen = []
    monkeypatch.setattr(equilibria, "grad_omega",
                        lambda pos, params: seen.append(pos) or grad_omega(pos, params))
    found = refine_equilibrium((0.5, 0.5, 0.5), canonical)
    npt.assert_allclose(found, triangular_points(canonical).point(-1), atol=1e-10)
    guess, full, half = seen[:3]
    npt.assert_allclose(half - guess, 0.5 * (full - guess), rtol=1e-12)
    assert len(seen) == 7  # the guess, then 6 candidates over 5 Newton steps


def test_refine_from_a_far_guess_finds_the_collinear_point(canonical):
    # |grad| ~ 1e200 at the guess: the residual norm must not overflow
    found = refine_equilibrium((1e200, 0.0, 0.0), canonical)
    assert np.abs(grad_omega(found, canonical)).max() < 1e-12
    assert found[0] == pytest.approx(-0.0976, abs=1e-4)
    assert found[1] == found[2] == 0.0


def test_refine_agreement_property(canonical):
    # random perturbations of norm <= 1e-2 all converge back to the analytic point
    target = triangular_points(canonical).point(+1)
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = rng.normal(size=3)
        d *= rng.uniform(0.0, 1e-2) / np.linalg.norm(d)
        found = refine_equilibrium(target + d, canonical)
        npt.assert_allclose(found, target, atol=1e-9)
