import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from robe3bp import (
    ConvergenceError,
    Params,
    SingularityError,
    aux_quantities,
    existence_report,
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
    params = Params(mu=0.1, k=-0.05, a1_oblate=0.0)
    a1, b1 = aux_quantities(params)
    assert b1 == 1.0
    npt.assert_allclose(a1, -1.0, rtol=1e-15)
    assert not triangular_points(params).exists  # z = 0: strict inequality


def test_aux_canonical_values(canonical):
    a1, b1 = aux_quantities(canonical)
    npt.assert_allclose(a1, FROZEN["a1_aux"], rtol=1e-14)
    npt.assert_allclose(b1, FROZEN["b1_aux"], rtol=1e-14)
    npt.assert_allclose(b1, 5.0 ** (1 / 3), rtol=1e-14)


def test_aux_rejects_nonnegative_k():
    with pytest.raises(ValueError):
        aux_quantities(Params(mu=0.1, k=0.01))
    with pytest.raises(ValueError):
        aux_quantities(Params(mu=0.1, k=0.0))


def test_aux_rejects_overflowing_b1():
    # -mu/2k = 5e318 overflows to inf, which once gave exists=True with z = inf
    params = Params(mu=0.1, k=-1e-320)
    with pytest.raises(ValueError, match="overflows"):
        aux_quantities(params)
    with pytest.raises(ValueError, match="overflows"):
        triangular_points(params)


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


def test_existence_report_canonical(canonical):
    rep = existence_report(canonical)
    assert (rep.k_negative, rep.region_ok, rep.radicand_ok, rep.verdict) == \
        (True, True, True, True)
    # 2k/n^2 + mu ~ 0.0806 and the radicand ~ 2.0787
    npt.assert_allclose(2 * canonical.k / canonical.n_sq + canonical.mu, 0.0805825,
                        atol=1e-7)
    npt.assert_allclose(FROZEN["radicand"], 2.0787, atol=1e-4)


def test_existence_report_boundary_k_zero():
    rep = existence_report(Params(mu=0.1, k=0.0))
    assert not rep.verdict
    assert not rep.k_negative


def test_existence_report_region_failure():
    rep = existence_report(Params(mu=0.1, k=-0.4, a1_oblate=0.0))
    assert (rep.k_negative, rep.region_ok, rep.radicand_ok, rep.verdict) == \
        (True, False, False, False)


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
    # for k < 0 the radicand condition implies the region condition, so the
    # three-way verdict and `exists` agree on that branch
    for mu, k, a1 in acceptance_grid() + _region_boundary_cells():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        assert existence_report(params).verdict == triangular_points(params).exists


@settings(max_examples=300, deadline=None)
@given(any_cell)
def test_existence_verdict_is_exists_property(cell):
    # random cells, |k| down to 1e-300, k >= 0 and within 3 ulps of the fold
    mu, k, a1 = cell
    params = Params(mu=mu, k=k, a1_oblate=a1)
    rep = existence_report(params)
    exists = triangular_points(params).exists
    assert rep.verdict == exists
    assert rep.k_negative and rep.region_ok or not exists


def test_existence_implies_region_ok():
    cells = acceptance_grid() + _region_boundary_cells()
    seen = set()
    for mu, k, a1 in cells:
        params = Params(mu=mu, k=k, a1_oblate=a1)
        rep = existence_report(params)
        seen.add((rep.region_ok, rep.verdict))
        assert rep.region_ok or not triangular_points(params).exists
    # the cells reach every combination the implication allows
    assert seen == {(True, True), (True, False), (False, False)}


def test_mirror_and_r2_properties():
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if not pts.exists:
            continue
        assert pts.z_plus == -pts.z_minus
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


def test_boundary_small_k():
    # k -> 0^-: b1 grows without bound while existence and the region hold
    params = Params(mu=0.1, k=-1e-9, a1_oblate=0.0)
    _, b1 = aux_quantities(params)
    assert b1 > 1e2
    assert triangular_points(params).exists
    assert existence_report(params).region_ok


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


def test_refine_exhausted_iterations(canonical):
    with pytest.raises(ConvergenceError):
        refine_equilibrium((0.5, 0.5, 0.5), canonical, max_iter=0)


def test_refine_rejects_bad_tolerance(canonical):
    with pytest.raises(ValueError):
        refine_equilibrium((0.0, 0.0, 1.0), canonical, tol=0.0)


def test_refine_rejects_nan_tolerance(canonical):
    # refused up front, not after the whole iteration budget
    with pytest.raises(ValueError, match="finite"):
        refine_equilibrium((0.0, 0.0, 1.0), canonical, tol=np.nan)


def test_refine_agreement_property(canonical):
    # random perturbations of norm <= 1e-2 all converge back to the analytic point
    target = triangular_points(canonical).point(+1)
    rng = np.random.default_rng(41)
    for _ in range(100):
        d = rng.normal(size=3)
        d *= rng.uniform(0.0, 1e-2) / np.linalg.norm(d)
        found = refine_equilibrium(target + d, canonical)
        npt.assert_allclose(found, target, atol=1e-9)
