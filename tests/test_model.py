import math

import numpy as np
import numpy.testing as npt
import pytest

from robe3bp import (
    Params,
    SingularityError,
    grad_omega,
    hessian_omega,
    mean_motion_sq,
    omega,
    radii,
    triangular_points,
)
from conftest import FROZEN, acceptance_grid


def test_mean_motion_sq_values():
    assert mean_motion_sq(0.0) == 1.0
    assert mean_motion_sq(0.02) == pytest.approx(1.03, abs=0)
    assert mean_motion_sq(0.2) == pytest.approx(1.3, abs=0)


def test_mean_motion_sq_rejects_negative():
    with pytest.raises(ValueError):
        mean_motion_sq(-0.01)


def test_mean_motion_sq_rejects_overflowing_n6():
    # above this A1 the cube of n^2 overflows, and with it the polish of the
    # characteristic roots (A1 = 1e150 once gave NaN roots)
    assert mean_motion_sq(3.76e102) ** 3 < np.inf
    for a1 in (3.8e102, 1e154, np.array([0.0, 1e200])):
        with pytest.raises(ValueError, match="n\\^6 overflows"):
            mean_motion_sq(a1)


def test_params_validation():
    for mu in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            Params(mu=mu, k=-0.01)
    with pytest.raises(ValueError):
        Params(mu=0.1, k=-0.01, a1_oblate=-0.1)


def test_params_rejects_non_finite():
    for k in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            Params(mu=0.1, k=k)
    for a1 in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            mean_motion_sq(a1)
        with pytest.raises(ValueError, match="finite"):
            Params(mu=0.1, k=-0.01, a1_oblate=a1)


def test_params_n_sq_derived_exactly():
    rng = np.random.default_rng(7)
    for a1 in rng.uniform(0.0, 0.5, 20):
        assert Params(mu=0.3, k=-0.1, a1_oblate=a1).n_sq == 1.0 + 1.5 * a1
    assert Params(mu=0.3, k=-0.1, a1_oblate=0.0).n_sq == 1.0


def test_radii_collocation_and_midpoint():
    r1, r2 = radii((1 - 0.3, 0.0, 0.0), mu=0.3)
    assert r2 == 0.0
    assert radii((0.0, 0.0, 0.0), mu=0.5) == (0.5, 0.5)


def test_radii_far_from_the_primaries_stay_finite():
    # (x + mu) ** 2 overflows here; the distances themselves do not
    assert radii((1e200, 0.0, 0.0), mu=0.1) == (1e200, 1e200)
    assert radii((0.0, -1e300, 1e300), mu=0.1) == (math.hypot(1e300, 1e300),) * 2


def test_radii_at_rounded_triangular_point():
    # distance to the second primary equals b1 = 5**(1/3) at the exact point
    _, r2 = radii((-0.019417, 0.0, 1.441766), mu=0.1)
    assert r2 == pytest.approx(5.0 ** (1 / 3), abs=1e-5)
    assert r2 == pytest.approx(1.709976, abs=1e-5)


def test_omega_simple_value():
    p = Params(mu=0.5, k=0.0, a1_oblate=0.0)
    assert omega((0.0, 0.0, 0.0), p) == pytest.approx(1.0, abs=0)


def test_omega_canonical_value(canonical):
    pt = (FROZEN["x_eq"], 0.0, FROZEN["z_eq"])
    npt.assert_allclose(omega(pt, canonical), FROZEN["omega_eq"], rtol=1e-14)


def test_omega_reflection_symmetry(canonical):
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        v = omega((x, y, z), canonical)
        assert omega((x, -y, z), canonical) == v
        assert omega((x, y, -z), canonical) == v


def test_omega_singularity(canonical):
    with pytest.raises(SingularityError):
        omega((1 - canonical.mu, 0.0, 0.0), canonical)


def test_first_primary_is_not_singular(canonical):
    # the -k r1^2 term is smooth at r1 = 0; only the second primary is excluded
    at_m1 = (-canonical.mu, 0.0, 0.0)
    assert np.isfinite(omega(at_m1, canonical))
    assert np.all(np.isfinite(grad_omega(at_m1, canonical)))
    assert np.all(np.isfinite(hessian_omega(at_m1, canonical).matrix()))


def test_grad_vanishes_in_y_on_the_plane(canonical):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, z = rng.uniform(-1.5, 1.5, 2)
        assert grad_omega((x, 0.0, z), canonical)[1] == 0.0


def test_grad_zero_at_canonical_point(canonical):
    pts = triangular_points(canonical)
    for branch in (+1, -1):
        npt.assert_allclose(grad_omega(pts.point(branch), canonical), 0.0, atol=1e-12)


def test_grad_reflection_symmetry(canonical):
    rng = np.random.default_rng(13)
    for _ in range(25):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        gx, gy, gz = grad_omega((x, y, z), canonical)
        npt.assert_array_equal(grad_omega((x, -y, z), canonical), [gx, -gy, gz])
        npt.assert_array_equal(grad_omega((x, y, -z), canonical), [gx, gy, -gz])


def test_grad_singularity(canonical):
    with pytest.raises(SingularityError):
        grad_omega((1 - canonical.mu, 0.0, 0.0), canonical)


def _fd_grad(pos, params, h):
    pos = np.asarray(pos, dtype=float)
    out = np.empty(3)
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        out[i] = (omega(pos + dp, params) - omega(pos - dp, params)) / (2 * h)
    return out


def _fd_hessian(pos, params, h):
    pos = np.asarray(pos, dtype=float)
    out = np.empty((3, 3))
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        out[:, i] = (grad_omega(pos + dp, params) - grad_omega(pos - dp, params)) / (2 * h)
    return 0.5 * (out + out.T)


def _random_points(rng, params, count, r2_min=0.1):
    pts = []
    while len(pts) < count:
        p = rng.uniform(-1.5, 1.5, 3)
        if radii(p, params.mu)[1] > r2_min:
            pts.append(p)
    return pts


def test_grad_matches_finite_difference(canonical):
    rng = np.random.default_rng(17)
    for p in _random_points(rng, canonical, 100):
        npt.assert_allclose(grad_omega(p, canonical), _fd_grad(p, canonical, 1e-6),
                            rtol=0, atol=1e-7)


def test_hessian_matches_finite_difference(canonical):
    rng = np.random.default_rng(19)
    for p in _random_points(rng, canonical, 100):
        npt.assert_allclose(hessian_omega(p, canonical).matrix(),
                            _fd_hessian(p, canonical, 1e-5), rtol=0, atol=1e-6)


def test_hessian_cross_terms_vanish_on_the_plane(canonical):
    rng = np.random.default_rng(23)
    for _ in range(20):
        x, z = rng.uniform(-1.5, 1.5, 2)
        h = hessian_omega((x, 0.0, z), canonical)
        assert h.xy == 0.0 and h.yz == 0.0


def test_hessian_yy_is_mean_motion_sq_at_equilibrium(canonical):
    pts = triangular_points(canonical)
    h = hessian_omega(pts.point(+1), canonical)
    npt.assert_allclose(h.yy, 1.03, rtol=1e-13)


def test_hessian_reflection_symmetry(canonical):
    rng = np.random.default_rng(29)
    for _ in range(25):
        x, y, z = rng.uniform(-1.5, 1.5, 3)
        h = hessian_omega((x, y, z), canonical)
        hy = hessian_omega((x, -y, z), canonical)
        assert (hy.xx, hy.yy, hy.zz, hy.xy, hy.xz, hy.yz) == \
            (h.xx, h.yy, h.zz, -h.xy, h.xz, -h.yz)
        hz = hessian_omega((x, y, -z), canonical)
        assert (hz.xx, hz.yy, hz.zz, hz.xy, hz.xz, hz.yz) == \
            (h.xx, h.yy, h.zz, h.xy, -h.xz, -h.yz)


def test_hessian_singularity(canonical):
    with pytest.raises(SingularityError):
        hessian_omega((1 - canonical.mu, 0.0, 0.0), canonical)


def test_singularity_where_r2_cubed_underflows(canonical):
    # r2 = 1e-110 > 0, but r2^3 rounds to 0 in floats (ZeroDivisionError, not
    # a SingularityError, before the guard); a little farther out, results are finite
    for kernel in (grad_omega, hessian_omega):
        with pytest.raises(SingularityError, match="r2\\^3 rounds to 0"):
            kernel((0.9, 1e-110, 0.0), canonical)
    assert np.all(np.isfinite(grad_omega((0.9, 1e-100, 0.0), canonical)))
    assert np.all(np.isfinite(hessian_omega((0.9, 1e-60, 0.0), canonical).matrix()))


def test_trace_identity_at_triangular_points():
    # Oxx + Oyy + Ozz = 2 n^2 - 6 k at either equilibrium
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if not pts.exists:
            continue
        for branch in (+1, -1):
            h = hessian_omega(pts.point(branch), params)
            npt.assert_allclose(h.xx + h.yy + h.zz, 2 * params.n_sq - 6 * k, rtol=1e-12)


def test_classical_limit_matches_unit_mean_motion():
    # at A1 = 0 the derived n^2 is exactly 1, so every formula reduces bitwise
    params = Params(mu=0.25, k=-0.05, a1_oblate=0.0)
    assert params.n_sq == 1.0
    rng = np.random.default_rng(31)
    for _ in range(10):
        x, y, z = rng.uniform(-1.2, 1.2, 3)
        r1_sq = (x + params.mu) ** 2 + y * y + z * z
        r2 = np.sqrt((x + params.mu - 1.0) ** 2 + y * y + z * z)
        classical = 0.5 * 1.0 * (x * x + y * y) - params.k * r1_sq + params.mu / r2
        assert omega((x, y, z), params) == classical
