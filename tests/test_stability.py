import numpy as np
import numpy.testing as npt
import pytest

from robe3bp import (
    CharCoeffs,
    Classification,
    Params,
    StructureError,
    char_coeffs,
    char_coeffs_from_hessian,
    classify,
    hessian_omega,
    linearization_matrix,
    sign_change_count,
    solve_characteristic,
    triangular_points,
    unstable_direction,
)
from robe3bp.model import PotentialHessian
from conftest import FROZEN, acceptance_grid, min_weight_match


def test_char_coeffs_canonical(canonical):
    p, q, r = char_coeffs(canonical)
    npt.assert_allclose(p, FROZEN["p"], rtol=1e-14)
    npt.assert_allclose(q, FROZEN["q"], rtol=1e-13)
    npt.assert_allclose(r, FROZEN["r"], rtol=1e-13)


def test_char_coeffs_p_formula():
    # p = 2 (n^2 + 3k) = 2 (1 - 0.3) is independent of mu; mu = 0.5 keeps the
    # points in existence for k = -0.1, A1 = 0
    p, _, _ = char_coeffs(Params(mu=0.5, k=-0.1, a1_oblate=0.0))
    npt.assert_allclose(p, 1.4, rtol=1e-15)


def test_char_coeffs_requires_existence():
    with pytest.raises(ValueError):
        char_coeffs(Params(mu=0.1, k=0.01))
    with pytest.raises(ValueError):
        char_coeffs(Params(mu=0.1, k=-0.4, a1_oblate=0.0))


def test_r_negative_on_admissible_cells():
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        if triangular_points(params).exists:
            assert char_coeffs(params).r < 0.0


def test_coefficient_identity(canonical):
    pts = triangular_points(canonical)
    hess = hessian_omega(pts.point(+1), canonical)
    closed = char_coeffs(canonical)
    oracle = char_coeffs_from_hessian(hess, canonical.n_sq)
    for c, o in zip(closed, oracle):
        assert abs(c - o) <= 1e-12 * max(abs(c), abs(o))


def test_hessian_route_zero_matrix():
    zero = PotentialHessian(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert char_coeffs_from_hessian(zero, 1.0) == (4.0, 0.0, 0.0)


def test_hessian_route_r_is_minus_determinant():
    # for the block-diagonal pattern, r = -det(H): evaluating the reduced
    # determinant at lambda = 0 reproduces the constant term
    rng = np.random.default_rng(47)
    for _ in range(50):
        xx, yy, zz, xz = rng.uniform(-2, 2, 4)
        h = PotentialHessian(xx, yy, zz, 0.0, xz, 0.0)
        r = char_coeffs_from_hessian(h, 1.3).r
        npt.assert_allclose(r, -np.linalg.det(h.matrix()), rtol=1e-12, atol=1e-14)


def test_hessian_route_structure_error(canonical):
    off_plane = hessian_omega((0.3, 0.4, 0.5), canonical)
    assert abs(off_plane.xy) > 1e-12
    with pytest.raises(StructureError):
        char_coeffs_from_hessian(off_plane, canonical.n_sq)


def test_solve_characteristic_roots_of_unity():
    roots = solve_characteristic(CharCoeffs(0.0, 0.0, -1.0))
    # u^3 = 1: exactly one root equals +1, set closed under negation
    ones = [z for z in roots if abs(z - 1.0) < 1e-9]
    assert len(ones) == 1
    assert all(abs(z) - 1.0 < 1e-9 for z in roots)
    assert min_weight_match(roots, -roots) < 1e-12


def _bisect_positive_root(coeffs, hi=1.0):
    f = lambda lam: ((lam**2 + coeffs.p) * lam**2 + coeffs.q) * lam**2 + coeffs.r
    lo = 0.0
    assert f(lo) < 0 < f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_solve_characteristic_positive_root_vs_bisection():
    coeffs = CharCoeffs(2.0, 1.052699, -0.045252)
    oracle = _bisect_positive_root(coeffs)
    npt.assert_allclose(oracle, 0.19975348115966442, rtol=1e-12)
    roots = solve_characteristic(coeffs)
    positive = [z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 0]
    assert len(positive) == 1
    npt.assert_allclose(positive[0], oracle, rtol=1e-10)
    npt.assert_allclose(positive[0] ** 2, 0.0399, atol=1e-4)


def test_solve_characteristic_canonical(canonical):
    roots = solve_characteristic(char_coeffs(canonical))
    positive = [z.real for z in roots if abs(z.imag) < 1e-9 and z.real > 0]
    assert len(positive) == 1
    npt.assert_allclose(positive[0], FROZEN["lambda_plus"], rtol=1e-12)
    npt.assert_allclose(positive[0] ** 2, FROZEN["u_plus"], rtol=1e-12)


def test_solve_characteristic_negation_closure_and_residual():
    rng = np.random.default_rng(53)
    for _ in range(100):
        coeffs = CharCoeffs(*rng.uniform(-3, 3, 3))
        roots = solve_characteristic(coeffs)
        assert min_weight_match(roots, -roots) < 1e-9
        assert min_weight_match(roots, np.conj(roots)) < 1e-9  # real coefficients
        scale = max(1.0, *(abs(c) for c in coeffs))
        for z in roots:
            f = ((z**2 + coeffs.p) * z**2 + coeffs.q) * z**2 + coeffs.r
            assert abs(f) < 1e-9 * scale * max(1.0, abs(z)) ** 6


def test_classify_canonical(canonical):
    verdict = classify(solve_characteristic(char_coeffs(canonical)))
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.positive_real_root_count >= 1


def test_classify_marginal():
    roots = np.array([1j, -1j, 2j, -2j, 3j, -3j])
    verdict = classify(roots)
    assert verdict.classification is Classification.MARGINALLY_STABLE
    assert verdict.positive_real_root_count == 0


def test_classify_unit_root():
    verdict = classify(solve_characteristic(CharCoeffs(0.0, 0.0, -1.0)))
    assert verdict.classification is Classification.UNSTABLE
    npt.assert_allclose(verdict.max_real_part, 1.0, rtol=1e-12)


def test_classify_rejects_bad_tolerance():
    for tol in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            classify(np.array([1j, -1j]), tol=tol)


def test_classify_odd_sign_changes_is_unstable_below_tol():
    # (u + 1)(u + 4)(u - 1e-30): r < 0 certifies lambda+ = 1e-15, far below tol
    coeffs = CharCoeffs(5.0, 4.0, -4e-30)
    roots = solve_characteristic(coeffs)
    assert np.max(roots.real) < 1e-9
    assert classify(roots).classification is Classification.MARGINALLY_STABLE
    verdict = classify(roots, sign_changes=sign_change_count(coeffs))
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.sign_changes == 1
    even = classify(roots, sign_changes=2)
    assert even.classification is Classification.MARGINALLY_STABLE


def test_sign_change_count():
    assert sign_change_count(CharCoeffs(2.0, 0.990899, -0.045252)) == 1
    assert sign_change_count(CharCoeffs(2.0, 1.0, 3.0)) == 0
    assert sign_change_count(CharCoeffs(-1.0, 1.0, -1.0)) == 3
    assert sign_change_count(CharCoeffs(0.0, 1.0, -1.0)) == 1
    assert sign_change_count(CharCoeffs(0.0, -1.0, 0.0)) == 1
    numpy_count = sign_change_count(CharCoeffs(*np.array([2.0, 0.990899, -0.045252])))
    assert numpy_count == 1 and type(numpy_count) is int


def test_linearization_pure_coriolis():
    zero = PotentialHessian(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    eig = np.linalg.eigvals(linearization_matrix(zero, 1.0))
    expected = np.array([0.0, 0.0, 0.0, 0.0, 2j, -2j])
    assert min_weight_match(eig, expected) < 1e-6


def test_linearization_rejects_bad_n_sq():
    zero = PotentialHessian(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        linearization_matrix(zero, 0.0)


def test_root_eigenvalue_identity_canonical(canonical):
    pts = triangular_points(canonical)
    hess = hessian_omega(pts.point(+1), canonical)
    eig = np.linalg.eigvals(linearization_matrix(hess, canonical.n_sq))
    roots = solve_characteristic(char_coeffs(canonical))
    assert min_weight_match(roots, eig) < 1e-8


def test_z_branch_indifference():
    for mu, k, a1 in [(0.1, -0.01, 0.02), (0.3, -0.05, 0.0), (0.5, -0.02, 0.2)]:
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        up = char_coeffs_from_hessian(hessian_omega(pts.point(+1), params), params.n_sq)
        dn = char_coeffs_from_hessian(hessian_omega(pts.point(-1), params), params.n_sq)
        assert up == dn


def test_sign_claims_over_grid():
    # p > 0 iff n^2 + 3k > 0 and q > 0 iff n^2 b1^2 > 6k (3 a1^2 - 2 b1^2);
    # instability needs neither: r < 0 alone forces a positive real root
    p_pos = q_pos = cells = 0
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if not pts.exists:
            continue
        cells += 1
        coeffs = char_coeffs(params)
        assert (coeffs.p > 0) == (params.n_sq + 3 * k > 0)
        lhs = params.n_sq * pts.b1_aux**2
        rhs = 6 * k * (3 * pts.a1_aux**2 - 2 * pts.b1_aux**2)
        assert (coeffs.q > 0) == (lhs > rhs)
        p_pos += coeffs.p > 0
        q_pos += coeffs.q > 0
    assert cells > 0
    print(f"\np > 0 on {p_pos}/{cells} admissible cells, q > 0 on {q_pos}/{cells}")


def test_descartes_consistency_over_grid():
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        if not triangular_points(params).exists:
            continue
        coeffs = char_coeffs(params)
        if coeffs.p > 0 and coeffs.q > 0 and coeffs.r < 0:
            assert sign_change_count(coeffs) == 1
            roots = solve_characteristic(coeffs)
            positive = [z for z in roots if abs(z.imag) <= 1e-9 and z.real > 1e-9]
            assert len(positive) == 1


def test_unstable_direction_is_an_eigenvector(canonical):
    rate, vec = unstable_direction(canonical)
    npt.assert_allclose(rate, FROZEN["lambda_plus"], rtol=1e-10)
    npt.assert_allclose(np.linalg.norm(vec), 1.0, rtol=1e-12)
    pts = triangular_points(canonical)
    m = linearization_matrix(hessian_omega(pts.point(+1), canonical), canonical.n_sq)
    npt.assert_allclose(m @ vec, rate * vec, atol=1e-8)


def test_unstable_direction_requires_existence():
    with pytest.raises(ValueError):
        unstable_direction(Params(mu=0.1, k=0.01))
