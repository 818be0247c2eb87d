import ast
import compileall
import dis
import inspect
import linecache
import math
import os
import shutil
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis
import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import strategies as st

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
from robe3bp import dynamics, equilibria, model, stability
from conftest import FROZEN, acceptance_grid, min_weight_match, whole_region_cells


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
    verdict = classify(char_coeffs(canonical))
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.positive_real_root_count >= 1
    assert classify(char_coeffs(canonical)) == verdict  # the roots array is not compared


def test_classify_marginal():
    # (u + 1)(u + 4)(u + 9): lambda = +/- 1j, 2j, 3j
    verdict = classify(CharCoeffs(14.0, 49.0, 36.0))
    assert verdict.classification is Classification.MARGINALLY_STABLE
    assert verdict.max_real_part <= 0.0
    assert verdict.positive_real_root_count == 0


def test_classify_unit_root():
    verdict = classify(CharCoeffs(0.0, 0.0, -1.0))
    assert verdict.classification is Classification.UNSTABLE
    npt.assert_allclose(verdict.max_real_part, 1.0, rtol=1e-12)


def test_classify_odd_sign_changes_is_unstable_below_tol():
    # (u + 1)(u + 4)(u - 1e-30): r < 0 certifies lambda+ = 1e-15, far below
    # any fixed tolerance
    verdict = classify(CharCoeffs(5.0, 4.0, -4e-30))
    assert np.max(verdict.roots.real) < 1e-9
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.sign_changes == 1
    assert verdict.positive_real_root_count == 1


def test_classify_negative_coefficient_at_even_sign_count():
    # (u + 1)(u - 1e-30)^2: q < 0 with two sign changes; lambda = +/- 1e-15 twice
    verdict = classify(CharCoeffs(1.0, -2e-30, 1e-60))
    assert verdict.classification is Classification.UNSTABLE
    assert verdict.positive_real_root_count == 2
    assert verdict.sign_changes == 2


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


def test_linearization_matrix_is_the_block_assembly_bit_for_bit(canonical):
    # the identity, Hessian and Coriolis blocks stored into zeros, with the
    # signs of -0.0 and the subnormals of the Hessian kept
    pts = triangular_points(canonical)
    tiny = 5e-324
    cases = [(hessian_omega(pts.point(+1), canonical), canonical.n_sq),
             (PotentialHessian(-0.0, tiny, -tiny, -0.0, 2.5e-310, 0.0), 1e-320),
             (PotentialHessian(1.0, -0.0, -3.0, tiny, -0.0, -tiny), 0.25)]
    for hess, n_sq in cases:
        block = np.zeros((6, 6))
        block[0:3, 3:6] = np.eye(3)
        block[3:6, 0:3] = hess.matrix()
        block[3, 4] = 2.0 * math.sqrt(n_sq)
        block[4, 3] = -2.0 * math.sqrt(n_sq)
        m = linearization_matrix(hess, n_sq)
        assert m.dtype == block.dtype and m.shape == (6, 6)
        assert m.tobytes() == block.tobytes()


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


@pytest.mark.parametrize("cells, tol", [(acceptance_grid, 1e-12), (whole_region_cells, 1e-10)])
def test_unstable_direction_matches_eig(cells, tol):
    # np.linalg.eig of the 6x6 matrix as the oracle: its dominant eigenvector,
    # phase-rotated by its largest component as unstable_direction's mode
    for mu, k, a1 in cells():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if not pts.exists:
            continue
        m = linearization_matrix(hessian_omega(pts.point(+1), params), params.n_sq)
        eigvals, eigvecs = np.linalg.eig(m)
        v = eigvecs[:, int(np.argmax(eigvals.real))]
        v = (v / v[int(np.argmax(np.abs(v)))]).real
        npt.assert_allclose(unstable_direction(params)[1], v / np.linalg.norm(v),
                            rtol=0, atol=tol)


def test_unstable_direction_requires_existence():
    with pytest.raises(ValueError):
        unstable_direction(Params(mu=0.1, k=0.01))


def test_solve_characteristic_rejects_non_finite_coefficients():
    for coeffs in [(np.nan, 1.0, -1.0), (1.0, np.inf, -1.0), ([1.0, 1.0], [1.0, 1.0], [-1.0, -np.inf])]:
        with pytest.raises(ValueError, match="finite"):
            solve_characteristic(CharCoeffs(*coeffs))


def _max_real_part_mp(mu, k):
    """Largest real part of the six roots at A1 = 0 (n^2 = 1), from the parameters.

    mpmath at 60 digits plus the log10(1/|k|) digits that b^2 - 4c of the
    deflated quadratic loses to cancellation as k -> 0.
    """
    with mpmath.workdps(60 + int(-math.log10(-k))):
        mu, k = mpmath.mpf(mu), mpmath.mpf(k)
        b1 = mpmath.cbrt(mu / (-2 * k))
        a1 = 2 * k + mu - 1
        p = 2 * (1 + 3 * k)
        q = 1 - 6 * k * (3 * a1**2 - 2 * b1**2) / b1**2
        r = 6 * k * (b1**2 - a1**2) / b1**2
        u_plus = mpmath.findroot(lambda u: ((u + p) * u + q) * u + r, -r / q)
        b, c = p + u_plus, -r / u_plus
        pair = (-b + mpmath.sqrt(b * b - 4 * c)) / 2
        return max(mpmath.sqrt(u_plus), mpmath.sqrt(pair).real)


@pytest.mark.parametrize("k", [-1e-12, -1e-19, -1e-100, -1e-300])
def test_max_real_part_at_tiny_k(k):
    # lambda+ and the pair's real part both scale as sqrt|k|; the pair's must
    # not drown in the rounding of b^2 - 4c (a companion-matrix solve was 70%
    # off at k = -1e-19)
    params = Params(mu=0.1, k=k, a1_oblate=0.0)
    got = classify(char_coeffs(params)).max_real_part
    assert abs(got - _max_real_part_mp(0.1, k)) <= 4 * math.ulp(got)
    assert unstable_direction(params)[0] == got


@pytest.mark.parametrize("a1", [1e77, 1e100, 3.7e102])
def test_roots_at_large_a1(a1):
    # q ~ n^4 is near 1e205 at the largest accepted A1, so q^2 would overflow;
    # lambda+ stays near 0.208 while the pair sits near -n^2.  Held against
    # mpmath roots of the float coefficients.
    coeffs = char_coeffs(Params(mu=0.1, k=-0.01, a1_oblate=a1))
    verdict = classify(coeffs)
    with mpmath.workdps(60):
        u = mpmath.polyroots([1, *(mpmath.mpf(c) for c in coeffs)], maxsteps=100, extraprec=700)
        plus = [float(mpmath.sqrt(x)) for x in u if mpmath.im(x) == 0 and x > 0]
        best = float(max(mpmath.sqrt(x).real for x in u))
    got = [z.real for z in verdict.roots if z.imag == 0.0 and z.real > 0.0]
    assert verdict.positive_real_root_count == len(plus) == 1
    assert abs(got[0] - plus[0]) <= 4 * math.ulp(plus[0])
    assert abs(verdict.max_real_part - best) <= 4 * math.ulp(best)


# ---------------------------------------------------------------------------
# the solver's contract for any cubic, on cubics built from known roots u

def _coeffs_from_roots(real, pair=None):
    """Exact (p, q, r), as Fractions, of the monic cubic whose roots are
    ``real`` and, if given, ``pair`` = x + iy with its conjugate."""
    if pair is None:
        a, b, c = map(Fraction, real)
        return -(a + b + c), a * b + b * c + c * a, -a * b * c
    a, x, y = Fraction(real[0]), Fraction(pair.real), Fraction(pair.imag)
    m = x * x + y * y
    return -(a + 2 * x), 2 * a * x + m, -a * m


_FIXED_CUBIC = (6.0, 11.0, 6.0)  # u = -1, -2, -3


def _check_cell_of_grid(coeffs, roots, verdict):
    """The cubic as one cell of a two-cell grid, beside a fixed cubic, has the
    root bytes and the verdict of the one-cell call."""
    grid = CharCoeffs(*(np.array([c, f]) for c, f in zip(coeffs, _FIXED_CUBIC)))
    both = classify(grid)  # its roots are solve_characteristic's
    assert both.roots[0].tobytes() == roots.tobytes(), coeffs
    assert both.classification[0] == verdict.classification.value
    assert both.max_real_part[0].tobytes() == np.float64(verdict.max_real_part).tobytes()
    assert both.positive_real_root_count[0] == verdict.positive_real_root_count
    assert both.sign_changes[0] == verdict.sign_changes


def _check_cubic_contract(exact, real, pair, counted=True):
    """Roots closed under negation and conjugation, the bits of a grid cell,
    the count and verdict the roots give (where ``counted``), and a backward
    error of each u within 16 eps of its scale."""
    coeffs = CharCoeffs(*(float(c) for c in exact))
    roots = solve_characteristic(coeffs)
    key = lambda z: (z.real, z.imag)
    assert sorted(roots.tolist(), key=key) == sorted((-roots).tolist(), key=key)
    assert sorted(roots.tolist(), key=key) == sorted(roots.conj().tolist(), key=key)
    verdict = classify(coeffs)
    _check_cell_of_grid(coeffs, roots, verdict)
    if counted:
        n_pos = sum(v > 0 for v in real)
        stable = pair is None and all(v <= 0 for v in real)
        assert verdict.positive_real_root_count == n_pos
        assert (verdict.classification is Classification.MARGINALLY_STABLE) == stable
    eps = np.finfo(float).eps
    # products of these doubles are exact at 120 digits, and sums within
    # 1e-120 of their largest term: f(u) is exact as far as 16 eps can tell
    with mpmath.workdps(120):
        p, q, r = (mpmath.mpf(c) for c in coeffs)
        u1, re2, im2, re3, im3 = stability._cubic_floats(*coeffs)
        for z in (complex(u1, 0.0), complex(re2, im2), complex(re3, im3)):
            u = mpmath.mpc(z.real, z.imag)
            size = abs(u)
            scale = size**3 + abs(p) * size**2 + abs(q) * size + abs(r)
            assert abs(((u + p) * u + q) * u + r) <= 16 * eps * scale, (coeffs, z)


def _exact_in_float(coeffs):
    """Whether doubles hold the coefficients exactly, so that the float cubic
    has the drawn roots, double ones included."""
    return all(Fraction(float(c)) == c for c in coeffs)


dyadic = st.builds(math.ldexp, st.integers(-31, 31), st.integers(-14, 14))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(dyadic, min_size=3, max_size=3), st.sampled_from(["", "double", "zero"]))
def test_cubic_contract_three_real_roots(real, kind):
    # double roots and a zero root, with coefficients a double holds exactly
    if kind == "double":
        real[2] = real[1]
    elif kind == "zero":
        real[2] = 0.0
    exact = _coeffs_from_roots(real)
    hypothesis.assume(_exact_in_float(exact))
    # a triple root, even one the coefficients hold exactly, splits: an error
    # of 1 ulp in the first root found moves the other two by about eps^(1/3)
    _check_cubic_contract(exact, real, None, counted=len(set(real)) > 1)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(dyadic, dyadic, dyadic.filter(bool))
def test_cubic_contract_real_root_and_pair(real, x, y):
    exact = _coeffs_from_roots([real], complex(x, y))
    hypothesis.assume(_exact_in_float(exact))
    _check_cubic_contract(exact, [real], complex(x, y))


@st.composite
def _roots_over_decades(draw):
    """Three roots, or a root and a pair, each in its own decade in 1e-30..1e30."""
    decades = draw(st.lists(st.integers(-30, 30), min_size=3, max_size=3, unique=True))
    u = [draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1.0, 9.0)) * 10.0**e
         for e in decades]
    if draw(st.booleans()):
        return u, None
    return u[:1], complex(u[1], abs(u[1]) * draw(st.floats(0.125, 8.0)))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_roots_over_decades())
def test_cubic_contract_roots_over_many_decades(roots):
    # the coefficients are rounded, but each root is simple and alone in its
    # decade, so the rounding cannot make a real pair complex
    real, pair = roots
    _check_cubic_contract(_coeffs_from_roots(real, pair), real, pair)


# ---------------------------------------------------------------------------
# one cubic source, two spellings: a cell on Python floats, a grid on numpy

_EDGE_CUBICS = [
    (0.0, 0.0, 0.0),  # u = 0 three times: g = 0 where the slope is 0
    (-0.0, 0.0, -0.0),
    (-1.0, -0.0, 0.0),  # r = 0: u = 0 twice, and 1
    (2.0, -3.0, 0.0),
    (-7.0, 15.0, -9.0),  # (u - 3)^2 (u - 1): Newton from above meets the double root
    (-5.0, 7.0, -3.0),  # (u - 1)^2 (u - 3)
    (-3.0, 3.0, -1.0),  # (u - 1)^3
    (6.0, 12.0, 8.0),  # (u + 2)^3
    (-3e100, 3e200, -1e300),  # (u - 1e100)^3: the slope overflows from the first step
    (-(2e100 + 1.0), 1e200 + 2e100, -1e200),  # (u - 1e100)^2 (u - 1)
    (1e308, -1e308, 1e308),
    (5e-324, -5e-324, 5e-324),
]


def _check_one_cell(coeffs):
    """The one-cell roots are the cubic's row in a two-cell grid, bit for bit,
    and a numpy scalar or 0-d array of each coefficient gives them too; no
    ZeroDivisionError or RuntimeWarning escapes."""
    coeffs = CharCoeffs(*coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = solve_characteristic(coeffs)
        _check_cell_of_grid(coeffs, roots, classify(coeffs))
        for wrap in (np.float64, np.asarray):
            same = solve_characteristic(CharCoeffs(*map(wrap, coeffs)))
            assert same.tobytes() == roots.tobytes(), (wrap, coeffs)


def _zero_slopes(coeffs):
    """The g of each Newton quotient g / slope by a slope of 0 that
    `_cubic_floats` reaches on ``coeffs``, seen by a line tracer."""
    code, seen = stability._cubic_floats.__code__, []

    def trace(frame, event, arg):
        if frame.f_code is not code:
            return None
        line = linecache.getline(code.co_filename, frame.f_lineno).strip()
        if event == "line" and line.startswith("step = ") and frame.f_locals["slope"] == 0.0:
            seen.append(frame.f_locals["g"])
        return trace

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        stability._cubic_floats(*coeffs)
    finally:
        sys.settrace(old)
    return seen


def test_edge_cubics_one_cell_is_its_grid_row():
    for coeffs in _EDGE_CUBICS:
        _check_one_cell(coeffs)
    # a Newton quotient by a slope of 0 is taken on floats: (0, 0, 0) starts at
    # x = hi = 0, where g and the slope are both 0
    assert _zero_slopes(_EDGE_CUBICS[0])[:1] == [0.0]


_edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, -1e308]),
    st.floats(-1e-300, 1e-300),  # subnormals among them
    st.floats(-1e308, 1e308),
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_edge_floats, _edge_floats, _edge_floats)
def test_one_cell_cubic_is_its_grid_row(p, q, r):
    _check_one_cell((p, q, r))


# the lines of _CUBIC that read a Newton quotient: the step, the loop's select
# of the next iterate, and the select of the compensated step
_STEP_LINES = "\n".join(dict.fromkeys(
    line.strip() for line in stability._CUBIC.splitlines() if "step" in line))


@pytest.mark.parametrize("b", [0.0, -0.0])
@pytest.mark.parametrize("a", [1.0, -1.0, 5e-324, 1e308, 0.0, -0.0, math.inf, -math.inf, math.nan])
def test_quotient_by_zero_on_floats_is_ieee(a, b):
    # g / slope by a slope of 0 is NaN on floats, where IEEE 754 (numpy) may
    # give an infinity, but _CUBIC reads the step only through tests that fail
    # on both: the loop bisects and u1 keeps x, with the bits of the numpy
    # spelling
    for lo, x, hi in [(0.0, 0.0, 0.0), (0.0, 0.5, 1.0), (0.0, 1.0, 1.0), (1.0, 3.0, 3.0),
                      (5e-324, 5e-324, 1e308)]:
        cell = {"g": a, "slope": b, "lo": lo, "x": x, "hi": hi, "s": -1.0}
        floats = dict(cell, math=math)
        exec(model._spell(_STEP_LINES, model._FLOATS), floats)
        arrays = dict({name: np.array([v]) for name, v in cell.items()}, np=np)
        with np.errstate(divide="ignore", invalid="ignore"):
            exec(model._spell(_STEP_LINES, model._NUMPY), arrays)
        assert not math.isfinite(floats["step"]) and not np.isfinite(arrays["step"]).any()
        assert (floats["new"], floats["u1"]) == (lo + 0.5 * (hi - lo), -x)
        for name in ("new", "u1"):
            assert np.array([floats[name]]).tobytes() == arrays[name].tobytes(), (name, x)


def test_float_spelling_is_rendered_without_numpy():
    # the cubic and the pair are each written once, in _CUBIC and _POINTS, and
    # spelled twice; each spelling's generated lines show in inspect.getsource
    # of its kernel, under a filename of its own
    for module, template, prefix in ((stability, stability._CUBIC, "_cubic"),
                                     (equilibria, equilibria._POINTS, "_points")):
        for words, spelling in ((model._FLOATS, "floats"), (model._NUMPY, "numpy")):
            func = getattr(module, f"{prefix}_{spelling}")
            assert func.__code__.co_filename == f"<robe3bp {func.__module__}.{func.__name__}>"
            source = inspect.getsource(func)
            block = model._spell(template, words)
            assert textwrap.indent(block, " " * 4) in source
            names = {node.id for node in ast.walk(ast.parse(block))
                     if isinstance(node, ast.Name)}
            if words is model._FLOATS:  # no numpy attribute, no numpy select
                assert not names & {"np", "_where", "_cube_root"}
            else:
                assert "np" in names
            names = {node.id for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Name)}
            assert not names & set(model._NUMPY)  # every word of the vocabulary spelled out
    assert not hasattr(model, "_where") and not hasattr(stability, "_cubic_roots_s")
    assert not hasattr(stability, "_cubic_roots")
    assert "    s = (-1.0 if r > 0.0 else 1.0)\n" in inspect.getsource(stability._cubic_floats)
    assert "    b1 = math.pow(" in inspect.getsource(equilibria._points_floats)


# What each float path may call, function by function.  None marks a call that
# is exact (a comparison, sign, selection, conversion, container or check) or
# rounds correctly as a basic operation does: real sqrt, and the helpers and
# kernels audited here, which are + - * / and sqrt themselves (_cubic_numpy is
# _CUBIC spelled for numpy, with the bits of _cubic_floats).  Any other call
# is named by the lines it may stand on, by their start; the same call on
# another line fails.  Operators are not calls: the complex products and
# quotients in unstable_direction (lam * lam, c / top) are not audited here.
_FLOAT_KERNEL_CALLS = {
    # CBRT: libm pow(x, 1/3), off by up to 10 ulps
    equilibria._points_floats: {"math.sqrt": None, "math.pow": ("b1 = math.pow(",)},
    stability._cubic_floats: dict.fromkeys(("abs", "max", "min", "math.sqrt", "math.copysign",
                                            "_two_product", "_cubic_compensated")),
    stability._two_product: {},
    stability._two_sum: {},
    stability._cubic_compensated: dict.fromkeys(("_two_product", "_two_sum")),
    dynamics._first_step: dict.fromkeys(("zip", "sqrt", "_rhs")),  # sqrt is math.sqrt
    dynamics._rhs: dict.fromkeys(("_grad_s",)),
    model._grad_s: dict.fromkeys(("sqrt", "SingularityError")),  # sqrt is math.sqrt
    model.hessian_omega: dict.fromkeys(("float", "math.sqrt", "SingularityError",
                                        "PotentialHessian")),
    stability._closed_form: dict.fromkeys(("_require", "_errstate", "CharCoeffs")),
    stability.linearization_matrix: dict.fromkeys(("ValueError", "math.sqrt", "np.array")),
    stability.solve_characteristic: {
        **dict.fromkeys(("any", "isinstance", "map", "complex", "ValueError", "math.isfinite",
                         "np.ndim", "np.shape", "np.asarray", "np.isfinite", ".all",
                         "np.errstate", "np.zeros", "np.empty", "np.array", ".tolist",
                         "_cubic_numpy", "_cubic_floats")),
        # the complex sqrt from u to lambda: libm csqrt, not required to round correctly
        "np.sqrt": ("s = np.sqrt(u)", "a, b, c = np.sqrt("),
    },
    stability.unstable_direction: {
        **dict.fromkeys(("max", ".tolist", "_closed_form", "hessian_omega",
                         "linearization_matrix", "enumerate", "range", "np.array")),
        "triangular_points": ("pts = triangular_points(",),  # b1 through libm pow
        "solve_characteristic": ("lam = max(solve_characteristic(",),  # through csqrt
        "math.hypot": ("norm = math.hypot(",),  # libm hypot
    },
}


def _call_name(node: ast.Call) -> str:
    """``f`` or ``m.f`` for a call of a name, ``.f`` for a method of another value."""
    func = node.func
    if isinstance(func, ast.Attribute) and not isinstance(func.value, (ast.Name, ast.Attribute)):
        return "." + func.attr
    return ast.unparse(func)


def _instructions(code):
    """The bytecode of ``code`` and of the comprehensions and lambdas within it."""
    yield from dis.get_instructions(code)
    for const in code.co_consts:
        if inspect.iscode(const):
            yield from _instructions(const)


def test_float_kernels_call_only_math_builtins_and_compensated_helpers():
    # no power runs (2.0 ** -40 is folded into a constant when compiled), also in
    # a comprehension or lambda, and no call but those of the function's list,
    # each inexact one on a line the list names
    for func, allowed in _FLOAT_KERNEL_CALLS.items():
        powers = [ins.argrepr for ins in _instructions(func.__code__)
                  if ins.opname in ("BINARY_POWER", "INPLACE_POWER")  # Python 3.10
                  or ins.opname == "BINARY_OP" and ins.argrepr in ("**", "**=")]
        lines = inspect.getsource(func).splitlines()
        stray = []
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.Call):
                name, line = _call_name(node), lines[node.lineno - 1].strip()
                if name not in allowed or allowed[name] and not line.startswith(allowed[name]):
                    stray.append((name, line))
        assert powers == [] and stray == [], (func.__name__, powers, stray)


# run a command of the package found first on sys.path, after checking that
# robe3bp.cli was loaded from a file that ends as argv[1] says
_RUN_CLI = """\
import sys
import robe3bp.cli
assert robe3bp.cli.__file__.endswith(sys.argv[1]), robe3bp.cli.__file__
sys.exit(robe3bp.cli.main(sys.argv[2:]))
"""


def test_bytecode_only_install_runs(tmp_path):
    # every generated kernel is compiled from template text, not from the
    # package's .py files: a copy that holds only bytecode (compileall -b, each
    # .py removed) imports, and writes the bytes the source tree writes
    source_root = Path(stability.__file__).parents[1]
    package = tmp_path / "bytecode" / "robe3bp"
    shutil.copytree(source_root / "robe3bp", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert compileall.compile_dir(package, legacy=True, quiet=1)
    for path in package.glob("*.py"):
        path.unlink()
    point = ["--mu", "0.1", "--k", "-0.01", "--a1", "0.02"]
    for argv in (["locate", *point, "--format", "csv"], ["stability", *point, "--format", "csv"],
                 ["integrate", *point, "--from-equilibrium", "--offset", "1e-8"]):
        written = []
        for root, suffix in ((package.parent, "cli.pyc"), (source_root, "cli.py")):
            workdir = tmp_path / f"{argv[0]}-{suffix}"
            workdir.mkdir()  # the integrate summary names its relative output file
            result = subprocess.run(
                [sys.executable, "-c", _RUN_CLI, suffix, *argv, "--output", "out.csv"],
                cwd=workdir, env={**os.environ, "PYTHONPATH": str(root)},
                capture_output=True)
            assert result.returncode == 0 and result.stderr == b"", (argv, result.stderr)
            written.append((result.stdout, (workdir / "out.csv").read_bytes()))
        assert written[0] == written[1], argv
        assert written[0][1]  # a CSV was written
