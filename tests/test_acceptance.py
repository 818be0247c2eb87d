"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5's reference numbers were recomputed up front with independent
oracles (50-digit arithmetic, finite differences of the potential, and
bisection on the characteristic polynomial) before being frozen here.
"""

import time

import numpy as np
import numpy.testing as npt

from robe3bp import (
    Params,
    char_coeffs,
    char_coeffs_from_hessian,
    classify,
    equilibrium_state,
    grad_omega,
    growth_rate,
    hessian_omega,
    integrate,
    jacobi_constant,
    linearization_matrix,
    omega,
    radii,
    solve_characteristic,
    triangular_points,
    unstable_seed,
    IntegratorConfig,
    PhaseState,
    Classification,
)
from conftest import FROZEN, acceptance_grid, min_weight_match, whole_region_cells


def _report(criterion: int, label: str, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def _admissible_cells():
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        pts = triangular_points(params)
        if pts.exists:
            yield params, pts


def test_criterion_1_equilibrium_residual():
    start = time.perf_counter()
    worst = 0.0
    cells = 0
    for params, pts in _admissible_cells():
        cells += 1
        for branch in (+1, -1):
            res = float(np.max(np.abs(grad_omega(pts.point(branch), params))))
            worst = max(worst, res)
    elapsed = time.perf_counter() - start
    _report(1, "equilibrium residual", worst < 1e-10 and elapsed < 1.0,
            f"{cells} admissible cells, max |grad|_inf = {worst:.3e}, {elapsed:.3f} s")


def test_criterion_2_coefficient_identity():
    worst = 0.0
    for params, pts in _admissible_cells():
        closed = char_coeffs(params)
        for branch in (+1, -1):
            hess = hessian_omega(pts.point(branch), params)
            oracle = char_coeffs_from_hessian(hess, params.n_sq)
            rel = max(abs(c - o) / max(abs(c), abs(o))
                      for c, o in zip(closed, oracle))
            worst = max(worst, rel)
        assert closed.r < 0.0  # displayed-form sign, negative throughout
    _report(2, "coefficient identity", worst < 1e-12,
            f"max relative disagreement = {worst:.3e}")


def test_criterion_3_root_eigenvalue_agreement():
    worst = 0.0
    for params, pts in _admissible_cells():
        roots = solve_characteristic(char_coeffs(params))
        hess = hessian_omega(pts.point(+1), params)
        eig = np.linalg.eigvals(linearization_matrix(hess, params.n_sq))
        worst = max(worst, min_weight_match(roots, eig))
    _report(3, "root-eigenvalue agreement", worst < 1e-8,
            f"max matched distance = {worst:.3e}")


def test_criterion_4_instability_universality():
    # one array pass over the acceptance grid and the whole admissible region
    mu, k, a1 = (np.array(c) for c in zip(*acceptance_grid(), *whole_region_cells()))
    ok = triangular_points(Params(mu=mu, k=k, a1_oblate=a1)).exists
    coeffs = char_coeffs(Params(mu=mu[ok], k=k[ok], a1_oblate=a1[ok]))
    verdict = classify(coeffs)
    changes = verdict.sign_changes
    assert np.all(verdict.classification == Classification.UNSTABLE.value)
    assert np.all(verdict.positive_real_root_count == 1)
    assert np.all((changes == 1) | (changes == 3))
    p_low, q_low = int(np.sum(coeffs.p <= 0.0)), int(np.sum(coeffs.q <= 0.0))
    assert p_low > 0 and q_low > 0  # the grid reaches beyond the (+,+,+,-) cells
    _report(4, "instability universality", bool(ok.any()),
            f"{int(ok.sum())} cells unstable, each with exactly one positive real root; "
            f"{p_low} with p <= 0, {q_low} with q <= 0, "
            f"{int(np.sum(changes == 3))} with 3 sign changes")


def test_criterion_5_canonical_case(canonical):
    p, q, r = char_coeffs(canonical)
    roots = solve_characteristic(char_coeffs(canonical))
    lam = max(z.real for z in roots if abs(z.imag) < 1e-9)
    ok = (
        abs(p - 2.0) < 1e-9
        and abs(q - FROZEN["q"]) < 1e-5
        and abs(r - (-0.045252)) < 1e-5
        and abs(lam - FROZEN["lambda_plus"]) < 1e-3
    )
    _report(5, "canonical case", ok,
            f"p = {p:.9f}, q = {q:.6f}, r = {r:.6f}, lambda+ = {lam:.6f}")


def test_criterion_6_nonlinear_confirmation(canonical):
    start = time.perf_counter()
    state0 = unstable_seed(canonical, 1e-8)
    traj = integrate(state0, canonical, IntegratorConfig(t_end=60.0))
    rate = growth_rate(traj, equilibrium_state(canonical).pos)
    drift = float(np.max(np.abs(traj.jacobi - traj.jacobi[0])))
    elapsed = time.perf_counter() - start
    rel = abs(rate - FROZEN["lambda_plus"]) / FROZEN["lambda_plus"]
    ok = rel < 0.05 and drift < 1e-9 and elapsed < 5.0
    _report(6, "nonlinear confirmation", ok,
            f"fitted rate = {rate:.6f} vs root {FROZEN['lambda_plus']:.6f} "
            f"({100 * rel:.2f}%), Jacobi drift = {drift:.2e}, {elapsed:.2f} s")


def test_criterion_7_derivative_oracles(canonical):
    rng = np.random.default_rng(17)
    pts = []
    while len(pts) < 100:
        p = rng.uniform(-1.5, 1.5, 3)
        if radii(p, canonical.mu)[1] > 0.1:
            pts.append(p)

    def fd_grad(pos, h=1e-6):
        out = np.empty(3)
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            out[i] = (omega(pos + dp, canonical) - omega(pos - dp, canonical)) / (2 * h)
        return out

    def fd_hess(pos, h=1e-5):
        out = np.empty((3, 3))
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            out[:, i] = (grad_omega(pos + dp, canonical)
                         - grad_omega(pos - dp, canonical)) / (2 * h)
        return 0.5 * (out + out.T)

    worst_g = max(np.max(np.abs(grad_omega(p, canonical) - fd_grad(p))) for p in pts)
    worst_h = max(np.max(np.abs(hessian_omega(p, canonical).matrix() - fd_hess(p)))
                  for p in pts)
    min_r2 = min(radii(p, canonical.mu)[1] for p in pts)
    _report(7, "derivative oracles", worst_g < 1e-6 and worst_h < 1e-5,
            f"gradient |err| = {worst_g:.3e}, Hessian |err| = {worst_h:.3e}, "
            f"min r2 = {min_r2:.3f}")


# --- criterion 8: classical limit -----------------------------------------
# reference formulas with the mean-motion squared written as the literal 1.0,
# mirroring the generalized expressions so results are bit-comparable

def _classical_outputs(mu: float, k: float) -> dict:
    out = {}
    out["a1_aux"] = 2.0 * k / 1.0 + mu - 1.0
    out["b1_aux"] = (-mu / (2.0 * k)) ** (1.0 / 3.0)
    a1, b1 = out["a1_aux"], out["b1_aux"]
    out["x"] = 2.0 * k / 1.0
    out["z"] = float(np.sqrt(b1 * b1 - a1 * a1))
    a1_sq, b1_sq = a1 * a1, b1 * b1
    out["p"] = 2.0 * (1.0 + 3.0 * k)
    out["q"] = 1.0 * (1.0 - 6.0 * k * (3.0 * a1_sq - 2.0 * b1_sq) / b1_sq)
    out["r"] = 6.0 * 1.0 * 1.0 * k * (b1_sq - a1_sq) / b1_sq
    return out


def _classical_omega(pos, mu, k):
    x, y, z = pos
    r1_sq = (x + mu) ** 2 + y * y + z * z
    r2 = np.sqrt((x + mu - 1.0) ** 2 + y * y + z * z)
    return 0.5 * 1.0 * (x * x + y * y) - k * r1_sq + mu / r2


def test_criterion_8_classical_limit():
    fmt = lambda v: format(float(v), ".17g")
    cases = [(0.1, -0.01), (0.25, -0.05), (0.5, -0.02), (0.3, -0.1)]
    compared = 0
    for mu, k in cases:
        params = Params(mu=mu, k=k, a1_oblate=0.0)
        assert params.n_sq == 1.0
        pts = triangular_points(params)
        ref = _classical_outputs(mu, k)
        assert pts.exists
        got = {
            "a1_aux": pts.a1_aux, "b1_aux": pts.b1_aux,
            "x": pts.x_eq, "z": pts.z_plus,
        }
        got.update(zip(("p", "q", "r"), char_coeffs(params)))
        for key, value in got.items():
            assert fmt(value) == fmt(ref[key]), f"{key} at mu={mu}, k={k}"
            compared += 1
        # roots from bit-identical coefficients are bit-identical
        roots = solve_characteristic(char_coeffs(params))
        ref_roots = solve_characteristic(
            type(char_coeffs(params))(ref["p"], ref["q"], ref["r"]))
        assert all(fmt(a.real) == fmt(b.real) and fmt(a.imag) == fmt(b.imag)
                   for a, b in zip(roots, ref_roots))
        compared += 6
        # potential, gradient and Jacobi constant at sample points
        rng = np.random.default_rng(71)
        for _ in range(5):
            pos, vel = rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)
            assert fmt(omega(pos, params)) == fmt(_classical_omega(pos, mu, k))
            state = PhaseState(pos, vel)
            c_ref = 2.0 * _classical_omega(pos, mu, k) - float(vel @ vel)
            assert fmt(jacobi_constant(state, params)) == fmt(c_ref)
            compared += 2
    _report(8, "classical limit", compared > 0,
            f"{compared} formatted outputs bit-identical across {len(cases)} cases")
