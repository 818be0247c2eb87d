import numpy as np
import numpy.testing as npt
import pytest

from robe3bp import (
    ConvergenceError,
    IntegratorConfig,
    NoGrowthError,
    Params,
    PhaseState,
    eom_rhs,
    equilibrium_state,
    grad_omega,
    growth_rate,
    hessian_omega,
    integrate,
    jacobi_constant,
    linearization_matrix,
    omega,
    triangular_points,
    unstable_seed,
)
from conftest import FROZEN

# k > n^2/2 makes the energy surface compact, so these orbits stay bounded
CONFINING = Params(mu=0.1, k=0.6, a1_oblate=0.02)


def test_phase_state_validation():
    with pytest.raises(ValueError):
        PhaseState(pos=(0.0, 0.0), vel=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        PhaseState(pos=(np.nan, 0.0, 0.0), vel=(0.0, 0.0, 0.0))


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(initial_step=-1e-3)
    for name in ("rel_tol", "abs_tol", "initial_step", "t_end"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                IntegratorConfig(**{name: value})
    for value in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="max_step"):
            IntegratorConfig(max_step=value)
    assert IntegratorConfig(max_step=np.inf).max_step == np.inf


def test_rhs_at_rest_equilibrium(canonical):
    state = equilibrium_state(canonical)
    deriv = eom_rhs(state, canonical)
    npt.assert_allclose(deriv, 0.0, atol=1e-15)


def test_rhs_pure_coriolis(canonical):
    state = PhaseState(pos=equilibrium_state(canonical).pos, vel=(0.0, 1.0, 0.0))
    deriv = eom_rhs(state, canonical)
    npt.assert_allclose(deriv[3:], [2 * canonical.n, 0.0, 0.0], atol=1e-15)


def test_rhs_matches_hand_assembly(canonical):
    rng = np.random.default_rng(59)
    for _ in range(20):
        pos, vel = rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)
        gx, gy, gz = grad_omega(pos, canonical)
        n = canonical.n
        expected = [*vel, gx + 2 * n * vel[1], gy - 2 * n * vel[0], gz]
        npt.assert_array_equal(eom_rhs(PhaseState(pos, vel), canonical), expected)


def test_jacobi_zero_velocity(canonical):
    pos = (0.3, 0.2, 0.1)
    state = PhaseState(pos=pos, vel=(0.0, 0.0, 0.0))
    assert jacobi_constant(state, canonical) == 2 * omega(pos, canonical)


def test_jacobi_reflection_invariance(canonical):
    rng = np.random.default_rng(61)
    for _ in range(20):
        pos, vel = rng.uniform(-1, 1, 3), rng.uniform(-0.5, 0.5, 3)
        c = jacobi_constant(PhaseState(pos, vel), canonical)
        flipped = PhaseState(pos * [1, -1, 1], vel * [1, -1, 1])
        assert jacobi_constant(flipped, canonical) == c


def test_integrate_jacobi_column_is_jacobi_constant(canonical):
    traj = integrate(unstable_seed(canonical, 1e-6), canonical, IntegratorConfig(t_end=5.0))
    expected = [jacobi_constant(PhaseState.from_vector(s), canonical) for s in traj.states]
    npt.assert_array_equal(traj.jacobi, expected)


def test_integrate_fixed_point(canonical):
    state0 = equilibrium_state(canonical)
    traj = integrate(state0, canonical, IntegratorConfig(t_end=50.0))
    assert traj.status == "completed"
    npt.assert_allclose(traj.states[-1][:3], state0.pos, atol=1e-8)


def test_integrate_sampling_contract(canonical):
    traj = integrate(unstable_seed(canonical, 1e-8), canonical,
                     IntegratorConfig(t_end=10.0))
    assert len(traj) == traj.steps + 1
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_unstable_growth(canonical):
    state0 = unstable_seed(canonical, 1e-8)
    traj = integrate(state0, canonical, IntegratorConfig(t_end=60.0))
    eq = equilibrium_state(canonical).vector()
    disp = np.linalg.norm(traj.states - eq, axis=1)
    crossing = np.nonzero(disp > 1e-4)[0]
    assert crossing.size > 0 and traj.times[crossing[0]] < 60.0
    grow_window = disp[: crossing[0] + 1]
    assert np.all(np.diff(grow_window) > -1e-12)  # monotone growth to 1e-4


def test_integrate_jacobi_drift_canonical(canonical):
    traj = integrate(unstable_seed(canonical, 1e-8), canonical,
                     IntegratorConfig(t_end=60.0))
    assert np.max(np.abs(traj.jacobi - traj.jacobi[0])) < 1e-9


def test_integrate_escape_flag():
    # with k < 0 the buoyancy term repels; an outward launch escapes quickly
    params = Params(mu=0.1, k=-0.01, a1_oblate=0.0)
    state0 = PhaseState(pos=(2.0, 0.0, 0.0), vel=(1.0, 0.0, 0.0))
    traj = integrate(state0, params, IntegratorConfig(t_end=50.0, rel_tol=1e-9, abs_tol=1e-9))
    assert traj.status == "escape"
    assert np.linalg.norm(traj.states[-1][:3]) > 1e3
    assert traj.times[-1] < 50.0


def test_integrate_collision_flag():
    # radial fall onto the second primary from close range
    state0 = PhaseState(pos=(1 - 0.1 + 1e-4, 0.0, 0.0), vel=(-0.05, 0.0, 0.0))
    traj = integrate(state0, CONFINING,
                     IntegratorConfig(t_end=1.0, rel_tol=1e-9, abs_tol=1e-9))
    assert traj.status == "collision"


def test_integrate_step_underflow(canonical):
    cfg = IntegratorConfig(t_end=1.0, max_step=1e-20, initial_step=1e-20)
    with pytest.raises(ConvergenceError):
        integrate(equilibrium_state(canonical), canonical, cfg)


def test_jacobi_conservation_random_bounded():
    # 10 random bounded orbits, t in [0, 100], tolerances (1e-12, 1e-12)
    rng = np.random.default_rng(67)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12, t_end=100.0)
    for _ in range(10):
        state0 = PhaseState(pos=rng.uniform(-0.4, 0.4, 3), vel=rng.uniform(-0.2, 0.2, 3))
        traj = integrate(state0, CONFINING, cfg)
        assert traj.status == "completed"
        assert np.max(np.abs(traj.jacobi - traj.jacobi[0])) < 1e-9


def test_jacobi_drift_against_tightened_tolerance():
    # the tightened-tolerance rerun is the oracle: both runs agree at the end,
    # so the 1e-12 run's drift is integrator error, not physics
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    loose = integrate(state0, CONFINING, IntegratorConfig(1e-12, 1e-12, t_end=20.0))
    tight = integrate(state0, CONFINING, IntegratorConfig(1e-14, 1e-14, t_end=20.0))
    npt.assert_allclose(loose.states[-1], tight.states[-1], atol=1e-8)
    assert np.max(np.abs(loose.jacobi - loose.jacobi[0])) < 1e-9
    assert np.max(np.abs(tight.jacobi - tight.jacobi[0])) < 1e-9


def test_integrate_matches_dop853_oracle():
    # an independent integrator (scipy's 8th-order Dormand-Prince) on the same
    # right-hand side, evaluated at this integrator's sample times
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    traj = integrate(state0, CONFINING, IntegratorConfig(t_end=20.0))
    assert traj.status == "completed"
    ref = solve_ivp(lambda t, y: eom_rhs(PhaseState.from_vector(y), CONFINING),
                    (0.0, 20.0), state0.vector(), method="DOP853",
                    t_eval=traj.times, rtol=1e-13, atol=1e-13)
    assert ref.success
    npt.assert_allclose(traj.states, ref.y.T, rtol=0.0, atol=1e-8)


def test_reversibility():
    # backward integration realized through the time-reversal symmetry
    # (x, y, z, vx, vy, vz) -> (x, -y, z, -vx, vy, -vz)
    def reverse(vec):
        return vec * np.array([1, -1, 1, -1, 1, -1])

    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    cfg = IntegratorConfig(t_end=30.0)
    fwd = integrate(state0, CONFINING, cfg)
    back = integrate(PhaseState.from_vector(reverse(fwd.states[-1])), CONFINING, cfg)
    npt.assert_allclose(reverse(back.states[-1]), state0.vector(), atol=1e-7)


def test_trajectory_z_reflection_symmetry():
    # (z, vz) -> (-z, -vz) maps trajectories to trajectories at the same times
    flip = np.array([1, 1, -1, 1, 1, -1])
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    cfg = IntegratorConfig(t_end=10.0)
    a = integrate(state0, CONFINING, cfg)
    b = integrate(PhaseState.from_vector(state0.vector() * flip), CONFINING, cfg)
    npt.assert_array_equal(a.times, b.times)
    npt.assert_allclose(a.states * flip, b.states, atol=1e-12)


def test_growth_rate_matches_positive_root(canonical):
    state0 = unstable_seed(canonical, 1e-8)
    traj = integrate(state0, canonical, IntegratorConfig(t_end=60.0))
    rate = growth_rate(traj, equilibrium_state(canonical).pos)
    assert abs(rate - FROZEN["lambda_plus"]) / FROZEN["lambda_plus"] < 0.05


def test_growth_rate_no_growth_at_equilibrium(canonical):
    traj = integrate(equilibrium_state(canonical), canonical,
                     IntegratorConfig(t_end=20.0))
    with pytest.raises(NoGrowthError, match="no exponential growth detected"):
        growth_rate(traj, equilibrium_state(canonical).pos)


def test_growth_rate_non_growing_direction(canonical):
    # the spectrum here is saddle x saddle-focus: every non-real eigenvalue has
    # a nonzero real part, so no purely imaginary (center) pair exists; the
    # non-growing seeds are the decaying modes. Offsets along them must yield
    # no exponential growth, or at most a tiny fitted slope.
    pts = triangular_points(canonical)
    m = linearization_matrix(hessian_omega(pts.point(+1), canonical), canonical.n_sq)
    eigvals, eigvecs = np.linalg.eig(m)
    assert np.all(np.abs(eigvals.real) > 1e-9)  # no center directions at all
    decaying = np.nonzero(eigvals.real < -1e-9)[0]
    assert decaying.size > 0
    for idx in decaying[:2]:
        v = eigvecs[:, idx].real
        v /= np.linalg.norm(v)
        state0 = PhaseState.from_vector(equilibrium_state(canonical).vector() + 1e-8 * v)
        traj = integrate(state0, canonical, IntegratorConfig(t_end=60.0))
        try:
            rate = growth_rate(traj, equilibrium_state(canonical).pos)
        except NoGrowthError:
            continue
        assert rate < 0.01 * FROZEN["lambda_plus"]


def test_unstable_seed_offset_norm(canonical):
    eq = equilibrium_state(canonical).vector()
    seeded = unstable_seed(canonical, 1e-6).vector()
    # subtraction against O(1) equilibrium coordinates leaves ~1e-10 relative noise
    npt.assert_allclose(np.linalg.norm(seeded - eq), 1e-6, rtol=1e-9)
    for offset in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="offset must be positive and finite"):
            unstable_seed(canonical, offset)


def test_equilibrium_state_requires_existence():
    with pytest.raises(ValueError):
        equilibrium_state(Params(mu=0.1, k=0.01))
