import hashlib
import inspect
import math
import os
import platform
import subprocess
import sys
import textwrap
import traceback
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from robe3bp import (
    ConvergenceError,
    IntegratorConfig,
    NoGrowthError,
    Params,
    PhaseState,
    SingularityError,
    Trajectory,
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
    unstable_direction,
    unstable_seed,
)
from robe3bp import dynamics, model
from robe3bp.model import COLLISION_R2
from conftest import FROZEN, acceptance_grid

# k > n^2/2 makes the energy surface compact, so these orbits stay bounded
CONFINING = Params(mu=0.1, k=0.6, a1_oblate=0.02)
REPELLING = Params(mu=0.1, k=-0.01)  # k < 0 repels from the first primary
ESCAPE_START = PhaseState(pos=(2.0, 0.0, 0.0), vel=(1.0, 0.0, 0.0))
ESCAPE_CFG = IntegratorConfig(t_end=50.0, rel_tol=1e-9, abs_tol=1e-9)


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
    for name in ("rel_tol", "abs_tol", "t_end"):
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=name):
                IntegratorConfig(**{name: value})
    # the first step and how it grows are integrate's own, not settings
    with pytest.raises(TypeError):
        IntegratorConfig(max_step=1.0)
    with pytest.raises(TypeError):
        IntegratorConfig(initial_step=1.0)


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


@settings(max_examples=50, deadline=None)
@given(vec=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 6),
       params=st.sampled_from([CONFINING, REPELLING]))
@example(vec=(1e200, 0.0, 0.0, 0.0, 0.0, 0.0), params=REPELLING)
def test_eom_rhs_is_rhs_on_floats(vec, params):
    # eom_rhs hands _rhs Python floats, so it gives _rhs's bits with no numpy
    # warning: a square that overflows is inf, as in integrate's step
    args = params.mu, params.k, params.n_sq, params.n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            expected = dynamics._rhs(*vec, *args)
        except SingularityError:
            with pytest.raises(SingularityError):
                eom_rhs(PhaseState.from_vector(vec), params)
            return
        deriv = eom_rhs(PhaseState.from_vector(vec), params)
    assert all(type(v) is float for v in expected)
    assert deriv.tobytes() == np.array(expected).tobytes()


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


def test_jacobi_formula_is_one_for_floats_and_arrays():
    # the public calls give plain floats, which cli._fmt formats by type
    state = PhaseState(pos=(0.3, 0.2, 0.1), vel=(0.05, -0.1, 0.02))
    assert type(omega(state.pos, CONFINING)) is float
    assert type(jacobi_constant(state, CONFINING)) is float
    # _jacobi_s on arrays of states, as integrate calls it once per trajectory,
    # gives every row's float value to the bit: rows whose squares overflow to
    # C = -inf or inf - inf = nan, and signed zeros, included
    rng = np.random.default_rng(79)
    rows = [tuple(v) for v in rng.uniform(-0.4, 0.4, (6, 6)).tolist()]
    rows += [(1e200, 0.0, 0.0, 0.0, 0.0, 0.0), (0.1, 0.2, 0.3, 1e159, 0.0, 0.0),
             (1e200, 0.0, 0.0, 1e159, 0.0, 0.0), (-0.0, 0.3, -0.0, -0.0, 0.0, -0.0),
             (1.0 - 0.1 + 1e-7, 0.0, 0.0, 0.0, 0.0, 0.0)]
    for params in (CONFINING, REPELLING):
        args = params.mu, params.k, params.n_sq
        one_by_one = np.array([dynamics._jacobi_s(*row, *args) for row in rows])
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            at_once = dynamics._jacobi_s(*np.array(rows).T, *args)
        assert at_once.tobytes() == one_by_one.tobytes()
        assert np.isnan(at_once).any() and np.isneginf(at_once).any()
        # and a row at r2 = 0, wherever it sits, is the scalar call's error
        for at in (0, 5, len(rows)):
            states = np.array(rows[:at] + [(0.9, 0.0, 0.0, 0.0, 0.0, 0.0)] + rows[at:])
            with pytest.raises(SingularityError, match=r"\(r2 = 0\)"):
                with np.errstate(over="ignore", invalid="ignore"):
                    dynamics._jacobi_s(*states.T, *args)


def test_integrate_jacobi_column_is_jacobi_constant(canonical):
    # bit for bit in every row: near a triangular point, on bounded orbits and
    # up to an escape
    rng = np.random.default_rng(71)
    bounded = [PhaseState(pos=rng.uniform(-0.4, 0.4, 3), vel=rng.uniform(-0.2, 0.2, 3))
               for _ in range(4)]
    runs = [(unstable_seed(canonical, 1e-6), canonical, IntegratorConfig(t_end=5.0), "completed"),
            *((s, CONFINING, IntegratorConfig(t_end=5.0), "completed") for s in bounded),
            (ESCAPE_START, REPELLING, ESCAPE_CFG, "escape")]
    for state0, params, cfg, status in runs:
        traj = integrate(state0, params, cfg)
        assert traj.status == status
        expected = [jacobi_constant(PhaseState.from_vector(s), params) for s in traj.states]
        assert traj.jacobi.tobytes() == np.array(expected).tobytes()


def _jacobi_formula(vec, params, square):
    # _jacobi_s's and _omega_s's formula, with r1^2's (x + mu)^2 taken as square(x + mu)
    x, y, z, vx, vy, vz = vec
    mu = params.mu
    r1_sq = square(x + mu) + y * y + z * z
    dx2 = x + mu - 1.0
    om = (0.5 * params.n_sq * (x * x + y * y) - params.k * r1_sq
          + mu / math.sqrt(dx2 * dx2 + y * y + z * z))
    return 2.0 * om - (vx * vx + vy * vy + vz * vz)


def test_jacobi_squares_are_correctly_rounded():
    # C from the correctly rounded square of x + mu, at a start where this
    # platform's libm pow squares x + mu an ulp off and that moves C
    def exact(d):
        return float(Fraction(d) ** 2)

    xs = np.random.default_rng(73).uniform(-0.4, 0.4, 20000).tolist()
    starts = [(x, 0.1, 0.1, 0.05, -0.1, 0.02) for x in xs]
    vec = next((v for v in starts if _jacobi_formula(v, CONFINING, lambda d: d ** 2)
                != _jacobi_formula(v, CONFINING, exact)), starts[0])
    state0 = PhaseState.from_vector(vec)
    expected = _jacobi_formula(vec, CONFINING, exact)
    assert jacobi_constant(state0, CONFINING) == expected
    # and the accepted steps' C, which integrate forms in line
    traj = integrate(state0, CONFINING, IntegratorConfig(t_end=0.1))
    assert traj.jacobi[0] == expected
    assert traj.jacobi.tolist() == [_jacobi_formula(s, CONFINING, exact)
                                    for s in traj.states.tolist()]


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
    traj = integrate(ESCAPE_START, REPELLING, ESCAPE_CFG)
    assert traj.status == "escape"
    assert np.linalg.norm(traj.states[-1][:3]) > 1e3
    assert traj.times[-1] < 50.0


def test_integrate_start_whose_square_overflows_escapes():
    # (x + mu) squared overflows to inf, so Omega and C read inf
    state0 = PhaseState(pos=(1e200, 0.0, 0.0), vel=(0.0, 0.0, 0.0))
    traj = integrate(state0, Params(mu=0.1, k=-0.01), IntegratorConfig(t_end=1.0))
    assert (traj.steps, traj.status) == (0, "escape")
    assert traj.jacobi[0] == np.inf
    # and a first step that lands there: the start's C is -inf (v^2 overflows),
    # the accepted step's r1^2 overflows as well and its C is inf - inf = nan
    state0 = PhaseState(pos=(0.1, 0.2, 0.3), vel=(1e159, 0.0, 0.0))
    cfg = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3, t_end=1.0)
    traj = _assert_matches_reference(state0, Params(mu=0.1, k=-0.01, a1_oblate=0.02), cfg)
    assert (traj.steps, traj.status) == (1, "escape")
    assert traj.jacobi[0] == -np.inf and np.isnan(traj.jacobi[1])


@pytest.mark.parametrize("pos", [(0.9, 0.0, 0.0), (0.9, 1e-170, 0.0)])
def test_start_on_the_second_primary_raises_like_the_reference(pos):
    # x + mu - 1.0 is exactly 0 (and y^2 underflows to 0), so r2 = 0 and the
    # start's C has no value: an error, never a one-row collision with C = inf
    params = Params(mu=0.1, k=-0.01)
    assert pos[0] + params.mu - 1.0 == 0.0
    state0 = PhaseState(pos=pos, vel=(0.0, 0.0, 0.0))
    for run in (integrate, _dp5_reference):
        with pytest.raises(SingularityError, match=r"\(r2 = 0\)"):
            run(state0, params, IntegratorConfig(t_end=1.0))


def test_integrate_collision_flag():
    # radial fall onto the second primary from close range
    state0 = PhaseState(pos=(1 - 0.1 + 1e-4, 0.0, 0.0), vel=(-0.05, 0.0, 0.0))
    traj = integrate(state0, CONFINING,
                     IntegratorConfig(t_end=1.0, rel_tol=1e-9, abs_tol=1e-9))
    assert traj.status == "collision"
    # a start inside the collision radius takes no step
    state0 = PhaseState(pos=(1 - CONFINING.mu + 1e-7, 0.0, 0.0), vel=(0.0, 0.0, 0.0))
    traj = _assert_matches_reference(state0, CONFINING, IntegratorConfig(t_end=1.0))
    assert (traj.status, traj.steps, len(traj.times)) == ("collision", 0, 1)


def test_integrate_step_underflow(canonical):
    # no step can meet these tolerances, so the step shrinks below 1e-14 at t=0
    cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300)
    with pytest.raises(ConvergenceError, match="step size underflow at t=0 "):
        integrate(equilibrium_state(canonical), canonical, cfg)


# sha256 of times, states and jacobi (tobytes, in that order), steps,
# rejections and status: a change to the step's arithmetic that moves a single
# bit of a trajectory shows here
_PINNED_RUNS = {
    "bounded_a": (
        ((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING, dict(t_end=20.0),
        "111a2b2624b0a50c4ee444b608a20ff19368c077a38f59149e6da75204c47e72", 1447, 0, "completed"),
    "bounded_b": (
        ((-0.3, 0.25, -0.1), (0.1, 0.05, -0.15)), CONFINING, dict(t_end=20.0),
        "d550af85aad34d86d8e51754f0e982b848a0c67ca7a2b5f0264c785f9203dd02", 1575, 0, "completed"),
    "unstable_seed": (
        None, Params(mu=0.1, k=-0.01, a1_oblate=0.02), dict(t_end=60.0),
        "41de42870b252ec69b95f7fd383738b66853917b2ae8e51fcaa05228fcfd2d3f", 67, 4, "completed"),
    "escape": (
        ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Params(mu=0.1, k=-0.01),
        dict(t_end=50.0, rel_tol=1e-9, abs_tol=1e-9),
        "94365459006b56ed7691b9bdf0cabbfb895e30d75724084c84ba8152a8eb300e", 632, 25, "escape"),
    "collision": (
        ((1 - 0.1 + 1e-4, 0.0, 0.0), (-0.05, 0.0, 0.0)), CONFINING,
        dict(t_end=1.0, rel_tol=1e-9, abs_tol=1e-9),
        "a01ebdeb726ec1eea8a251f7c182d97e4d74ee77bdde0d6ae8768f8f50644f30", 94, 9, "collision"),
    "loose_tolerance": (
        ((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING,
        dict(rel_tol=1e-3, abs_tol=1e-3, t_end=20.0),
        "dd0cdff05e5eb0b5129a1c5539cd6e4751c1b6f38cbd96870b50f4eca1125762", 30, 0, "completed"),
    # the signed zeros flip to +0.0 on the first step, as the stage sums start from 0
    "planar_negative_zero": (
        ((0.3, -0.2, -0.0), (0.1, 0.05, -0.0)), CONFINING, dict(t_end=10.0),
        "d4df2bb80b6d0e3ec90e0ba90dae91f14dc73b0aee91ad85265b0da9230baa11", 828, 0, "completed"),
}


def _pinned_run(name):
    """The trajectory of a `_PINNED_RUNS` entry and its digest."""
    start, params, cfg = _PINNED_RUNS[name][:3]
    state0 = unstable_seed(params, 1e-8) if start is None else PhaseState(*start)
    traj = integrate(state0, params, IntegratorConfig(**cfg))
    data = traj.times.tobytes() + traj.states.tobytes() + traj.jacobi.tobytes()
    return traj, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_integrate_bits_pinned(name):
    digest, steps, rejections, status = _PINNED_RUNS[name][3:]
    traj, got = _pinned_run(name)
    assert (traj.steps, traj.rejections, traj.status) == (steps, rejections, status)
    assert got == digest


def _kernel_selectable_openblas():
    """Whether numpy's BLAS is an x86-64 OpenBLAS that OPENBLAS_CORETYPE can switch."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 returns no dicts
        return False
    return (platform.machine().lower() in ("x86_64", "amd64")
            and "openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@pytest.mark.skipif(not _kernel_selectable_openblas(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@pytest.mark.parametrize("name", [
    "bounded_a",  # integrate calls no BLAS, so a literal start has the same bits
    "unstable_seed",  # and the seed comes from the cubic solver and Python scalars
])
def test_pinned_run_bits_under_another_blas_kernel(name):
    # the oldest x86-64 kernel; the pinned digests hold the in-process bits
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(
        [os.path.dirname(__file__), os.path.dirname(os.path.dirname(dynamics.__file__))])}
    code = f"import test_dynamics; print(test_dynamics._pinned_run({name!r})[1])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == _PINNED_RUNS[name][3]


# ---------------------------------------------------------------------------
# the written-out step against a slow Dormand-Prince 5(4) reference

def _dp5_reference(state0, params, cfg):
    """integrate's method with loops over ``_STAGES`` and ``_ERR``, ``_rhs`` as
    the slope and ``_jacobi_s`` as C: the same sums in the same order, so the
    same bits."""
    mu, k, n_sq, n = params.mu, params.k, params.n_sq, params.n

    def stop(s):
        x, y, z = s[:3]
        dx2 = x + mu - 1.0
        if dx2 * dx2 + y * y + z * z < COLLISION_R2 * COLLISION_R2:
            return "collision"
        if x * x + y * y + z * z > dynamics.ESCAPE_RADIUS * dynamics.ESCAPE_RADIUS:
            return "escape"
        return None

    t, s = 0.0, tuple(state0.vector().tolist())
    times, states, jacobi = [t], [s], [dynamics._jacobi_s(*s, mu, k, n_sq)]
    status, steps, rejections = stop(s), 0, 0
    h, first = min(dynamics._INITIAL_STEP, cfg.t_end), dynamics._rhs(*s, mu, k, n_sq, n)
    while status is None and t < cfg.t_end:
        if h > cfg.t_end - t:
            h = cfg.t_end - t
        if h < 1e-14 * max(1.0, abs(t)) and h < cfg.t_end - t:
            raise ConvergenceError("step size underflow")
        slopes = [first]
        for row in dynamics._STAGES:
            point = []
            for i in range(6):
                acc = 0.0
                for a, slope in zip(row, slopes):
                    acc += a * slope[i]
                point.append(s[i] + h * acc)
            slopes.append(dynamics._rhs(*point, mu, k, n_sq, n))
        err_sq = 0.0
        for i in range(6):
            acc = dynamics._ERR[0] * slopes[0][i]
            for e, slope in zip(dynamics._ERR[1:], slopes[1:]):
                acc += e * slope[i]
            scaled = h * acc / (cfg.abs_tol + cfg.rel_tol * max(abs(s[i]), abs(point[i])))
            err_sq += scaled * scaled
        err = math.sqrt(err_sq / 6.0)
        if err <= 1.0:
            t, s, first, steps = t + h, tuple(point), slopes[-1], steps + 1
            times.append(t)
            states.append(s)
            jacobi.append(dynamics._jacobi_s(*s, mu, k, n_sq))
            status = stop(s)
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
        else:
            rejections += 1
            h *= 0.2 if math.isnan(err) else max(0.2, 0.9 * err ** -0.2)
    return Trajectory(np.array(times), np.array(states), np.array(jacobi), steps, rejections,
                      status or "completed")


def _assert_matches_reference(state0, params, cfg):
    """integrate gives the reference's bits, or raises where the reference does."""
    try:
        ref = _dp5_reference(state0, params, cfg)
    except (ConvergenceError, SingularityError) as exc:
        with pytest.raises(type(exc)):
            integrate(state0, params, cfg)
        return None
    traj = integrate(state0, params, cfg)
    assert (traj.steps, traj.rejections, traj.status) == (ref.steps, ref.rejections, ref.status)
    for name in ("times", "states", "jacobi"):
        got, want = getattr(traj, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    return traj


@pytest.mark.parametrize("name", sorted(_PINNED_RUNS))
def test_integrate_matches_dp5_reference_on_pinned_runs(name):
    # these include rejected steps, an escape and a collision
    start, params, cfg = _PINNED_RUNS[name][:3]
    state0 = unstable_seed(params, 1e-8) if start is None else PhaseState(*start)
    assert _assert_matches_reference(state0, params, IntegratorConfig(**cfg)) is not None


_box = st.tuples(*[st.floats(-0.4, 0.4)] * 3, *[st.floats(-0.2, 0.2)] * 3)
_zeros = st.sampled_from([0.0, -0.0])


@settings(max_examples=20, deadline=None)
@given(vec=_box, tol=st.sampled_from([1e-12, 1e-9, 1e-6]), t_end=st.floats(0.1, 2.0))
def test_integrate_matches_dp5_reference_in_bounded_box(vec, tol, t_end):
    state0 = PhaseState.from_vector(vec)
    traj = _assert_matches_reference(state0, CONFINING, IntegratorConfig(tol, tol, t_end))
    assert traj.status == "completed"


@settings(max_examples=20, deadline=None)
@given(vec=st.tuples(*[st.one_of(_zeros, st.floats(-0.4, 0.4))] * 3,
                     *[st.one_of(_zeros, st.floats(-0.2, 0.2))] * 3),
       params=st.sampled_from([CONFINING, REPELLING]))
@example(vec=(0.3, -0.2, -0.0, 0.1, 0.05, -0.0), params=CONFINING)
def test_integrate_matches_dp5_reference_from_signed_zeros(vec, params):
    _assert_matches_reference(PhaseState.from_vector(vec), params, IntegratorConfig(t_end=1.0))


@settings(max_examples=20, deadline=None)
@given(vec=_box, tol=st.floats(1e-4, 1e-1))
@example(vec=(0.2, 0.1, 0.3, 0.05, -0.1, 0.02), tol=1e-2)
def test_integrate_matches_dp5_reference_at_loose_tolerances(vec, tol):
    _assert_matches_reference(PhaseState.from_vector(vec), CONFINING,
                              IntegratorConfig(tol, tol, t_end=10.0))


@settings(max_examples=5, deadline=None)
@given(x=st.floats(1.5, 3.0), vx=st.floats(0.8, 1.5), vy=st.floats(-0.1, 0.1))
def test_integrate_matches_dp5_reference_to_an_escape(x, vx, vy):
    state0 = PhaseState(pos=(x, 0.0, 0.0), vel=(vx, vy, 0.0))
    assert _assert_matches_reference(state0, REPELLING, ESCAPE_CFG).status == "escape"


@pytest.mark.parametrize("margin, nan_tries, rejections", [(1e-8, 5, 5), (1e-7, 4, 10)])
def test_integrate_matches_dp5_reference_after_nan_error_estimates(margin, nan_tries, rejections):
    # 2n vy sits a relative margin below max_float / |a52|, so the first tries'
    # stage-2 slope 2n vy2 passes it, a52 * ax2 overflows in the stage-5 sum,
    # a later slope is 0 * inf = nan and err is NaN: each such try is rejected
    # with the factor 0.2, until a smaller h keeps every stage sum finite
    params = Params(mu=0.1, k=-0.01)
    a52 = dynamics._STAGES[3][1]
    vy = sys.float_info.max / (-a52 * 2.0 * params.n) * (1.0 - margin)
    state0 = PhaseState(pos=(0.1, 0.2, 0.3), vel=(-vy, vy, 0.0))
    traj = _assert_matches_reference(state0, params, IntegratorConfig(t_end=1.0))
    assert (traj.steps, traj.rejections, traj.status) == (1, rejections, "escape")
    # a finite rejected err shrinks h by less than 1, so the accepted step is at
    # most 1e-4 shrunk by 0.2 per NaN try, and equal to it when every try was NaN
    h = dynamics._INITIAL_STEP
    for _ in range(nan_tries):
        h *= 0.2
    assert traj.times[1] == h if nan_tries == rejections else traj.times[1] < h


@pytest.mark.parametrize("k, tol, outcome", [
    (1e12, 1e-12, (1, 8)), (-1e16, 1e-6, (1, 8)), (1e20, 1e-2, (1, 10)),
    (-1e20, 1e-12, (1, 13)), (1e24, 1e-12, ConvergenceError)])
def test_integrate_matches_dp5_reference_after_non_finite_stage_2_slopes(k, tol, outcome):
    # x + mu = 0 keeps 2k (x + mu) finite at the start, and a velocity of
    # 4 max_float / (2 |k| a21 h) carries the first try's stage-2 point to
    # where it overflows: k1 is finite, and k2 is not.  integrate skips the
    # terms b2 k2 and e2 k2 of weight 0, the reference keeps them.  Each try
    # with a non-finite k2 is rejected; a smaller h escapes on its first
    # accepted step, unless no h above 1e-14 meets the tolerance.
    params = Params(mu=0.1, k=k)
    h, a21 = dynamics._INITIAL_STEP, dynamics._STAGES[0][0]
    s = (-params.mu, 0.0, 0.0, sys.float_info.max / (2.0 * abs(k) * a21 * h) * 4.0, 0.0, 0.0)
    args = params.mu, params.k, params.n_sq, params.n
    k1 = dynamics._rhs(*s, *args)
    k2 = dynamics._rhs(*(si + h * (0.0 + a21 * ki) for si, ki in zip(s, k1)), *args)
    assert all(map(math.isfinite, k1)) and not all(map(math.isfinite, k2))
    state0, cfg = PhaseState.from_vector(s), IntegratorConfig(tol, tol, t_end=1.0)
    traj = _assert_matches_reference(state0, params, cfg)
    if outcome is ConvergenceError:
        with pytest.raises(ConvergenceError):
            integrate(state0, params, cfg)
    else:
        assert (traj.steps, traj.rejections, traj.status) == (*outcome, "escape")
        # v^2 overflows: C is -inf at the start and inf - inf after the step
        assert traj.jacobi[0] == -np.inf and np.isnan(traj.jacobi[1])


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(0.05, 0.95), vx=st.floats(0.1, 2.0), y=_zeros, z=_zeros, vy=_zeros,
       vz=_zeros)
@example(mu=0.3, vx=1.0, y=0.0, z=0.0, vy=5e-111, vz=0.0)
def test_stage_on_the_second_primary_raises_like_the_reference(mu, vx, y, z, vy, vz):
    # the first step's stage-2 point x + h (0.0 + a21 vx) lands exactly on the
    # second primary's x, where r2^3 is 0: both raise.  With vy = 5e-111 its y
    # is 1e-115, so r2^2 = 1e-230 is positive but r2^3 underflows to 0.
    h, a21 = dynamics._INITIAL_STEP, dynamics._STAGES[0][0]
    x = 1.0 - mu - h * (0.0 + a21 * vx)
    for _ in range(8):  # a few ulps of x away at most
        if x + h * (0.0 + a21 * vx) + mu - 1.0 == 0.0:
            break
        x = math.nextafter(x, math.inf)
    assert x + h * (0.0 + a21 * vx) + mu - 1.0 == 0.0
    state0 = PhaseState(pos=(x, y, z), vel=(vx, vy, vz))
    params = Params(mu=mu, k=-0.01)
    with pytest.raises(SingularityError):
        _dp5_reference(state0, params, IntegratorConfig(t_end=1.0))
    with pytest.raises(SingularityError):
        integrate(state0, params, IntegratorConfig(t_end=1.0))


def test_generated_code_shows_in_source_and_tracebacks(canonical):
    # integrate's step and _grad_s are spliced from model._SLOPE at import,
    # under filenames kept in linecache
    source = inspect.getsource(integrate)
    assert "            ax7 = n_sq * x7 - k2 * dx1 - c3 * dx2 + n2 * vy7\n" in source
    stage_2 = dynamics.__doc__.split("Stage 2 reads\n\n")[1].split("\n\n")[0]
    assert textwrap.indent(textwrap.dedent(stage_2), " " * 12) + "\n" in source
    assert "        ax = n_sq * x - k2 * dx1 - c3 * dx2\n" in inspect.getsource(model._grad_s)
    # a raise in integrate's own lines: the step-size underflow at A1 = 1e30
    params = Params(mu=0.1, k=-0.01, a1_oblate=1e30)
    with pytest.raises(ConvergenceError) as info:
        integrate(unstable_seed(params, 1e-8), params, IntegratorConfig(t_end=5.0))
    shown = "".join(traceback.format_exception(info.type, info.value, info.tb))
    assert '"<robe3bp robe3bp.dynamics.integrate>"' in shown
    assert "\n    raise ConvergenceError(\n" in shown
    # a generated line that divides by r2^3 = 0: a stage-2 point on the second
    # primary, and _grad_s there; the ZeroDivisionError is the context
    mu, vx, h, a21 = 0.3, 1.0, dynamics._INITIAL_STEP, dynamics._STAGES[0][0]
    x = 1.0 - mu - h * (0.0 + a21 * vx)
    for _ in range(8):  # a few ulps of x away at most
        if x + h * (0.0 + a21 * vx) + mu - 1.0 == 0.0:
            break
        x = math.nextafter(x, math.inf)
    with pytest.raises(SingularityError) as in_step:
        integrate(PhaseState(pos=(x, 0.0, 0.0), vel=(vx, 0.0, 0.0)), Params(mu=mu, k=-0.01),
                  IntegratorConfig(t_end=1.0))
    with pytest.raises(SingularityError) as in_grad:
        grad_omega((1.0 - canonical.mu, 1e-110, 0.0), canonical)
    for info, name in ((in_step, "dynamics.integrate"), (in_grad, "model._grad_s")):
        frame = traceback.extract_tb(info.value.__context__.__traceback__)[-1]
        assert frame.filename == f"<robe3bp robe3bp.{name}>"
        assert frame.line == "c3 = mu / (r2_sq * sqrt(r2_sq))"


def test_splice_without_source_names_the_missing_file(monkeypatch):
    # a .pyc-only install: linecache finds no lines for the def to splice
    monkeypatch.setattr(model.linecache, "getlines", lambda *args: [])
    with pytest.raises(ImportError, match=r"model needs its \.py source to build _grad_s"):
        model._splice(model._grad_s, "_SLOPE", model._SLOPE)


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


@pytest.fixture(scope="module")
def offset_runs():
    """(trajectory, equilibrium position) of a 1e-8 offset run on each admissible
    cell of the acceptance grid, to the canonical cell's lambda+ t_end = 60,
    just past the fit window."""
    exponent = 60.0 * FROZEN["lambda_plus"]
    runs = []
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        if triangular_points(params).exists:
            cfg = IntegratorConfig(t_end=exponent / unstable_direction(params)[0])
            runs.append((integrate(unstable_seed(params, 1e-8), params, cfg),
                         equilibrium_state(params).pos))
    return runs


def _polyfit_window(traj, eq_point):
    """The fit window as a boolean mask, by numpy's array steps."""
    disp = np.linalg.norm(traj.states - np.concatenate([eq_point, np.zeros(3)]), axis=1)
    return disp, (disp >= dynamics.GROWTH_FIT_LOWER_FACTOR * disp[0]) & (
        disp <= dynamics.GROWTH_FIT_UPPER_BOUND)


def test_growth_rate_agrees_with_polyfit(offset_runs):
    worst = 0.0
    for traj, eq in offset_runs:
        disp, window = _polyfit_window(traj, eq)
        oracle = np.polyfit(traj.times[window], np.log(disp[window]), 1)[0]
        worst = max(worst, abs(growth_rate(traj, eq) - oracle) / oracle)
    assert worst < 1e-13


def test_growth_window_holds_the_masked_samples(offset_runs):
    for traj, eq in offset_runs:
        disp, window = _polyfit_window(traj, eq)
        assert dynamics._growth_window(traj, eq) == (traj.times[window].tolist(),
                                                     disp[window].tolist())


def _displacement_run(times, disps):
    """A Trajectory whose displacement from the origin is ``disps`` along x."""
    times = np.asarray(times, dtype=float)
    states = np.zeros((len(times), 6))
    states[:, 0] = disps
    return Trajectory(times=times, states=states, jacobi=np.zeros(len(times)),
                      steps=len(times) - 1, rejections=0, status="completed")


@pytest.mark.parametrize("rate, d0", [(0.2, 1e-8), (3.0, 1e-12), (1e-3, 1e-5)])
def test_growth_rate_of_an_exact_exponential(rate, d0):
    t_end = math.log(2e-3 / d0) / rate  # past the window's upper edge
    times = np.linspace(0.0, t_end, 300)
    traj = _displacement_run(times, d0 * np.exp(rate * times))
    assert abs(growth_rate(traj, (0.0, 0.0, 0.0)) - rate) <= 1e-12 * rate


def test_growth_rate_of_a_two_sample_window():
    # samples exactly at the window's edges are in it
    d0, upper = 1e-8, dynamics.GROWTH_FIT_UPPER_BOUND
    lower = dynamics.GROWTH_FIT_LOWER_FACTOR * d0
    traj = _displacement_run([0.0, 1.0, 2.5, 3.0], [d0, lower, upper, 2.0 * upper])
    slope = (math.log(upper) - math.log(lower)) / 1.5
    assert growth_rate(traj, (0.0, 0.0, 0.0)) == pytest.approx(slope, rel=1e-15)


@pytest.mark.parametrize("disps", [
    [1e-8, 5e-8, 3e-7, 2e-3],  # one sample in the window
    [1e-8, 5e-8, 2e-3, 3e-3],  # none
    [0.0, 1e-6, 1e-5, 1e-4],  # zero initial displacement
])
def test_growth_rate_needs_two_samples_and_a_displacement(disps):
    traj = _displacement_run([0.0, 1.0, 2.0, 3.0], disps)
    with pytest.raises(NoGrowthError, match="no exponential growth detected"):
        growth_rate(traj, (0.0, 0.0, 0.0))


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
