import ast
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
from itertools import accumulate

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
    # and a first step that escapes: the start's C is -inf (v^2 overflows), and
    # (f0 / sk)^2 overflows, so the first step is the start rule's 1e-6.  From
    # v = 1e159 it ends at x = 1e153, whose square is finite, and C stays -inf;
    # from v = 1e161 the step's r1^2 overflows as well and its C is inf - inf = nan
    params = Params(mu=0.1, k=-0.01, a1_oblate=0.02)
    cfg = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-3, t_end=1.0)
    for vx, after in ((1e159, -np.inf), (1e161, np.nan)):
        state0 = PhaseState(pos=(0.1, 0.2, 0.3), vel=(vx, 0.0, 0.0))
        assert _first_try(state0, params, cfg) == 1e-6
        traj = _assert_matches_reference(state0, params, cfg)
        assert (traj.steps, traj.status) == (1, "escape")
        assert traj.jacobi[0] == -np.inf
        npt.assert_array_equal(traj.jacobi[1], after)


@pytest.mark.parametrize("pos", [(0.9, 0.0, 0.0), (0.9, 1e-170, 0.0)])
def test_start_on_the_second_primary_raises_like_the_reference(pos):
    # x + mu - 1.0 is exactly 0 (and y^2 underflows to 0), so r2 = 0 and the
    # start's C has no value: an error, never a one-row collision with C = inf
    params = Params(mu=0.1, k=-0.01)
    assert pos[0] + params.mu - 1.0 == 0.0
    state0 = PhaseState(pos=pos, vel=(0.0, 0.0, 0.0))
    for run in (integrate, _dop853_reference):
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


def test_step_size_underflow_before_the_first_try_names_the_starting_step():
    # at tolerances of 1e-150 the start rule's step from this start is 1.06e-19,
    # already below the floor 1e-14: no step is tried, so no error estimate is
    # formed, and the message names the starting step
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    cfg = IntegratorConfig(1e-150, 1e-150, t_end=20.0)
    assert _first_try(state0, CONFINING, cfg) < 1e-14
    tries = []
    with pytest.raises(ConvergenceError):
        _dop853_reference(state0, CONFINING, cfg, tries)
    assert tries == []
    with pytest.raises(ConvergenceError, match=r"^step size underflow at t=0 \(h=1\.061e-19\); "
                       r"no step was tried: the starting step is already below the smallest"):
        integrate(state0, CONFINING, cfg)


# sha256 of times, states and jacobi (tobytes, in that order), steps,
# rejections and status: a change to the step's arithmetic that moves a single
# bit of a trajectory shows here
_PINNED_RUNS = {
    "bounded_a": (
        ((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING, dict(t_end=20.0),
        "4d6d00e13bc5ab9fe1fb0b7e89ceb6fcfce3dad3cff8cef38751c24df4423817", 155, 0, "completed"),
    "bounded_b": (
        ((-0.3, 0.25, -0.1), (0.1, 0.05, -0.15)), CONFINING, dict(t_end=20.0),
        "202d9fb58e8233c687eb12418bdbb8878d047032e5fcf897168132e816a988f4", 165, 0, "completed"),
    "unstable_seed": (
        None, Params(mu=0.1, k=-0.01, a1_oblate=0.02), dict(t_end=60.0),
        "e2da3ba3bb0039ac3b2df1c6f889835ee541a89eff506233696598d226ed9ec3", 16, 3, "completed"),
    "escape": (
        ((2.0, 0.0, 0.0), (1.0, 0.0, 0.0)), Params(mu=0.1, k=-0.01),
        dict(t_end=50.0, rel_tol=1e-9, abs_tol=1e-9),
        "2386ffefb990cd1979c4713ca1c48d7daaf681be5d60728099f411032509296d", 89, 0, "escape"),
    "collision": (
        ((1 - 0.1 + 1e-4, 0.0, 0.0), (-0.05, 0.0, 0.0)), CONFINING,
        dict(t_end=1.0, rel_tol=1e-9, abs_tol=1e-9),
        "59e19bec7a21e8d784efd33f7d378b9d0e458718cb4856a7c65288883435c261", 34, 2, "collision"),
    "loose_tolerance": (
        ((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING,
        dict(rel_tol=1e-3, abs_tol=1e-3, t_end=20.0),
        "4c26f6042cbfc18e8fbea476b364385a686d7d9e8c32720f72fc56e414db533b", 14, 1, "completed"),
    # the signed zeros flip to +0.0 on the first step: the slope mk2 z - c3 z is
    # +0.0 - -0.0 = +0.0 at z = -0.0, and a sum of -0.0 and +0.0 is +0.0
    "planar_negative_zero": (
        ((0.3, -0.2, -0.0), (0.1, 0.05, -0.0)), CONFINING, dict(t_end=10.0),
        "27b6279420945b52611e534f02889f62ef571bb33065c387ac358dec12a4ad77", 108, 4, "completed"),
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
# the written-out step against a slow DOP853 reference

def _weighed_sum(weights, values, acc=None):
    """sum w * v over the nonzero weights, from the first term (or ``acc``) on, as
    dop853.f writes its sums: no 0.0 start, which would turn a sum of -0.0 into
    +0.0, and so no builtin ``sum``, which starts from int 0."""
    for w, v in zip(weights, values):
        if w:
            acc = w * v if acc is None else acc + w * v
    return acc


def _reference_attempt(s, first, h, params, cfg):
    """One attempted DOP853 step from ``s`` with first slope ``first``, by loops over
    ``_STAGES``, ``_E5`` and ``_BHH`` with ``_rhs`` as the slope: the slopes k1..k13,
    the new point and the error norms e5^2 and e3^2.  e3 is the solution's slope
    sum b less the bhh terms, as dop853.f forms it."""
    mu, k, n_sq, n = params.mu, params.k, params.n_sq, params.n
    slopes = [first]
    for row in dynamics._STAGES:
        sums = [_weighed_sum(row, [slope[i] for slope in slopes]) for i in range(6)]
        point = [s[i] + h * sums[i] for i in range(6)]
        slopes.append(dynamics._rhs(*point, mu, k, n_sq, n))
    minus_bhh = [-w for w in dynamics._BHH]
    e5sq = e3sq = 0.0
    for i in range(6):
        column = [slope[i] for slope in slopes]
        sc = cfg.abs_tol + cfg.rel_tol * max(abs(s[i]), abs(point[i]))
        # sums holds the last row's, b's, sums: e3 starts from the solution's slope sum
        e5, e3 = _weighed_sum(dynamics._E5, column), _weighed_sum(minus_bhh, column, sums[i])
        e5sq += (e5 / sc) * (e5 / sc)
        e3sq += (e3 / sc) * (e3 / sc)
    return slopes, tuple(point), e5sq, e3sq


def _reference_err(h, e5sq, e3sq):
    """Hairer's err = h e5^2 / sqrt(6 (e5^2 + 0.01 e3^2)): 0 where that root is 0,
    and inf, a rejection, where it is inf or NaN."""
    den = 6.0 * (e5sq + 0.01 * e3sq)
    if den == 0.0:
        return 0.0
    return h * e5sq / math.sqrt(den) if math.isfinite(den) else math.inf


def _reference_first_step(s, first, params, cfg):
    """DOP853's starting step (HINIT, order 8) from ``s`` with slope ``first``, by
    loops over the components with ``_rhs`` as the probe's slope; HINIT's 1e-6,
    capped at t_end, where a norm or der12 is not finite or the probe raises."""
    fallback = min(1e-6, cfg.t_end)
    sk = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in s]
    dnf = dny = 0.0
    for i in range(6):
        dnf += (first[i] / sk[i]) * (first[i] / sk[i])
        dny += (s[i] / sk[i]) * (s[i] / sk[i])
    if not (math.isfinite(dnf) and math.isfinite(dny)):
        return fallback
    if dnf <= 1e-10 or dny <= 1e-10:
        h = 1e-6
    else:
        h = 0.01 * math.sqrt(dny / dnf)
    h = min(h, cfg.t_end)
    probe = [s[i] + h * first[i] for i in range(6)]
    try:
        slope = dynamics._rhs(*probe, params.mu, params.k, params.n_sq, params.n)
    except SingularityError:
        return fallback
    sq = 0.0
    for i in range(6):
        sq += ((slope[i] - first[i]) / sk[i]) * ((slope[i] - first[i]) / sk[i])
    der12 = max(math.sqrt(sq) / h, math.sqrt(dnf))
    if not math.isfinite(der12):
        return fallback
    if der12 <= 1e-15:
        h1 = max(1e-6, 1e-3 * h)
    else:
        h1 = math.sqrt(math.sqrt(math.sqrt(0.01 / der12)))
    return min(100.0 * h, h1, cfg.t_end)


def _dop853_reference(state0, params, cfg, tries=None):
    """integrate's method with ``_reference_first_step`` as the start,
    ``_reference_attempt`` as the step and ``_jacobi_s`` as C: the same sums in the
    same order, so the same bits.  Each try is logged to ``tries``, if given, as
    (h, err, whether h was cut to t_end - t).  An accepted step after an earlier
    accepted one takes the smaller of two factors: 0.9 err^(-1/8) and
    Gustafsson's prediction 0.9 err^(-1/8) (h / h_acc) (err_acc / err)^(1/8)
    from the last accepted step h_acc and its err_acc = max(err, 0.01), each
    kept within [0.333, 6]."""
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
    status, steps, rejections, rejected = stop(s), 0, 0, False
    last_accepted = None  # (h_acc, err_acc)
    if status is None:
        first = dynamics._rhs(*s, mu, k, n_sq, n)
        h = _reference_first_step(s, first, params, cfg)
    while status is None and t < cfg.t_end:
        cut = h > cfg.t_end - t
        if cut:
            h = cfg.t_end - t
        if h < 1e-14 * max(1.0, abs(t)) and h < cfg.t_end - t:
            raise ConvergenceError("step size underflow")
        slopes, point, e5sq, e3sq = _reference_attempt(s, first, h, params, cfg)
        err = _reference_err(h, e5sq, e3sq)
        if tries is not None:
            tries.append((h, err, cut))
        if err == 0.0:
            factor = 6.0
        else:
            base = 0.9 / math.sqrt(math.sqrt(math.sqrt(err)))
            factor = min(6.0, max(0.333, base))
        if err <= 1.0:
            t, s, first, steps = t + h, point, slopes[-1], steps + 1
            times.append(t)
            states.append(s)
            jacobi.append(dynamics._jacobi_s(*s, mu, k, n_sq))
            status = stop(s)
            if last_accepted is not None and err != 0.0:
                h_acc, err_acc = last_accepted
                predicted = base * (h / h_acc) * math.sqrt(math.sqrt(math.sqrt(err_acc / err)))
                factor = min(factor, min(6.0, max(0.333, predicted)))
            last_accepted = h, max(err, 0.01)
            if rejected:  # the step after a rejection does not grow
                factor = min(factor, 1.0)
            rejected = False
        else:
            rejections += 1
            rejected = True
        h *= factor
    return Trajectory(np.array(times), np.array(states), np.array(jacobi), steps, rejections,
                      status or "completed")


def _first_try(state0, params, cfg):
    """The first step integrate tries from ``state0``, by the reference's rule."""
    s = tuple(state0.vector().tolist())
    first = dynamics._rhs(*s, params.mu, params.k, params.n_sq, params.n)
    return _reference_first_step(s, first, params, cfg)


def _first_try_norms(state0, params, cfg):
    """e5^2 and e3^2 of integrate's first try from ``state0``, by the reference."""
    s = tuple(state0.vector().tolist())
    first = dynamics._rhs(*s, params.mu, params.k, params.n_sq, params.n)
    return _reference_attempt(s, first, _reference_first_step(s, first, params, cfg),
                              params, cfg)[2:]


def _assert_matches_reference(state0, params, cfg, tries=None):
    """integrate gives the reference's bits, or raises where the reference does."""
    try:
        ref = _dop853_reference(state0, params, cfg, tries)
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
def test_integrate_matches_dop853_reference_on_pinned_runs(name):
    # these include rejected steps, an escape and a collision
    start, params, cfg = _PINNED_RUNS[name][:3]
    state0 = unstable_seed(params, 1e-8) if start is None else PhaseState(*start)
    assert _assert_matches_reference(state0, params, IntegratorConfig(**cfg)) is not None


_box = st.tuples(*[st.floats(-0.4, 0.4)] * 3, *[st.floats(-0.2, 0.2)] * 3)
_zeros = st.sampled_from([0.0, -0.0])


@settings(max_examples=20, deadline=None)
@given(vec=_box, tol=st.sampled_from([1e-12, 1e-9, 1e-6]), t_end=st.floats(0.1, 2.0))
def test_integrate_matches_dop853_reference_in_bounded_box(vec, tol, t_end):
    state0 = PhaseState.from_vector(vec)
    traj = _assert_matches_reference(state0, CONFINING, IntegratorConfig(tol, tol, t_end))
    assert traj.status == "completed"


@settings(max_examples=20, deadline=None)
@given(vec=st.tuples(*[st.one_of(_zeros, st.floats(-0.4, 0.4))] * 3,
                     *[st.one_of(_zeros, st.floats(-0.2, 0.2))] * 3),
       params=st.sampled_from([CONFINING, REPELLING]))
@example(vec=(0.3, -0.2, -0.0, 0.1, 0.05, -0.0), params=CONFINING)
def test_integrate_matches_dop853_reference_from_signed_zeros(vec, params):
    _assert_matches_reference(PhaseState.from_vector(vec), params, IntegratorConfig(t_end=1.0))


@settings(max_examples=20, deadline=None)
@given(vec=_box, tol=st.floats(1e-4, 1e-1))
@example(vec=(0.2, 0.1, 0.3, 0.05, -0.1, 0.02), tol=1e-2)
def test_integrate_matches_dop853_reference_at_loose_tolerances(vec, tol):
    _assert_matches_reference(PhaseState.from_vector(vec), CONFINING,
                              IntegratorConfig(tol, tol, t_end=10.0))


@settings(max_examples=5, deadline=None)
@given(x=st.floats(1.5, 3.0), vx=st.floats(0.8, 1.5), vy=st.floats(-0.1, 0.1))
def test_integrate_matches_dop853_reference_to_an_escape(x, vx, vy):
    state0 = PhaseState(pos=(x, 0.0, 0.0), vel=(vx, vy, 0.0))
    assert _assert_matches_reference(state0, REPELLING, ESCAPE_CFG).status == "escape"


@pytest.mark.parametrize("margin, nan_tries, rejections", [(1e-9, 6, 6), (1e-7, 2, 13)])
def test_integrate_matches_dop853_reference_after_nan_error_estimates(margin, nan_tries,
                                                                      rejections):
    # 2n vy sits a relative margin below max_float / P, P = 44.1 the largest
    # partial sum of stage 9's weights, so on the first tries the slopes 2n vy_j
    # of the earlier stages pass it, stage 9's sum overflows, stage 10's slope is
    # NaN and so is the error estimate: each such try is rejected with the
    # factor 0.333, until a smaller h keeps every stage sum finite
    params = Params(mu=0.1, k=-0.01)
    peak = max(map(abs, accumulate(dynamics._STAGES[7])))
    vy = sys.float_info.max / (peak * 2.0 * params.n) * (1.0 - margin)
    state0 = PhaseState(pos=(0.1, 0.2, 0.3), vel=(-vy, vy, 0.0))
    cfg = IntegratorConfig(t_end=1.0)
    e5sq, e3sq = _first_try_norms(state0, params, cfg)
    assert math.isnan(e5sq) and math.isnan(e3sq)
    traj = _assert_matches_reference(state0, params, cfg)
    assert (traj.steps, traj.rejections, traj.status) == (1, rejections, "escape")
    # a finite rejected err shrinks h by less than 1, so the accepted step is at
    # most the first try shrunk by 0.333 per NaN try, and equal to it when every
    # try was NaN.  (f0 / sk)^2 overflows here, so the first try is the start
    # rule's 1e-6
    h = _first_try(state0, params, cfg)
    assert h == 1e-6
    for _ in range(nan_tries):
        h *= 0.333
    assert traj.times[1] == h if nan_tries == rejections else traj.times[1] < h


@pytest.mark.parametrize("k, tol, outcome", [
    (1e12, 1e-12, (1, 7)), (-1e16, 1e-6, (1, 7)), (1e20, 1e-2, (1, 9)),
    (-1e20, 1e-12, (1, 12)), (1e24, 1e-12, (1, 16)), (1e26, 1e-12, ConvergenceError)])
def test_integrate_matches_dop853_reference_after_non_finite_stage_2_slopes(k, tol, outcome):
    # x + mu = 0 keeps 2k (x + mu) finite at the start, and a velocity of
    # 4 max_float / (2 |k| a21 h) carries the first try's stage-2 point to
    # where it overflows: k1 is finite, and k2 is not.  k2 is weighed only into
    # stage 3, whose non-finite slope makes the later stages and the error
    # estimate non-finite, so each try with a non-finite k2 is rejected.  A
    # smaller h escapes on its first accepted step, unless no h above 1e-14
    # meets the tolerance.  (f0 / sk)^2 overflows at such a velocity, so the
    # first try h is the start rule's 1e-6.
    params = Params(mu=0.1, k=k)
    h, a21 = 1e-6, dynamics._STAGES[0][0]
    s = (-params.mu, 0.0, 0.0, sys.float_info.max / (2.0 * abs(k) * a21 * h) * 4.0, 0.0, 0.0)
    state0, cfg = PhaseState.from_vector(s), IntegratorConfig(tol, tol, t_end=1.0)
    assert _first_try(state0, params, cfg) == h
    args = params.mu, params.k, params.n_sq, params.n
    k1 = dynamics._rhs(*s, *args)
    k2 = dynamics._rhs(*(si + h * (a21 * ki) for si, ki in zip(s, k1)), *args)
    assert all(map(math.isfinite, k1)) and not all(map(math.isfinite, k2))
    traj = _assert_matches_reference(state0, params, cfg)
    if outcome is ConvergenceError:
        with pytest.raises(ConvergenceError):
            integrate(state0, params, cfg)
    else:
        assert (traj.steps, traj.rejections, traj.status) == (*outcome, "escape")
        # v^2 overflows: C is -inf at the start and inf - inf after the step
        assert traj.jacobi[0] == -np.inf and np.isnan(traj.jacobi[1])


def _largest_tolerance_where_e3sq_overflows(state0, params, lo, hi):
    """Bisection for the largest tolerance at which the first try's e3^2 is inf,
    from ``lo`` (where it is) and ``hi`` (where it is not); the first try is the
    start rule's 1e-6 at both, so e3 and sc scale with the tolerance alone."""
    def overflows(tol):
        return _first_try_norms(state0, params, IntegratorConfig(tol, tol, t_end=1.0))[1] == math.inf

    assert overflows(lo) and not overflows(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        lo, hi = (mid, hi) if overflows(mid) else (lo, mid)


def test_overflowing_third_order_estimate_rejects_the_step():
    # just below the largest tolerance at which the first try's e3^2 overflows
    # (about 1.588e-170 here), e5^2 stays finite (about 1.74e308), where
    # h e5^2 / sqrt(6 (e5^2 + 0.01 e3^2)) reads h e5^2 / inf = 0
    # and would accept the step.  It is rejected with the factor 0.333, as is
    # every later try, down to the step floor: 1e-6 * 0.333^17 = 7.613e-15, from
    # the start rule's 1e-6 ((y / sk)^2 overflows)
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    tol = _largest_tolerance_where_e3sq_overflows(state0, CONFINING, 1e-175, 1e-165)
    cfg = IntegratorConfig(tol, tol, t_end=1.0)
    h = _first_try(state0, CONFINING, cfg)
    assert h == 1e-6
    e5sq, e3sq = _first_try_norms(state0, CONFINING, cfg)
    assert e3sq == math.inf and math.isfinite(e5sq)
    assert h * e5sq / math.sqrt(6.0 * (e5sq + 0.01 * e3sq)) == 0.0
    assert _assert_matches_reference(state0, CONFINING, cfg) is None
    with pytest.raises(ConvergenceError, match=r"at t=0 \(h=7\.613e-15\)"):
        integrate(state0, CONFINING, cfg)


def test_accepted_error_whose_square_underflows_predicts_the_next_step():
    # at tolerances of 1e140 every step is accepted with an err in (0, 1e-146),
    # and three of those after the first have an err whose square underflows
    # to 0.  Gustafsson's factor is formed as a product with
    # (err_acc / err)^(1/8), so it divides by err, never by err^2: no
    # ZeroDivisionError, which the loop would report as the second primary
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    tries = []
    traj = _assert_matches_reference(state0, CONFINING, IntegratorConfig(1e140, 1e140, 1.0),
                                     tries)
    assert (traj.steps, traj.rejections, traj.status) == (9, 0, "completed")
    tiny = [err for _, err, _ in tries[1:] if 0.0 < err < 1e-154 and err * err == 0.0]
    assert len(tiny) == 3


def test_zero_error_estimate_accepts_with_factor_6():
    # at tolerances of 1e300 every scaled estimate squares to 0, so the root
    # 6 (e5^2 + 0.01 e3^2) is 0: err is 0, never 0 / 0, and each step is
    # accepted and the next tried 6 times as long.  Both of the start rule's
    # norms are at most 1e-10 there, so the first step is 1e-6
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    cfg = IntegratorConfig(1e300, 1e300, t_end=0.01)
    assert _first_try_norms(state0, CONFINING, cfg) == (0.0, 0.0)
    traj = _assert_matches_reference(state0, CONFINING, cfg)
    assert (traj.steps, traj.rejections, traj.status) == (7, 0, "completed")
    t, h = 0.0, _first_try(state0, CONFINING, cfg)
    assert h == 1e-6
    for got in traj.times[1:7].tolist():
        t += h
        h *= 6.0
        assert got == t
    assert traj.times[-1] == 0.01


# DOP853's nodes c2..c13 (Hairer, Nørsett & Wanner): c2..c5 to Hairer's 30
# digits, exact elsewhere; b2..b5 = 0, so the quadrature sums use exact nodes only
_NODES = tuple(map(Fraction, (
    "0.526001519587677318785587544488e-01", "0.789002279381515978178381316732e-01",
    "0.118350341907227396726757197510", "0.281649658092772603273242802490",
    "1/3", "1/4", "4/13", "127/195", "3/5", "6/7", "1", "1")))


def _residual_within_rounding(terms, exact):
    """|sum(terms) - exact| in exact arithmetic, asserted within 2^-52 of
    sum |terms|, about what rounding each weight to a float can leave."""
    residual = abs(sum(terms) - exact)
    assert residual <= Fraction(1, 2 ** 52) * sum(map(abs, terms))
    return residual


def test_tableau_conditions_hold_in_exact_arithmetic():
    # each stage's row sums to its node, b integrates c^(q-1) exactly for
    # q = 1..8 (order 8), and the error weights vanish on c^(q-1) for q = 1..5
    # (e5, a fifth-order estimate) and q = 1..3 (e3, third order) but not beyond
    rows = [list(map(Fraction, row)) for row in dynamics._STAGES]
    assert len(rows) == len(_NODES) and [len(row) for row in rows] == list(range(1, 13))
    worst = max(_residual_within_rounding(row, c) for row, c in zip(rows, _NODES))
    nodes = (Fraction(0),) + _NODES[:-1]  # c1 = 0 and the nodes of k2..k12
    b = rows[-1]
    assert b[1:5] == [0, 0, 0, 0]
    for q in range(1, 9):
        terms = [w * c ** (q - 1) for w, c in zip(b, nodes)]
        worst = max(worst, _residual_within_rounding(terms, Fraction(1, q)))
    bhh = list(map(Fraction, dynamics._BHH))
    assert [m for m, w in enumerate(bhh) if w] == [0, 8, 11]  # k1, k9 and k12
    for weights, order in ((list(map(Fraction, dynamics._E5)), 5),
                           ([w - v for w, v in zip(b, bhh)], 3)):
        for q in range(1, order + 2):
            terms = [w * c ** (q - 1) for w, c in zip(weights, nodes)]
            if q <= order:
                worst = max(worst, _residual_within_rounding(terms, 0))
            else:
                assert abs(sum(terms)) > 1e-4
    assert worst < 2e-15


def test_tableau_is_scipys_dop853_bit_for_bit():
    coeffs = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    stages = coeffs.N_STAGES
    assert stages == len(dynamics._STAGES) == len(dynamics._E5) == len(dynamics._BHH)
    for i, row in enumerate(dynamics._STAGES[:-1], 1):
        assert np.array(row).tobytes() == coeffs.A[i, :i].tobytes()
        assert not coeffs.A[i, i:stages].any()
    assert not coeffs.A[0, :stages].any()
    assert np.array(dynamics._STAGES[-1]).tobytes() == coeffs.B.tobytes()
    # scipy's E3 is b less bhh, each difference rounded to a float; its
    # estimates weigh k13 too, by 0
    e3 = tuple(w - v for w, v in zip(dynamics._STAGES[-1], dynamics._BHH))
    for ours, theirs in ((dynamics._E5, coeffs.E5), (e3, coeffs.E3)):
        assert np.array(ours + (0.0,)).tobytes() == theirs.tobytes()


def _x_reaching_the_second_primary(mu, dx):
    """An x from which a move of ``dx`` lands on the second primary's x: one where
    (x + dx) + mu - 1.0 is exactly 0, within a few ulps of 1 - mu - dx."""
    x = 1.0 - mu - dx
    for _ in range(8):
        if x + dx + mu - 1.0 == 0.0:
            break
        x = math.nextafter(x, math.inf)
    assert x + dx + mu - 1.0 == 0.0
    return x


# at these tolerances both of the start rule's norms are at most 1e-10, so the
# first step is 1e-6 wherever the start is
_LAX = IntegratorConfig(1e300, 1e300, t_end=1.0)


@settings(max_examples=20, deadline=None)
@given(mu=st.floats(0.05, 0.95), vx=st.floats(25.0, 200.0), y=_zeros, z=_zeros, vy=_zeros,
       vz=_zeros)
@example(mu=0.3, vx=30.0, y=0.0, z=0.0, vy=5e-109, vz=0.0)
def test_stage_on_the_second_primary_raises_like_the_reference(mu, vx, y, z, vy, vz):
    # the first step's stage-2 point x + h (a21 vx) lands exactly on the
    # second primary's x, where r2^3 is 0: both raise.  With h = 1e-6, vx >= 25
    # starts it h a21 vx > 1e-6 away, outside the collision radius.  With
    # vy = 5e-109 the stage's y is 2.6e-116, so r2^2 = 6.9e-232 is positive but
    # r2^3 underflows to 0.
    h, a21 = 1e-6, dynamics._STAGES[0][0]
    x = _x_reaching_the_second_primary(mu, h * (a21 * vx))
    state0 = PhaseState(pos=(x, y, z), vel=(vx, vy, vz))
    params = Params(mu=mu, k=-0.01)
    assert _first_try(state0, params, _LAX) == h
    with pytest.raises(SingularityError):
        _dop853_reference(state0, params, _LAX)
    with pytest.raises(SingularityError):
        integrate(state0, params, _LAX)


# the start rule's edges: (start, params, cfg, the first step tried)
_START_RULE_EDGES = {
    # (y / sk)^2 overflows: the fallback, here capped at t_end
    "norms_overflow": (((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING,
                       IntegratorConfig(1e-300, 1e-300, t_end=1e-8), 1e-8),
    # both norms are at most 1e-10 and der12 at most 1e-15: min(100 h, max(1e-6, 1e-3 h))
    # with h = 1e-6
    "norms_vanish": (((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING, _LAX, 1e-6),
    # at A1 = 1e100, 2n vy overflows: f0 holds inf
    "slope_overflows": (((0.1, 0.2, 0.3), (0.0, 1e260, 0.0)),
                        Params(mu=0.1, k=-0.01, a1_oblate=1e100),
                        IntegratorConfig(t_end=1.0), 1e-6),
    # (f0 / sk)^2 overflows
    "velocity_1e159": (((0.1, 0.2, 0.3), (1e159, 0.0, 0.0)),
                       Params(mu=0.1, k=-0.01, a1_oblate=0.02),
                       IntegratorConfig(1e-3, 1e-3, t_end=1.0), 1e-6),
    # the Euler probe x + 1e-6 vx lands on the second primary, where its slope raises
    "probe_on_the_second_primary": (
        ((_x_reaching_the_second_primary(0.1, 1e-6 * 2.0), 0.0, 0.0), (2.0, 0.0, 0.0)),
        REPELLING, _LAX, 1e-6),
    # x, found by fixed-point iteration, puts the probe 1e-12 from the second
    # primary: its slope is 1e23 and ((f1 - f0) / sk)^2 overflows, so der12 = inf
    "probe_slope_overflows": (((0.8947765984511994, 0.0, 0.0), (100.0, 0.0, 0.0)), REPELLING,
                              IntegratorConfig(1e-150, 1e-150, t_end=1.0), 1e-6),
    # t_end is below the rule's step, which it caps
    "t_end_below_the_estimate": (((0.2, 0.1, 0.3), (0.05, -0.1, 0.02)), CONFINING,
                                 IntegratorConfig(t_end=1e-9), 1e-9),
}


@pytest.mark.parametrize("name", sorted(_START_RULE_EDGES))
def test_start_rule_edges_match_the_reference(name):
    # a finite first step in (0, t_end], with no warning and no OverflowError,
    # and integrate from there gives the reference's bits or raises as it does
    (pos, vel), params, cfg, first = _START_RULE_EDGES[name]
    state0 = PhaseState(pos, vel)
    s = tuple(state0.vector().tolist())
    args = params.mu, params.k, params.n_sq, params.n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f0 = dynamics._rhs(*s, *args)
        h = dynamics._first_step(s, f0, *args, cfg.abs_tol, cfg.rel_tol, cfg.t_end)
        assert h == _reference_first_step(s, f0, params, cfg) == first
        assert type(h) is float and 0.0 < h <= cfg.t_end
        _assert_matches_reference(state0, params, cfg)


@settings(max_examples=20, deadline=None)
@given(vec=_box, tol=st.sampled_from([1e-12, 1e-9, 1e-6, 1e-3]), t_end=st.floats(0.1, 10.0))
@example(vec=(0.3, -0.2, -0.0, 0.1, 0.05, -0.0), tol=1e-12, t_end=10.0)
def test_step_sizes_follow_dop853s_rules(vec, tol, t_end):
    # on the reference's log of tries, which integrate matches bit for bit: the
    # try after a rejection is no larger than the rejected one, and the step
    # after that try, once accepted, does not grow; each try is 0.333 to 6 times
    # the one before, or smaller where it was cut to t_end - t.  A try after an
    # accepted step that follows an earlier accepted one is no larger than
    # Gustafsson's predicted step h1 (h1 / h0) (err0 / err1)^(1/8) 0.9 err1^(-1/8),
    # err0 at least 0.01, kept within [0.333, 6] times h1
    tries = []
    _assert_matches_reference(PhaseState.from_vector(vec), CONFINING,
                              IntegratorConfig(tol, tol, t_end), tries)
    for (h0, err0, _), (h1, _, cut1) in zip(tries, tries[1:]):
        assert (h1 if cut1 else 0.333 * h0) <= h1 <= 6.0 * h0
        if not err0 <= 1.0:
            assert h1 <= h0
    for (_, err0, _), (h1, err1, _), (h2, _, _) in zip(tries, tries[1:], tries[2:]):
        if err1 <= 1.0 and not err0 <= 1.0:
            assert h2 <= h1
    accepted = [(i, h, err) for i, (h, err, _) in enumerate(tries) if err <= 1.0]
    for (_, h0, err0), (i, h1, err1) in zip(accepted, accepted[1:]):
        if i + 1 < len(tries) and 0.0 < err1:
            ratio = (h1 / h0) * (max(err0, 0.01) / err1) ** 0.125 * 0.9 * err1 ** -0.125
            assert tries[i + 1][0] <= h1 * min(6.0, max(0.333, ratio)) * (1.0 + 1e-12)


def test_generated_code_shows_in_source_and_tracebacks(canonical):
    # the step loop's try and _grad_s are compiled from model._SLOPE at import,
    # under filenames kept in linecache
    source = inspect.getsource(dynamics._dop853)
    assert "            ax13 = n_sq * x13 - k2 * dx1 - c3 * dx2 + n2 * vy13\n" in source
    stage_2 = dynamics.__doc__.split("Stage 2 reads\n\n")[1].split("\n\n")[0]
    assert textwrap.indent(textwrap.dedent(stage_2), " " * 12) + "\n" in source
    assert "        ax = n_sq * x - k2 * dx1 - c3 * dx2\n" in inspect.getsource(model._grad_s)
    # a raise in integrate's own lines: the step-size underflow at A1 = 1e30
    params = Params(mu=0.1, k=-0.01, a1_oblate=1e30)
    with pytest.raises(ConvergenceError) as info:
        integrate(unstable_seed(params, 1e-8), params, IntegratorConfig(t_end=5.0))
    shown = "".join(traceback.format_exception(info.type, info.value, info.tb))
    assert '"<robe3bp robe3bp.dynamics._dop853>"' in shown
    assert "\n    raise ConvergenceError(\n" in shown
    # a generated line that divides by r2^3 = 0: a stage-2 point on the second
    # primary, and _grad_s there; the ZeroDivisionError is the context
    mu, vx, h, a21 = 0.3, 30.0, 1e-6, dynamics._STAGES[0][0]
    x = _x_reaching_the_second_primary(mu, h * (a21 * vx))
    with pytest.raises(SingularityError) as in_step:
        integrate(PhaseState(pos=(x, 0.0, 0.0), vel=(vx, 0.0, 0.0)), Params(mu=mu, k=-0.01),
                  _LAX)
    with pytest.raises(SingularityError) as in_grad:
        grad_omega((1.0 - canonical.mu, 1e-110, 0.0), canonical)
    for info, name in ((in_step, "dynamics._dop853"), (in_grad, "model._grad_s")):
        frame = traceback.extract_tb(info.value.__context__.__traceback__)[-1]
        assert frame.filename == f"<robe3bp robe3bp.{name}>"
        assert frame.line == "c3 = mu / (r2_sq * sqrt(r2_sq))"


def test_step_loop_has_no_power_and_calls_only_sqrt_and_append():
    # the loop's arithmetic is operators and sqrt: no float power, which calls
    # libm pow, and no call but sqrt and the samples' append, apart from those
    # that build the error a raise reports
    loops = [node for node in ast.walk(ast.parse(inspect.getsource(dynamics._dop853)))
             if isinstance(node, ast.While)]
    assert len(loops) == 1
    raised = {id(node) for top in ast.walk(loops[0]) if isinstance(top, ast.Raise)
              for node in ast.walk(top)}
    powers, calls = [], []
    for node in ast.walk(loops[0]):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            powers.append(ast.unparse(node))
        elif isinstance(node, ast.Call) and id(node) not in raised:
            func = node.func
            if not (isinstance(func, ast.Name) and func.id == "sqrt"
                    or isinstance(func, ast.Attribute) and func.attr == "append"):
                calls.append(ast.unparse(node))
    assert powers == [] and calls == []


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


def test_integrate_matches_lsoda_oracle():
    # an independent integrator of another family (scipy's LSODA, Adams and BDF
    # multistep methods) on the same right-hand side, evaluated at this
    # integrator's sample times
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    state0 = PhaseState(pos=(0.2, 0.1, 0.3), vel=(0.05, -0.1, 0.02))
    traj = integrate(state0, CONFINING, IntegratorConfig(t_end=20.0))
    assert traj.status == "completed"
    ref = solve_ivp(lambda t, y: eom_rhs(PhaseState.from_vector(y), CONFINING),
                    (0.0, 20.0), state0.vector(), method="LSODA",
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
    """(trajectory, equilibrium position, lambda+) of a 1e-8 offset run on each
    admissible cell of the acceptance grid, to the canonical cell's lambda+ t_end
    = 60, just past the fit window, as ``verify`` runs them."""
    exponent = 60.0 * FROZEN["lambda_plus"]
    runs = []
    for mu, k, a1 in acceptance_grid():
        params = Params(mu=mu, k=k, a1_oblate=a1)
        if triangular_points(params).exists:
            rate = unstable_direction(params)[0]
            cfg = IntegratorConfig(t_end=exponent / rate)
            runs.append((integrate(unstable_seed(params, 1e-8), params, cfg),
                         equilibrium_state(params).pos, rate))
    return runs


def _polyfit_window(traj, eq_point):
    """The fit window as a boolean mask, by numpy's array steps."""
    disp = np.linalg.norm(traj.states - np.concatenate([eq_point, np.zeros(3)]), axis=1)
    return disp, (disp >= dynamics.GROWTH_FIT_LOWER_FACTOR * disp[0]) & (
        disp <= dynamics.GROWTH_FIT_UPPER_BOUND)


def test_growth_rate_agrees_with_polyfit(offset_runs):
    worst = 0.0
    for traj, eq, _ in offset_runs:
        disp, window = _polyfit_window(traj, eq)
        oracle = np.polyfit(traj.times[window], np.log(disp[window]), 1)[0]
        worst = max(worst, abs(growth_rate(traj, eq) - oracle) / oracle)
    assert worst < 1e-13


def test_growth_window_holds_the_masked_samples(offset_runs):
    for traj, eq, _ in offset_runs:
        disp, window = _polyfit_window(traj, eq)
        assert dynamics._growth_window(traj, eq) == (traj.times[window].tolist(),
                                                     disp[window].tolist())


def test_growth_window_keeps_its_samples(offset_runs):
    # DOP853's steps are long, so a run has few rows: on each of the 241 cells
    # the fit window still holds at least 8 samples, and the fitted rate is
    # within criterion 6's 5% of lambda+
    assert len(offset_runs) > 200
    for traj, eq, rate in offset_runs:
        assert len(dynamics._growth_window(traj, eq)[0]) >= 8
        assert abs(growth_rate(traj, eq) - rate) / rate < 0.05


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
