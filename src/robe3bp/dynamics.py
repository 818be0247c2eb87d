"""Nonlinear integration of the rotating-frame equations of motion.

The second-order equations are

    x'' - 2n y' = Omega_x
    y'' + 2n x' = Omega_y
    z''         = Omega_z

integrated here in first-order form with an embedded Dormand-Prince 5(4)
pair (FSAL, adaptive step control, the fifth-order solution propagated).
``_STAGES``/``_ERR`` are the one copy of the tableau and ``model._SLOPE`` the
one spelling of the gradient.  At import, ``_step_source`` writes the step
out from them on plain Python floats, one statement per component, and
``model._splice`` puts it into ``integrate``'s loop in place of ``_STEP``,
under a filename kept in ``linecache``, so tracebacks and
``inspect.getsource(integrate)`` show the generated lines.  Stage 2 reads

    x2 = x + h * (0.0 + a21 * vx)
    y2 = y + h * (0.0 + a21 * vy)
    z2 = z + h * (0.0 + a21 * vz)
    vx2 = vx + h * (0.0 + a21 * ax)
    vy2 = vy + h * (0.0 + a21 * ay)
    vz2 = vz + h * (0.0 + a21 * az)
    dx1 = x2 + mu
    dx2 = dx1 - 1.0
    r2_sq = dx2 * dx2 + y2 * y2 + z2 * z2
    c3 = mu / (r2_sq * sqrt(r2_sq))
    ax2 = n_sq * x2 - k2 * dx1 - c3 * dx2 + n2 * vy2
    ay2 = n_sq * y2 - k2 * y2 - c3 * y2 - n2 * vx2
    az2 = mk2 * z2 - c3 * z2

and each later stage adds one term per earlier slope.  The generated text is
the step as it would be written by hand, so it compiles to the same
instructions and its bits cannot move with how it is produced.  A stage sum
starts from ``0.0`` and so rounds as a sum from 0 does; an error sum starts
from its first term, since it is squared and the sign of a zero drops out.
The zero weights b2 = e2 = 0 are skipped: a finite stage-2 slope adds a zero
there, and a non-finite one makes err inf or NaN through a32 anyway.  C is
one ``_jacobi_s`` call on the arrays of accepted states.  A slow reference
step built from ``_rhs``, ``_jacobi_s`` and the full tableau holds
``integrate`` to the same bits in the tests.  Every square is a product, as
in ``model``: it overflows to inf, and an inf or NaN error estimate rejects
the step.  |c|, ``max`` and ``min`` are spelled as comparisons (``c if c >=
0.0 else -c``), which give the builtins' bits for -0.0 and NaN as well, so
apart from ``sqrt`` the step calls no builtin.  The step's only exception is
at the second primary: a slope divides by r2^3 unguarded, and the
``ZeroDivisionError`` where r2^3 rounds to 0 is mapped once to the
``SingularityError`` that ``_grad_s`` raises there.
The system is autonomous, so C = 2 Omega - |v|^2 is a first integral; its
drift along a trajectory is the accuracy audit for the integrator.  Trajectories
terminate early with a flagged status on close approach to the second primary
(r2 < ``model.COLLISION_R2``) or escape (|pos| > 1e3).  Escape is the generic
fate for k < 0, where the buoyancy term repels from the first primary.
Sampling density is one row per accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .errors import ConvergenceError, NoGrowthError, SingularityError
from .model import (_AT_SECOND_PRIMARY, _SLOPE, COLLISION_R2, Params, _grad_s, _omega_s,
                    _splice)
from .equilibria import triangular_points
from .stability import unstable_direction

__all__ = [
    "PhaseState",
    "IntegratorConfig",
    "Trajectory",
    "eom_rhs",
    "jacobi_constant",
    "integrate",
    "growth_rate",
    "equilibrium_state",
    "unstable_seed",
]

ESCAPE_RADIUS = 1e3
GROWTH_FIT_LOWER_FACTOR = 10.0
GROWTH_FIT_UPPER_BOUND = 1e-3
_INITIAL_STEP = 1e-4  # the first step tried; integrate shrinks or grows it from there


@dataclass(frozen=True)
class PhaseState:
    """Rotating-frame state: position and velocity."""

    pos: np.ndarray
    vel: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", np.asarray(self.pos, dtype=float))
        object.__setattr__(self, "vel", np.asarray(self.vel, dtype=float))
        if self.pos.shape != (3,) or self.vel.shape != (3,):
            raise ValueError("pos and vel must each hold 3 components")
        if not all(map(math.isfinite, self.pos.tolist() + self.vel.tolist())):
            raise ValueError("state components must be finite")

    def vector(self) -> np.ndarray:
        """Concatenated 6-vector (x, y, z, vx, vy, vz)."""
        return np.concatenate([self.pos, self.vel])

    @classmethod
    def from_vector(cls, vec) -> "PhaseState":
        vec = np.asarray(vec, dtype=float)
        return cls(pos=vec[:3], vel=vec[3:])


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive-integration settings."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    t_end: float = 100.0

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_end"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled integration output (one sample per accepted step).

    ``status`` is "completed", "collision" (r2 fell below ``COLLISION_R2``) or
    "escape" (|pos| exceeded 1e3).
    """

    times: np.ndarray
    states: np.ndarray
    jacobi: np.ndarray
    steps: int
    rejections: int
    status: str

    def __len__(self) -> int:
        return len(self.times)


def eom_rhs(state: PhaseState, params: Params) -> np.ndarray:
    """Time derivative of the 6-vector state: (vel, acc) with Coriolis coupling."""
    return np.array(_rhs(*state.vector().tolist(), params.mu, params.k, params.n_sq, params.n))


def jacobi_constant(state: PhaseState, params: Params) -> float:
    """First integral C = 2 Omega(pos) - |vel|^2."""
    return _jacobi_s(*state.vector().tolist(), params.mu, params.k, params.n_sq)


def _jacobi_s(x, y, z, vx, vy, vz, mu, k, n_sq):
    return 2.0 * _omega_s(x, y, z, mu, k, n_sq) - (vx * vx + vy * vy + vz * vz)


def _rhs(x, y, z, vx, vy, vz, mu, k, n_sq, n):
    gx, gy, gz = _grad_s(x, y, z, mu, k, n_sq)
    return (vx, vy, vz, gx + 2.0 * n * vy, gy - 2.0 * n * vx, gz)


# Dormand-Prince 5(4) tableau.  Each _STAGES row weighs the stages so far into
# the next point; the last gives the solution, whose derivative is the next k1 (FSAL).
_A2 = (1 / 5,)
_A3 = (3 / 40, 9 / 40)
_A4 = (44 / 45, -56 / 15, 32 / 9)
_A5 = (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)
_A6 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_STAGES = (_A2, _A3, _A4, _A5, _A6, _B5)
_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _step_source() -> str:
    """The statements of one attempted step after its first slope, from ``_STAGES``,
    ``_ERR`` and ``model._SLOPE``: stages 2-7, the scaled error terms and err."""
    comps = ("x", "y", "z", "vx", "vy", "vz")
    rates = ("vx", "vy", "vz", "ax", "ay", "az")  # the slope of each component

    def weighed(row, name, rate):  # "a31 * vx + a32 * vx2" for row (a31, a32) and rate vx
        return " + ".join(f"{name}{m} * {rate}{m if m > 1 else ''}"
                          for m, w in enumerate(row, 1) if w)

    lines = []
    for j, row in enumerate(_STAGES, 2):
        a = f"a{j}" if j < 7 else "b"
        lines += [f"{c}{j} = {c} + h * (0.0 + {weighed(row, a, r)})" for c, r in zip(comps, rates)]
        lines += _SLOPE.format(j=j, cx=f" + n2 * vy{j}", cy=f" - n2 * vx{j}").splitlines()
        lines.append("")
    for c, r in zip(comps, rates):  # |c| and max() as comparisons
        lines.append(f"m0, m1 = {c} if {c} >= 0.0 else -{c}, {c}7 if {c}7 >= 0.0 else -{c}7")
        lines.append(f"e{c} = h * ({weighed(_ERR, 'e', r)})"
                     " / (abs_tol + rel_tol * (m1 if m1 > m0 else m0))")
    lines.append(f"err = sqrt(({' + '.join(f'e{c} * e{c}' for c in comps)}) / 6.0)")
    return "\n".join(lines)


_STEP = _step_source()


def integrate(state0: PhaseState, params: Params, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the equations of motion from ``state0`` over [0, cfg.t_end].

    Every accepted step emits one sample; the trajectory therefore holds
    ``steps + 1`` rows including the initial state.  Raises
    :class:`ConvergenceError` on step-size underflow and
    :class:`SingularityError` where a stage lands where r2^3 rounds to 0.
    """
    mu, k, n_sq, n = params.mu, params.k, params.n_sq, params.n
    # the factors model._SLOPE names, formed as _rhs and _grad_s form them
    n2, k2, mk2 = 2.0 * n, 2.0 * k, -2.0 * k
    collision_sq = COLLISION_R2 * COLLISION_R2
    escape_sq = ESCAPE_RADIUS * ESCAPE_RADIUS
    abs_tol, rel_tol, t_end = cfg.abs_tol, cfg.rel_tol, cfg.t_end
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, _, b3, b4, b5, b6)) = _STAGES
    e1, _, e3, e4, e5, e6, e7 = _ERR
    sqrt = math.sqrt

    t = 0.0
    s = x, y, z, vx, vy, vz = tuple(state0.vector().tolist())
    times, states = [t], [s]
    dx2 = x + mu - 1.0
    if dx2 * dx2 + y * y + z * z < collision_sq:
        status = "collision"
    elif x * x + y * y + z * z > escape_sq:
        status = "escape"
    else:
        status = None
    steps = rejections = 0

    if status is None:
        h = min(_INITIAL_STEP, t_end)
        ax, ay, az = _rhs(*s, mu, k, n_sq, n)[3:]
    # A float division raises exactly where its divisor is 0, and in the loop
    # only a stage's r2^3 can be: the second primary, as _grad_s reports it.
    try:
        while status is None and t < t_end:
            if h > t_end - t:
                h = t_end - t
            # a final sliver h == t_end - t is legitimate however small
            if h < 1e-14 * (t if t > 1.0 else 1.0) and h < t_end - t:
                raise ConvergenceError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}); the error "
                    "estimate stayed above the tolerance down to the smallest "
                    "step, 1e-14 * max(1, t)"
                )

            _STEP  # replaced at import by stages 2-7, the error terms and err: _step_source()

            if err <= 1.0:
                t += h
                s = x, y, z, vx, vy, vz = x7, y7, z7, vx7, vy7, vz7
                ax, ay, az = ax7, ay7, az7
                steps += 1
                times.append(t)
                states.append(s)
                # the start's stop tests, with the r2^2 of the slope at s
                if r2_sq < collision_sq:
                    status = "collision"
                elif x * x + y * y + z * z > escape_sq:
                    status = "escape"
            else:
                rejections += 1
            # min(5.0, max(0.2, f)) as comparisons: a NaN f (a NaN err) fails
            # both and gives 0.2, as max(0.2, nan) does; 0.0 ** -0.2 would raise
            f = 5.0 if err == 0.0 else 0.9 * err ** -0.2
            h *= 5.0 if f > 5.0 else f if f > 0.2 else 0.2
    except ZeroDivisionError:
        raise SingularityError(_AT_SECOND_PRIMARY) from None

    states = np.fromiter(chain.from_iterable(states), float, 6 * len(states)).reshape(-1, 6)
    # C of every row at once; only a start at r2 = 0 raises (each later row's slope had r2^3 != 0)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as floats give them
        jacobi = _jacobi_s(*states.T, mu, k, n_sq)
    return Trajectory(
        times=np.fromiter(times, float, len(times)),
        states=states,
        jacobi=jacobi,
        steps=steps,
        rejections=rejections,
        status=status or "completed",
    )


integrate = _splice(integrate, "_STEP", _STEP)


def growth_rate(traj: Trajectory, eq_point) -> float:
    """Exponential growth rate of the displacement from an equilibrium.

    Fits the least-squares slope of log ||state - equilibrium|| (6-dimensional
    displacement, the equilibrium having zero velocity) against time over the
    window where the displacement lies in [GROWTH_FIT_LOWER_FACTOR x initial,
    GROWTH_FIT_UPPER_BOUND].  The lower edge skips transient mode mixing; the
    upper edge stops before nonlinear saturation.  The slope is the closed
    form sum((t - t_mean) (y - y_mean)) / sum((t - t_mean)^2) on Python
    floats, y = ``math.log`` of the displacement and every sum a ``math.fsum``,
    so no LAPACK or vector loop enters it; the window's times must not all be
    equal, which the increasing times of ``integrate`` guarantee.

    Raises
    ------
    NoGrowthError
        If fewer than two samples lie in the window ("no exponential growth
        detected"), a zero initial displacement included.
    """
    times, disps = _growth_window(traj, eq_point)
    if len(times) < 2:
        raise NoGrowthError("no exponential growth detected")
    fsum, count = math.fsum, len(times)
    logs = list(map(math.log, disps))
    t_mean, y_mean = fsum(times) / count, fsum(logs) / count
    dts = [t - t_mean for t in times]
    return fsum([dt * (y - y_mean) for dt, y in zip(dts, logs)]) / fsum([dt * dt for dt in dts])


def _growth_window(traj: Trajectory, eq_point) -> tuple[list[float], list[float]]:
    """The times and displacement norms of the samples that ``growth_rate`` fits;
    none where the initial displacement is 0."""
    eq = np.zeros(6)
    eq[:3] = eq_point
    disp = np.linalg.norm(traj.states - eq, axis=1).tolist()
    lower = GROWTH_FIT_LOWER_FACTOR * disp[0]
    if lower <= 0.0:
        return [], []
    window = [lower <= d <= GROWTH_FIT_UPPER_BOUND for d in disp]
    return list(compress(traj.times.tolist(), window)), list(compress(disp, window))


def equilibrium_state(params: Params) -> PhaseState:
    """The +z triangular equilibrium with zero velocity.

    Raises ``ValueError`` if the triangular points do not exist.
    """
    return PhaseState(pos=triangular_points(params).point(), vel=np.zeros(3))


def unstable_seed(params: Params, offset: float) -> PhaseState:
    """+z equilibrium displaced by ``offset`` along the dominant growing eigendirection.

    The 6-dimensional displacement has norm ``offset``, so the growth-rate fit
    sees the unstable mode immediately.
    """
    if not 0.0 < offset < math.inf:
        raise ValueError(f"offset must be positive and finite, got {offset}")
    eq = equilibrium_state(params)
    step = offset * unstable_direction(params)[1]
    return PhaseState(pos=eq.pos + step[:3], vel=eq.vel + step[3:])
