"""Nonlinear integration of the rotating-frame equations of motion.

The second-order equations are

    x'' - 2n y' = Omega_x
    y'' + 2n x' = Omega_y
    z''         = Omega_z

integrated here in first-order form with an embedded Dormand-Prince 5(4)
pair (FSAL, adaptive step control, the fifth-order solution propagated).  The
step runs on plain Python floats with each stage sum written out per
component, and ``_STAGES``/``_ERR`` are the one copy of the tableau.  Every
sum adds floats only: a stage sum starts from ``0.0`` and so rounds as a sum
from 0 does, and an error sum starts from its first term, since it is squared
and the sign of a zero drops out.  The step also writes out ``model``'s
formulas: each stage slope is ``_grad_s``'s gradient plus the Coriolis terms
of ``_rhs``, and each accepted state's C and stop tests reuse the r2 of the
slope just formed, with ``_jacobi_s``'s terms.  They keep those functions'
operations in their order, and a slow reference step built from ``_rhs``,
``_jacobi_s`` and the tableau holds ``integrate`` to the same bits in the
tests.  The
system is autonomous, so C = 2 Omega - |v|^2 is a first integral; its drift
along a trajectory is the accuracy audit for the integrator.  Trajectories
terminate early with a flagged status on close approach to the second primary
(r2 < ``model.COLLISION_R2``) or escape (|pos| > 1e3).  Escape is the generic
fate for k < 0, where the buoyancy term repels from the first primary.
Sampling density is one row per accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NoGrowthError, SingularityError
from .model import _AT_SECOND_PRIMARY, COLLISION_R2, Params, _grad_s, _omega_s
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
        if not (np.all(np.isfinite(self.pos)) and np.all(np.isfinite(self.vel))):
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
    return np.array(_rhs(*state.pos, *state.vel, params.mu, params.k, params.n_sq, params.n))


def jacobi_constant(state: PhaseState, params: Params) -> float:
    """First integral C = 2 Omega(pos) - |vel|^2."""
    return _jacobi_s(*state.pos, *state.vel, params.mu, params.k, params.n_sq)


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


def integrate(state0: PhaseState, params: Params, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the equations of motion from ``state0`` over [0, cfg.t_end].

    Every accepted step emits one sample; the trajectory therefore holds
    ``steps + 1`` rows including the initial state.  Raises
    :class:`ConvergenceError` on step-size underflow.
    """
    mu, k, n_sq, n = params.mu, params.k, params.n_sq, params.n
    # the factors as _rhs, _grad_s and _omega_s form them left to right
    n2, k2, mk2, half_n_sq = 2.0 * n, 2.0 * k, -2.0 * k, 0.5 * n_sq
    collision_sq = COLLISION_R2 * COLLISION_R2
    escape_sq = ESCAPE_RADIUS * ESCAPE_RADIUS
    abs_tol, rel_tol, t_end = cfg.abs_tol, cfg.rel_tol, cfg.t_end
    ((a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
     (a61, a62, a63, a64, a65), (b1, b2, b3, b4, b5, b6)) = _STAGES
    e1, e2, e3, e4, e5, e6, e7 = _ERR
    sqrt = math.sqrt

    t = 0.0
    s = x, y, z, vx, vy, vz = tuple(state0.vector().tolist())
    times, states, jacobi = [t], [s], [_jacobi_s(*s, mu, k, n_sq)]
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
        while t < t_end:
            if h > t_end - t:
                h = t_end - t
            # a final sliver h == t_end - t is legitimate however small
            if h < 1e-14 * max(1.0, abs(t)) and h < t_end - t:
                raise ConvergenceError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}); "
                    "the trajectory is too close to a singularity for the "
                    "requested tolerances"
                )

            # Stage j sits at s + h * (0.0 + a_j1 k1 + a_j2 k2 + ...), summed in
            # tableau order from 0.0, zero entries included, so every sum rounds
            # as sum(map(mul, row, kj)) does.  A slope is the stage velocity
            # and the acceleration: _grad_s's terms in its order, with
            # dx1 = x + mu and dx2 = dx1 - 1.0, plus the Coriolis terms.
            x2 = x + h * (0.0 + a21 * vx)
            y2 = y + h * (0.0 + a21 * vy)
            z2 = z + h * (0.0 + a21 * vz)
            vx2 = vx + h * (0.0 + a21 * ax)
            vy2 = vy + h * (0.0 + a21 * ay)
            vz2 = vz + h * (0.0 + a21 * az)
            dx1 = x2 + mu
            dx2 = dx1 - 1.0
            r2_sq = dx2 * dx2 + y2 * y2 + z2 * z2
            r2_cu = r2_sq * sqrt(r2_sq)
            if r2_cu == 0.0:
                raise SingularityError(_AT_SECOND_PRIMARY)
            c3 = mu / r2_cu
            ax2 = n_sq * x2 - k2 * dx1 - c3 * dx2 + n2 * vy2
            ay2 = n_sq * y2 - k2 * y2 - c3 * y2 - n2 * vx2
            az2 = mk2 * z2 - c3 * z2

            x3 = x + h * (0.0 + a31 * vx + a32 * vx2)
            y3 = y + h * (0.0 + a31 * vy + a32 * vy2)
            z3 = z + h * (0.0 + a31 * vz + a32 * vz2)
            vx3 = vx + h * (0.0 + a31 * ax + a32 * ax2)
            vy3 = vy + h * (0.0 + a31 * ay + a32 * ay2)
            vz3 = vz + h * (0.0 + a31 * az + a32 * az2)
            dx1 = x3 + mu
            dx2 = dx1 - 1.0
            r2_sq = dx2 * dx2 + y3 * y3 + z3 * z3
            r2_cu = r2_sq * sqrt(r2_sq)
            if r2_cu == 0.0:
                raise SingularityError(_AT_SECOND_PRIMARY)
            c3 = mu / r2_cu
            ax3 = n_sq * x3 - k2 * dx1 - c3 * dx2 + n2 * vy3
            ay3 = n_sq * y3 - k2 * y3 - c3 * y3 - n2 * vx3
            az3 = mk2 * z3 - c3 * z3

            x4 = x + h * (0.0 + a41 * vx + a42 * vx2 + a43 * vx3)
            y4 = y + h * (0.0 + a41 * vy + a42 * vy2 + a43 * vy3)
            z4 = z + h * (0.0 + a41 * vz + a42 * vz2 + a43 * vz3)
            vx4 = vx + h * (0.0 + a41 * ax + a42 * ax2 + a43 * ax3)
            vy4 = vy + h * (0.0 + a41 * ay + a42 * ay2 + a43 * ay3)
            vz4 = vz + h * (0.0 + a41 * az + a42 * az2 + a43 * az3)
            dx1 = x4 + mu
            dx2 = dx1 - 1.0
            r2_sq = dx2 * dx2 + y4 * y4 + z4 * z4
            r2_cu = r2_sq * sqrt(r2_sq)
            if r2_cu == 0.0:
                raise SingularityError(_AT_SECOND_PRIMARY)
            c3 = mu / r2_cu
            ax4 = n_sq * x4 - k2 * dx1 - c3 * dx2 + n2 * vy4
            ay4 = n_sq * y4 - k2 * y4 - c3 * y4 - n2 * vx4
            az4 = mk2 * z4 - c3 * z4

            x5 = x + h * (0.0 + a51 * vx + a52 * vx2 + a53 * vx3 + a54 * vx4)
            y5 = y + h * (0.0 + a51 * vy + a52 * vy2 + a53 * vy3 + a54 * vy4)
            z5 = z + h * (0.0 + a51 * vz + a52 * vz2 + a53 * vz3 + a54 * vz4)
            vx5 = vx + h * (0.0 + a51 * ax + a52 * ax2 + a53 * ax3 + a54 * ax4)
            vy5 = vy + h * (0.0 + a51 * ay + a52 * ay2 + a53 * ay3 + a54 * ay4)
            vz5 = vz + h * (0.0 + a51 * az + a52 * az2 + a53 * az3 + a54 * az4)
            dx1 = x5 + mu
            dx2 = dx1 - 1.0
            r2_sq = dx2 * dx2 + y5 * y5 + z5 * z5
            r2_cu = r2_sq * sqrt(r2_sq)
            if r2_cu == 0.0:
                raise SingularityError(_AT_SECOND_PRIMARY)
            c3 = mu / r2_cu
            ax5 = n_sq * x5 - k2 * dx1 - c3 * dx2 + n2 * vy5
            ay5 = n_sq * y5 - k2 * y5 - c3 * y5 - n2 * vx5
            az5 = mk2 * z5 - c3 * z5

            x6 = x + h * (0.0 + a61 * vx + a62 * vx2 + a63 * vx3 + a64 * vx4 + a65 * vx5)
            y6 = y + h * (0.0 + a61 * vy + a62 * vy2 + a63 * vy3 + a64 * vy4 + a65 * vy5)
            z6 = z + h * (0.0 + a61 * vz + a62 * vz2 + a63 * vz3 + a64 * vz4 + a65 * vz5)
            vx6 = vx + h * (0.0 + a61 * ax + a62 * ax2 + a63 * ax3 + a64 * ax4 + a65 * ax5)
            vy6 = vy + h * (0.0 + a61 * ay + a62 * ay2 + a63 * ay3 + a64 * ay4 + a65 * ay5)
            vz6 = vz + h * (0.0 + a61 * az + a62 * az2 + a63 * az3 + a64 * az4 + a65 * az5)
            dx1 = x6 + mu
            dx2 = dx1 - 1.0
            r2_sq = dx2 * dx2 + y6 * y6 + z6 * z6
            r2_cu = r2_sq * sqrt(r2_sq)
            if r2_cu == 0.0:
                raise SingularityError(_AT_SECOND_PRIMARY)
            c3 = mu / r2_cu
            ax6 = n_sq * x6 - k2 * dx1 - c3 * dx2 + n2 * vy6
            ay6 = n_sq * y6 - k2 * y6 - c3 * y6 - n2 * vx6
            az6 = mk2 * z6 - c3 * z6

            # the fifth-order solution; its slope is the next step's first (FSAL)
            x7 = x + h * (0.0 + b1 * vx + b2 * vx2 + b3 * vx3 + b4 * vx4 + b5 * vx5 + b6 * vx6)
            y7 = y + h * (0.0 + b1 * vy + b2 * vy2 + b3 * vy3 + b4 * vy4 + b5 * vy5 + b6 * vy6)
            z7 = z + h * (0.0 + b1 * vz + b2 * vz2 + b3 * vz3 + b4 * vz4 + b5 * vz5 + b6 * vz6)
            vx7 = vx + h * (0.0 + b1 * ax + b2 * ax2 + b3 * ax3 + b4 * ax4 + b5 * ax5 + b6 * ax6)
            vy7 = vy + h * (0.0 + b1 * ay + b2 * ay2 + b3 * ay3 + b4 * ay4 + b5 * ay5 + b6 * ay6)
            vz7 = vz + h * (0.0 + b1 * az + b2 * az2 + b3 * az3 + b4 * az4 + b5 * az5 + b6 * az6)
            dx1 = x7 + mu
            dx2 = dx1 - 1.0
            r2_sq = dx2 * dx2 + y7 * y7 + z7 * z7
            r2 = sqrt(r2_sq)
            r2_cu = r2_sq * r2
            if r2_cu == 0.0:
                raise SingularityError(_AT_SECOND_PRIMARY)
            c3 = mu / r2_cu
            ax7 = n_sq * x7 - k2 * dx1 - c3 * dx2 + n2 * vy7
            ay7 = n_sq * y7 - k2 * y7 - c3 * y7 - n2 * vx7
            az7 = mk2 * z7 - c3 * z7

            # RMS of the scaled error estimate.  Each scale picks the larger of
            # |before| and |after| as max() would (NaN included); each error sum
            # is squared, so it need not start from 0.0 for the sign of a zero.
            m0, m1 = abs(x), abs(x7)
            sc_x = abs_tol + rel_tol * (m1 if m1 > m0 else m0)
            m0, m1 = abs(y), abs(y7)
            sc_y = abs_tol + rel_tol * (m1 if m1 > m0 else m0)
            m0, m1 = abs(z), abs(z7)
            sc_z = abs_tol + rel_tol * (m1 if m1 > m0 else m0)
            m0, m1 = abs(vx), abs(vx7)
            sc_vx = abs_tol + rel_tol * (m1 if m1 > m0 else m0)
            m0, m1 = abs(vy), abs(vy7)
            sc_vy = abs_tol + rel_tol * (m1 if m1 > m0 else m0)
            m0, m1 = abs(vz), abs(vz7)
            sc_vz = abs_tol + rel_tol * (m1 if m1 > m0 else m0)
            try:
                err_sq = (
                    (h * (e1 * vx + e2 * vx2 + e3 * vx3 + e4 * vx4 + e5 * vx5 + e6 * vx6
                            + e7 * vx7) / sc_x) ** 2
                    + (h * (e1 * vy + e2 * vy2 + e3 * vy3 + e4 * vy4 + e5 * vy5 + e6 * vy6
                            + e7 * vy7) / sc_y) ** 2
                    + (h * (e1 * vz + e2 * vz2 + e3 * vz3 + e4 * vz4 + e5 * vz5 + e6 * vz6
                            + e7 * vz7) / sc_z) ** 2
                    + (h * (e1 * ax + e2 * ax2 + e3 * ax3 + e4 * ax4 + e5 * ax5 + e6 * ax6
                            + e7 * ax7) / sc_vx) ** 2
                    + (h * (e1 * ay + e2 * ay2 + e3 * ay3 + e4 * ay4 + e5 * ay5 + e6 * ay6
                            + e7 * ay7) / sc_vy) ** 2
                    + (h * (e1 * az + e2 * az2 + e3 * az3 + e4 * az4 + e5 * az5 + e6 * az6
                            + e7 * az7) / sc_vz) ** 2
                )
            except OverflowError:  # a float power raises where a numpy scalar gives inf
                err_sq = math.inf  # which rejects the step
            err = math.sqrt(err_sq / 6.0)

            if err <= 1.0:
                t += h
                s = x, y, z, vx, vy, vz = x7, y7, z7, vx7, vy7, vz7
                ax, ay, az = ax7, ay7, az7
                steps += 1
                times.append(t)
                states.append(s)
                # C and the stop tests as _jacobi_s and the start's tests form
                # them, from the r2^2 and r2 of the slope at s; that slope had
                # r2^3 != 0, so r2 != 0 and _omega_s's r2 == 0 check cannot fire
                try:
                    r1_sq = dx1 ** 2 + y * y + z * z
                except OverflowError:  # a float power raises where a numpy scalar gives inf
                    r1_sq = math.inf
                rho_sq = x * x + y * y
                jacobi.append(2.0 * (half_n_sq * rho_sq - k * r1_sq + mu / r2)
                              - (vx * vx + vy * vy + vz * vz))
                if r2_sq < collision_sq:
                    status = "collision"
                    break
                if rho_sq + z * z > escape_sq:
                    status = "escape"
                    break
                h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            else:
                rejections += 1
                h *= 0.2 if math.isnan(err) else max(0.2, 0.9 * err ** -0.2)

    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        jacobi=np.array(jacobi),
        steps=steps,
        rejections=rejections,
        status=status or "completed",
    )


def growth_rate(traj: Trajectory, eq_point) -> float:
    """Exponential growth rate of the displacement from an equilibrium.

    Fits the least-squares slope of log ||state - equilibrium|| (6-dimensional
    displacement, the equilibrium having zero velocity) against time over the
    window where the displacement lies in [GROWTH_FIT_LOWER_FACTOR x initial,
    GROWTH_FIT_UPPER_BOUND].  The lower edge skips transient mode mixing; the
    upper edge stops before nonlinear saturation.

    Raises
    ------
    NoGrowthError
        If the displacement never reaches the window ("no exponential growth
        detected").
    """
    eq = np.concatenate([np.asarray(eq_point, dtype=float), np.zeros(3)])
    disp = np.linalg.norm(traj.states - eq, axis=1)
    d0 = disp[0]
    lower = GROWTH_FIT_LOWER_FACTOR * d0
    if lower <= 0.0 or disp.max() < lower:
        raise NoGrowthError("no exponential growth detected")
    window = (disp >= lower) & (disp <= GROWTH_FIT_UPPER_BOUND)
    if window.sum() < 2:
        raise NoGrowthError("no exponential growth detected")
    slope = np.polyfit(traj.times[window], np.log(disp[window]), 1)[0]
    return float(slope)


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
    _, direction = unstable_direction(params)
    vec = eq.vector() + offset * direction
    return PhaseState.from_vector(vec)
