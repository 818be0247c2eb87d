"""Nonlinear integration of the rotating-frame equations of motion.

The second-order equations are

    x'' - 2n y' = Omega_x
    y'' + 2n x' = Omega_y
    z''         = Omega_z

integrated here in first-order form with an embedded Dormand-Prince 5(4)
pair (FSAL, adaptive step control, the fifth-order solution propagated).  The
system is autonomous, so C = 2 Omega - |v|^2 is a first integral; its drift
along a trajectory is the accuracy audit for the integrator.  Trajectories
terminate early with a flagged status on close approach to the second primary
(r2 < ``model.COLLISION_R2``) or escape (|pos| > 1e3).  Escape is the generic
fate for k < 0, where the buoyancy term repels from the first primary.
Sampling density is one row per accepted step; cap ``max_step`` for denser
output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ConvergenceError, NoGrowthError
from .model import COLLISION_R2, Params, _grad_s, _omega_s
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
    max_step: float = math.inf
    initial_step: float = 1e-4
    t_end: float = 100.0

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "initial_step", "t_end"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.max_step > 0.0:  # inf means no cap
            raise ValueError(f"max_step must be positive, got {self.max_step}")


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

    def flagged(s):
        x, y, z = s[0], s[1], s[2]
        dx2 = x + mu - 1.0
        if dx2 * dx2 + y * y + z * z < COLLISION_R2 * COLLISION_R2:
            return "collision"
        if x * x + y * y + z * z > ESCAPE_RADIUS * ESCAPE_RADIUS:
            return "escape"
        return None

    t = 0.0
    s = tuple(state0.vector())
    times, states, jacobi = [t], [s], [_jacobi_s(*s, mu, k, n_sq)]
    status = flagged(s)
    steps = rejections = 0

    if status is None:
        h = min(cfg.initial_step, cfg.max_step, cfg.t_end)
        k1 = _rhs(*s, mu, k, n_sq, n)
        while t < cfg.t_end:
            if h > cfg.t_end - t:
                h = cfg.t_end - t
            # a final sliver h == t_end - t is legitimate however small
            if h < 1e-14 * max(1.0, abs(t)) and h < cfg.t_end - t:
                raise ConvergenceError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}); "
                    "the trajectory is too close to a singularity for the "
                    "requested tolerances"
                )

            ks = [k1]
            for row in _STAGES:
                s_new = tuple(si + h * sum(map(mul, row, kj)) for si, kj in zip(s, zip(*ks)))
                ks.append(_rhs(*s_new, mu, k, n_sq, n))

            err_sq = 0.0
            for si, ni, kj in zip(s, s_new, zip(*ks)):
                scale = cfg.abs_tol + cfg.rel_tol * max(abs(si), abs(ni))
                err_sq += (h * sum(map(mul, _ERR, kj)) / scale) ** 2
            err = math.sqrt(err_sq / 6.0)

            if err <= 1.0:
                t += h
                s, k1 = s_new, ks[-1]
                steps += 1
                times.append(t)
                states.append(s)
                jacobi.append(_jacobi_s(*s, mu, k, n_sq))
                status = flagged(s)
                if status is not None:
                    break
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = min(h * grow, cfg.max_step)
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
