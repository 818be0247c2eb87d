"""Model parameters and the effective potential of the rotating frame.

All quantities are nondimensional: the primary separation is the unit of
length and the unit of time is chosen so the gravitational parameter of the
system is 1.  The primaries sit at (-mu, 0, 0) and (1 - mu, 0, 0); the frame
rotates with mean motion n, where n^2 = 1 + (3/2) A1 accounts for the
oblateness of the first primary.  The buoyancy term -k r1^2 is smooth at
r1 = 0, so only the second primary (r2 = 0) is a singularity; iterations and
trajectories stop once r2 falls below ``COLLISION_R2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import SingularityError

__all__ = [
    "Params",
    "PotentialHessian",
    "mean_motion_sq",
    "radii",
    "omega",
    "grad_omega",
    "hessian_omega",
]

COLLISION_R2 = 1e-6


def _require(ok, value, message: str) -> None:
    """Raise ``ValueError(message.format(v))`` for the first ``v`` of ``value`` where ``ok`` fails.

    ``ok`` and ``value`` are a bool and a number, or arrays of one shape.
    """
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(message.format(np.asarray(value)[np.logical_not(ok)][0].item()))


def mean_motion_sq(a1_oblate):
    """Mean-motion squared n^2 = 1 + (3/2) A1 for a finite oblateness coefficient A1 >= 0.

    A1 must also be small enough (at most about 3.76e102) that n^6 is a
    finite float: the characteristic cubic in lambda^2 has roots of size n^2,
    and the polish of each root evaluates its cube.  Elementwise for an array
    of coefficients.
    """
    _require((0.0 <= a1_oblate) & (a1_oblate < math.inf), a1_oblate,
             "oblateness coefficient must be finite and >= 0, got {}")
    with np.errstate(over="ignore"):  # as with Python floats: inf on overflow
        n_sq = 1.0 + 1.5 * a1_oblate
        _require(n_sq * n_sq * n_sq < math.inf, a1_oblate,
                 "oblateness coefficient A1={} is too large: n^6 overflows above about 3.76e102")
    return n_sq


@dataclass(frozen=True)
class Params:
    """Nondimensional model parameters.

    The fields are numbers, or numpy arrays for a grid of parameter cells:
    ``triangular_points``, ``char_coeffs`` and the rest of the linear layer
    then work on every cell at once.  Given one array, all fields are
    broadcast against each other and stored as float64 arrays; numbers are
    kept as given, so a scalar ``Params`` has plain ``float`` fields.

    Attributes
    ----------
    mu : float
        Mass ratio m2 / (m1 + m2), required to lie in (0, 1).
    k : float
        Buoyancy parameter, the coefficient of the -k r1^2 potential term.
        Finite and sign-free as an input; triangular equilibria require k < 0.
    a1_oblate : float
        Oblateness coefficient A1 of the first primary, finite and >= 0.
    n_sq : float
        Derived mean-motion squared, 1 + 1.5 * a1_oblate.
    """

    mu: float
    k: float
    a1_oblate: float = 0.0
    n_sq: float = field(init=False)

    def __post_init__(self) -> None:
        fields = ("mu", "k", "a1_oblate")
        values = [getattr(self, name) for name in fields]
        if any(isinstance(v, np.ndarray) for v in values):
            for name, value in zip(fields, np.broadcast_arrays(*values)):
                object.__setattr__(self, name, np.array(value, dtype=float))
        _require((0.0 < self.mu) & (self.mu < 1.0), self.mu,
                 "mass ratio must satisfy 0 < mu < 1, got {}")
        _require(np.isfinite(self.k), self.k, "buoyancy parameter k must be finite, got {}")
        object.__setattr__(self, "n_sq", mean_motion_sq(self.a1_oblate))

    @property
    def n(self) -> float:
        """Mean motion n = sqrt(n_sq)."""
        return np.sqrt(self.n_sq) if np.ndim(self.n_sq) else math.sqrt(self.n_sq)


class PotentialHessian(NamedTuple):
    """Six independent entries of the symmetric second-derivative matrix of Omega."""

    xx: float
    yy: float
    zz: float
    xy: float
    xz: float
    yz: float

    def matrix(self) -> np.ndarray:
        """Assemble the full symmetric 3x3 matrix."""
        return np.array(
            [
                [self.xx, self.xy, self.xz],
                [self.xy, self.yy, self.yz],
                [self.xz, self.yz, self.zz],
            ]
        )


def radii(pos, mu: float) -> tuple[float, float]:
    """Distances (r1, r2) from ``pos`` to the primaries; finite wherever a float holds them."""
    x, y, z = (float(c) for c in pos)
    return math.hypot(x + mu, y, z), math.hypot(x + mu - 1.0, y, z)


# Scalar cores for the public wrappers and the integrator's right-hand side.  An
# r2^3 that rounds to 0 (within about 1e-108 of the second primary) is a
# SingularityError, and every square is a product (correctly rounded, inf on
# overflow, unlike libm's pow).  `dynamics.integrate` writes out `_grad_s` in each
# stage and maps a zero r2^3 once: make an edit here there too, and
# `tests/test_dynamics.py::_dp5_reference` must match it bit for bit.  `_omega_s` also
# takes arrays of positions, where numpy's +, -, *, / and sqrt round as floats do.
_AT_SECOND_PRIMARY = "position coincides with the second primary (r2^3 rounds to 0)"

def _omega_s(x, y, z, mu: float, k: float, n_sq: float):
    dx1 = x + mu
    r1_sq = dx1 * dx1 + y * y + z * z
    dx2 = dx1 - 1.0
    r2_sq = dx2 * dx2 + y * y + z * z
    array = isinstance(r2_sq, np.ndarray)
    r2 = np.sqrt(r2_sq) if array else math.sqrt(r2_sq)
    if (r2 == 0.0).any() if array else r2 == 0.0:
        raise SingularityError("position coincides with the second primary (r2 = 0)")
    return 0.5 * n_sq * (x * x + y * y) - k * r1_sq + mu / r2


def _grad_s(
    x: float, y: float, z: float, mu: float, k: float, n_sq: float
) -> tuple[float, float, float]:
    dx2 = x + mu - 1.0
    r2_sq = dx2 * dx2 + y * y + z * z
    r2_cu = r2_sq * math.sqrt(r2_sq)
    if r2_cu == 0.0:
        raise SingularityError(_AT_SECOND_PRIMARY)
    c3 = mu / r2_cu
    return (
        n_sq * x - 2.0 * k * (x + mu) - c3 * dx2,
        n_sq * y - 2.0 * k * y - c3 * y,
        -2.0 * k * z - c3 * z,
    )


def omega(pos, params: Params) -> float:
    """Effective potential Omega = (n^2/2)(x^2 + y^2) - k r1^2 + mu / r2.

    Parameters
    ----------
    pos : array-like of 3 floats
        Rotating-frame position (x, y, z).
    params : Params
        Model parameters.

    Raises
    ------
    SingularityError
        If ``pos`` coincides with the second primary.
    """
    x, y, z = (float(c) for c in pos)
    return _omega_s(x, y, z, params.mu, params.k, params.n_sq)


def grad_omega(pos, params: Params) -> np.ndarray:
    """Analytic gradient of the effective potential.

    Returns the vector
    (n^2 x - 2k(x+mu) - mu (x+mu-1)/r2^3,
     n^2 y - 2k y     - mu y/r2^3,
             -2k z    - mu z/r2^3).
    """
    x, y, z = (float(c) for c in pos)
    return np.array(_grad_s(x, y, z, params.mu, params.k, params.n_sq))


def hessian_omega(pos, params: Params) -> PotentialHessian:
    """Analytic Hessian of the effective potential at a general position.

    Valid off equilibrium as well; doubles as the Jacobian for Newton
    refinement of equilibria.
    """
    x, y, z = (float(c) for c in pos)
    mu, k, n_sq = params.mu, params.k, params.n_sq
    dx2 = x + mu - 1.0
    r2_sq = dx2 * dx2 + y * y + z * z
    r2_cu = r2_sq * math.sqrt(r2_sq)
    if r2_cu == 0.0:
        raise SingularityError(_AT_SECOND_PRIMARY)
    c3 = mu / r2_cu
    c5 = 3.0 * c3 / r2_sq
    return PotentialHessian(
        xx=n_sq - 2.0 * k - c3 + c5 * dx2 * dx2,
        yy=n_sq - 2.0 * k - c3 + c5 * y * y,
        zz=-2.0 * k - c3 + c5 * z * z,
        xy=c5 * dx2 * y,
        xz=c5 * dx2 * z,
        yz=c5 * y * z,
    )
