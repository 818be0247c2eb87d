"""Triangular equilibrium points and the existence region.

The pair of equilibria sits in the xz-plane at x = 2k/n^2, y = 0,
z = +/- (b1^2 - a1^2)^(1/2), where a1 = 2k/n^2 + mu - 1 and
b1 = (-mu/2k)^(1/3).  They are called "triangular" by analogy with the
classical L4/L5 even though they lie out of the orbital plane here.  b1 equals
the distance r2 from either point to the second primary.  Existence needs
k < 0 and a strictly positive radicand b1^2 - a1^2; the degenerate boundary
b1^2 = a1^2 (z = 0) is reported as non-existence, as is the line k = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularityError
from .model import COLLISION_R2, Params, grad_omega, hessian_omega, radii

__all__ = [
    "TriangularPoints",
    "ExistenceReport",
    "aux_quantities",
    "triangular_points",
    "existence_report",
    "refine_equilibrium",
]


@dataclass(frozen=True)
class TriangularPoints:
    """Closed-form triangular equilibrium pair with existence diagnostics.

    Coordinate fields are ``None`` unless ``exists`` is true; the auxiliary
    quantities are ``None`` when k >= 0 (b1 undefined there).
    """

    exists: bool
    a1_aux: float | None = None
    b1_aux: float | None = None
    x_eq: float | None = None
    z_plus: float | None = None
    z_minus: float | None = None

    def point(self, branch: int = +1) -> np.ndarray:
        """Position of the +z (branch=+1) or -z (branch=-1) point."""
        if not self.exists:
            raise ValueError("triangular points do not exist for these parameters")
        z = self.z_plus if branch >= 0 else self.z_minus
        return np.array([self.x_eq, 0.0, z])


@dataclass(frozen=True)
class ExistenceReport:
    """Separate diagnostics for the three existence conditions."""

    k_negative: bool
    region_ok: bool
    radicand_ok: bool
    verdict: bool


def aux_quantities(params: Params) -> tuple[float, float]:
    """Auxiliary quantities a1 = 2k/n^2 + mu - 1 and b1 = (-mu/2k)^(1/3).

    Requires k < 0 so the cube-root argument is positive, and |k| large
    enough that -mu/2k does not overflow.
    """
    if params.k >= 0.0:
        raise ValueError(
            f"auxiliary quantities need k < 0 (cube-root argument -mu/2k > 0), got k={params.k}"
        )
    a1 = 2.0 * params.k / params.n_sq + params.mu - 1.0
    b1 = (-params.mu / (2.0 * params.k)) ** (1.0 / 3.0)
    if b1 == math.inf:
        raise ValueError(f"b1 = (-mu/2k)^(1/3) overflows for k={params.k}")
    return a1, b1


def triangular_points(params: Params) -> TriangularPoints:
    """Compute the triangular equilibrium pair; non-existence is a value, not an error."""
    if params.k >= 0.0:
        return TriangularPoints(exists=False)
    a1, b1 = aux_quantities(params)
    radicand = b1 * b1 - a1 * a1
    if radicand <= 0.0:
        return TriangularPoints(exists=False, a1_aux=a1, b1_aux=b1)
    z = np.sqrt(radicand)
    return TriangularPoints(
        exists=True,
        a1_aux=a1,
        b1_aux=b1,
        x_eq=2.0 * params.k / params.n_sq,
        z_plus=float(z),
        z_minus=float(-z),
    )


def existence_report(params: Params) -> ExistenceReport:
    """Report the three existence conditions; the verdict is ``triangular_points``'s.

    The conditions are k < 0, 2k/n^2 + mu > 0 (the admissible triangular
    region in the (mu, 2k/n^2) plane), and b1^2 - a1^2 > 0.  The radicand
    condition is the predicate of :func:`triangular_points` (false when
    k >= 0, where b1 is undefined), and it implies the region condition, so
    ``region_ok`` is a diagnostic only.  Proof: if 2k/n^2 + mu <= 0 then
    a1 = (2k/n^2 + mu) - 1 <= -1, and 2|k| >= mu n^2 >= mu (n^2 >= 1) gives
    b1 = (mu/2|k|)^(1/3) <= 1, so b1^2 <= 1 <= a1^2.  Each step survives
    rounding: a1 is rounded from the very sum that ``region_ok`` tests, and
    rounding is monotone.
    """
    exists = triangular_points(params).exists
    return ExistenceReport(
        k_negative=params.k < 0.0,
        region_ok=2.0 * params.k / params.n_sq + params.mu > 0.0,
        radicand_ok=exists,
        verdict=exists,
    )


def refine_equilibrium(
    guess,
    params: Params,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> np.ndarray:
    """Find an equilibrium numerically by damped Newton iteration on the gradient.

    Serves as an independent check on the closed-form coordinates: it uses only
    ``grad_omega`` and ``hessian_omega``, nothing from the analytic solution.
    The step is halved while the residual norm fails to decrease (up to 20
    halvings), which keeps the iteration robust near the b1^2 = a1^2 fold.

    Parameters
    ----------
    guess : array-like of 3 floats
        Starting position; must satisfy r2 >= ``COLLISION_R2``.
    tol : float
        Convergence threshold on the max-norm of the gradient.
    max_iter : int
        Iteration budget.

    Returns
    -------
    ndarray
        Position with |grad_omega|_inf < tol.  A guess that already satisfies
        the tolerance is returned unchanged.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    pos = np.asarray(guess, dtype=float).copy()

    def _check_r2(p):
        if radii(p, params.mu)[1] < COLLISION_R2:
            raise SingularityError(
                f"iterate approached the second primary (r2 < {COLLISION_R2:g})"
            )

    _check_r2(pos)
    g = grad_omega(pos, params)
    res = np.linalg.norm(g)
    if np.max(np.abs(g)) < tol:
        return pos

    for _ in range(max_iter):
        hess = hessian_omega(pos, params).matrix()
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Hessian in Newton refinement") from exc

        # damping: halve until the residual norm decreases, at most 20 times;
        # the last candidate (scale 2^-20) is taken whether or not it decreases
        scale = 1.0
        for _ in range(21):
            cand = pos + scale * step
            _check_r2(cand)
            g_cand = grad_omega(cand, params)
            if np.linalg.norm(g_cand) < res:
                break
            scale *= 0.5

        pos, g = cand, g_cand
        res = np.linalg.norm(g)
        if np.max(np.abs(g)) < tol:
            return pos

    raise ConvergenceError(
        f"Newton refinement did not reach |grad| < {tol} in {max_iter} iterations "
        f"(residual {res:.3e})"
    )
