"""Triangular equilibrium points and the existence region.

The pair of equilibria sits in the xz-plane at x = 2k/n^2, y = 0,
z = +/- (b1^2 - a1^2)^(1/2), where a1 = 2k/n^2 + mu - 1 and
b1 = (-mu/2k)^(1/3).  They are called "triangular" by analogy with the
classical L4/L5 even though they lie out of the orbital plane here.  b1 equals
the distance r2 from either point to the second primary.  Existence needs
k < 0 and a strictly positive radicand b1^2 - a1^2; the degenerate boundary
b1^2 = a1^2 (z = 0) is reported as non-existence, as is the line k = 0.

:func:`triangular_points` is the one route to existence, a1, b1, x and z.
Its predicate b1^2 - a1^2 > 0 implies the region condition 2k/n^2 + mu > 0
(the admissible triangular region in the (mu, 2k/n^2) plane), which
``robe3bp locate`` reports beside it as ``region_ok``.  Proof: if
2k/n^2 + mu <= 0 then a1 = (2k/n^2 + mu) - 1 <= -1, and
2|k| >= mu n^2 >= mu (n^2 >= 1) gives b1 = (mu/2|k|)^(1/3) <= 1, so
b1^2 <= 1 <= a1^2.  Each step survives rounding: a1 is rounded from the very
sum that the region condition tests, and rounding is monotone.

A k < 0 that the floats cannot carry through these formulas is an input
error, never a cell without points: a negative subnormal k, a k so close to 0
that b1 overflows, and one so far below 0 that a1 overflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularityError
from .model import COLLISION_R2, Params, _require, grad_omega, hessian_omega, radii

__all__ = [
    "TriangularPoints",
    "triangular_points",
    "refine_equilibrium",
]


@dataclass(frozen=True)
class TriangularPoints:
    """Closed-form triangular equilibrium pair with existence diagnostics.

    Coordinate fields are ``None`` unless ``exists`` is true; the auxiliary
    quantities are ``None`` when k >= 0 (b1 undefined there).  For array
    ``Params`` every field is an array of their shape, with NaN in place of
    ``None``.
    """

    exists: bool
    a1_aux: float | None = None
    b1_aux: float | None = None
    x_eq: float | None = None
    z_plus: float | None = None

    def point(self, branch: int = +1) -> np.ndarray:
        """Position of the +z (branch=+1) or -z (branch=-1) point of a scalar cell."""
        if not self.exists:
            raise ValueError("triangular points do not exist for these parameters")
        z = self.z_plus if branch >= 0 else -self.z_plus
        return np.array([self.x_eq, 0.0, z])


# The kernels below run on a scalar cell and on arrays of cells alike:
# arithmetic and comparisons broadcast, and these two helpers do the two steps
# that do not.

def _where(cond, value):
    """``value`` where ``cond`` holds and NaN elsewhere."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, value, np.nan)
    return value if cond else math.nan


def _cube_root(values):
    """values^(1/3) by the C library's ``pow``, which Python's ``**`` calls.

    Arrays go through it element by element: numpy's vectorized power differs
    from it by an ulp on a few percent of inputs, and near the fold
    b1^2 = a1^2 cancellation magnifies that ulp in z and r.
    """
    if isinstance(values, np.ndarray):
        roots = [v ** (1.0 / 3.0) for v in values.ravel().tolist()]
        return np.array(roots).reshape(values.shape)
    return values ** (1.0 / 3.0)


def triangular_points(params: Params) -> TriangularPoints:
    """Compute the triangular equilibrium pair; non-existence is a value, not an error.

    One pass over every cell of array ``Params``; a scalar ``Params`` is the
    one-cell case and gets floats, or ``None``, back.  a1 = 2k/n^2 + mu - 1 and
    b1 = (-mu/2k)^(1/3) are NaN (scalar: ``None``) where k >= 0, since b1 is
    undefined there; x = 2k/n^2 and z = (b1^2 - a1^2)^(1/2) are NaN (``None``)
    where no point exists.  A negative subnormal k, or an overflowing b1 or a1,
    is an input error (``ValueError``).
    """
    mu, k, n_sq = params.mu, params.k, params.n_sq
    negative = k < 0.0
    with np.errstate(all="ignore"):  # as with Python floats: inf on overflow
        x = 2.0 * k / n_sq
        a1 = _where(negative, x + mu - 1.0)
        b1 = _cube_root(-mu / (2.0 * _where(negative, k)))
        _require(b1 != math.inf, k, "b1 = (-mu/2k)^(1/3) overflows for k={}")
        _require((k >= 0.0) | (k <= -sys.float_info.min), k,
                 "buoyancy parameter k={} is a negative subnormal float; k < 0 must be normal")
        _require(a1 != -math.inf, k, "a1 = 2k/n^2 + mu - 1 overflows for k={}")
        radicand = b1 * b1 - a1 * a1
        exists = radicand > 0.0
        z = np.sqrt(_where(exists, radicand))
    x = _where(exists, x)
    if isinstance(exists, np.ndarray):
        return TriangularPoints(exists, a1, b1, x, z)
    return TriangularPoints(bool(exists), *(None if v != v else float(v) for v in (a1, b1, x, z)))


_REFINE_TOL = 1e-12  # on |grad_omega|_inf
_REFINE_MAX_ITER = 50


def refine_equilibrium(guess, params: Params) -> np.ndarray:
    """Find an equilibrium numerically by damped Newton iteration on the gradient.

    Serves as an independent check on the closed-form coordinates: it uses only
    ``grad_omega`` and ``hessian_omega``, nothing from the analytic solution.
    The step is halved while the residual norm fails to decrease (up to 20
    halvings), which keeps the iteration robust near the b1^2 = a1^2 fold.

    Parameters
    ----------
    guess : array-like of 3 floats
        Starting position; must satisfy r2 >= ``COLLISION_R2``.
    params : Params
        Model parameters.

    Returns
    -------
    ndarray
        Position with |grad_omega|_inf < 1e-12 (``_REFINE_TOL``).  A guess that
        already satisfies it is returned unchanged.

    Raises
    ------
    ConvergenceError
        After 50 Newton steps (``_REFINE_MAX_ITER``), or at a singular Hessian.
    SingularityError
        If an iterate comes within ``COLLISION_R2`` of the second primary.
    """
    pos = np.asarray(guess, dtype=float).copy()

    def _check_r2(p):
        if radii(p, params.mu)[1] < COLLISION_R2:
            raise SingularityError(
                f"iterate approached the second primary (r2 < {COLLISION_R2:g})"
            )

    _check_r2(pos)
    g = grad_omega(pos, params)
    res = math.hypot(*g)  # overflow-safe, unlike np.linalg.norm
    if np.max(np.abs(g)) < _REFINE_TOL:
        return pos

    for _ in range(_REFINE_MAX_ITER):
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
            res_cand = math.hypot(*g_cand)
            if res_cand < res:
                break
            scale *= 0.5

        pos, g, res = cand, g_cand, res_cand
        if np.max(np.abs(g)) < _REFINE_TOL:
            return pos

    raise ConvergenceError(
        f"Newton refinement did not reach |grad| < {_REFINE_TOL} in {_REFINE_MAX_ITER} "
        f"iterations (residual {res:.3e})"
    )
