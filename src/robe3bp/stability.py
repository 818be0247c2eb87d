"""Linear stability of the triangular points via the characteristic polynomial.

Small displacements about an equilibrium obey the linearized system

    xi''  - 2n eta' = Oxx xi + Oxz zeta
    eta'' + 2n xi'  = Oyy eta
    zeta''          = Ozx xi + Ozz zeta

(the cross terms Oxy, Oyz vanish at the xz-plane equilibria).  An exponential
ansatz turns this into a 3x3 determinant condition whose expansion is the even
sextic  lambda^6 + p lambda^4 + q lambda^2 + r = 0.  Two independent routes to
(p, q, r) are provided: closed forms in (a1, b1, n^2, k), and the raw
determinant expansion of a supplied Hessian.  Their agreement is a test
obligation, not an assumption.

Note on the closed form of q: expanding the determinant with the known block
values  Oxx = n^2 - 6k a1^2/b1^2,  Oyy = n^2,  Ozz = -6k (b1^2-a1^2)/b1^2,
Oxz^2 = 36 k^2 a1^2 (b1^2-a1^2)/b1^4  gives

    p = 2 (n^2 + 3k)
    q = n^2 [ n^2 - 6k (3 a1^2 - 2 b1^2) / b1^2 ]
    r = 6 n^4 k (b1^2 - a1^2) / b1^2

and r < 0 whenever k < 0 and the points exist, so the constant term always
carries exactly one sign change and the sextic has a positive real root: the
triangular points are linearly unstable throughout the admissible region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import StructureError
from .model import Params, PotentialHessian, hessian_omega
from .equilibria import triangular_points

__all__ = [
    "CharCoeffs",
    "Classification",
    "StabilityVerdict",
    "char_coeffs",
    "char_coeffs_from_hessian",
    "solve_characteristic",
    "classify",
    "sign_change_count",
    "linearization_matrix",
    "unstable_direction",
]

DEFAULT_CLASSIFY_TOL = 1e-9
_CROSS_TERM_TOL = 1e-12


class CharCoeffs(NamedTuple):
    """Coefficients of lambda^6 + p lambda^4 + q lambda^2 + r."""

    p: float
    q: float
    r: float


class Classification(str, Enum):
    UNSTABLE = "unstable"
    MARGINALLY_STABLE = "marginally_stable"


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of the linear analysis.

    Marginal stability (all roots purely imaginary) is the strongest verdict
    linear analysis supports; no claim about nonlinear stability is made.
    """

    classification: Classification
    max_real_part: float
    positive_real_root_count: int
    sign_changes: int | None = None


def char_coeffs(params: Params) -> CharCoeffs:
    """Closed-form characteristic coefficients at the triangular points.

    Raises
    ------
    ValueError
        If the triangular points do not exist for ``params``.
    """
    pts = triangular_points(params)
    if not pts.exists:
        raise ValueError("triangular points do not exist for these parameters")
    a1, b1 = pts.a1_aux, pts.b1_aux
    n_sq, k = params.n_sq, params.k
    a1_sq, b1_sq = a1 * a1, b1 * b1
    p = 2.0 * (n_sq + 3.0 * k)
    q = n_sq * (n_sq - 6.0 * k * (3.0 * a1_sq - 2.0 * b1_sq) / b1_sq)
    r = 6.0 * n_sq * n_sq * k * (b1_sq - a1_sq) / b1_sq
    return CharCoeffs(p, q, r)


def char_coeffs_from_hessian(hess: PotentialHessian, n_sq: float) -> CharCoeffs:
    """Characteristic coefficients by direct expansion of the determinant.

    Independent oracle for :func:`char_coeffs`: nothing here knows about
    (a1, b1); the input is any Hessian with the triangular-point zero pattern
    (Oxy = Oyz = 0).  With u = lambda^2 the determinant expands to

        u^3 + [4 n^2 - (Oxx + Oyy + Ozz)] u^2
            + [Oxx Oyy + Oyy Ozz + Ozz Oxx - Oxz^2 - 4 n^2 Ozz] u
            + [-(Oyy (Oxx Ozz - Oxz^2))]

    so r equals minus the determinant of the (block-diagonal) Hessian.
    """
    if abs(hess.xy) > _CROSS_TERM_TOL or abs(hess.yz) > _CROSS_TERM_TOL:
        raise StructureError(
            "determinant reduction requires Oxy = Oyz = 0 "
            f"(got xy={hess.xy:.3e}, yz={hess.yz:.3e})"
        )
    a, b, c, e = hess.xx, hess.yy, hess.zz, hess.xz
    p = 4.0 * n_sq - (a + b + c)
    q = (a * b + b * c + c * a - e * e) - 4.0 * n_sq * c
    r = -(b * (a * c - e * e))
    return CharCoeffs(p, q, r)


def solve_characteristic(coeffs: CharCoeffs) -> np.ndarray:
    """Six roots of lambda^6 + p lambda^4 + q lambda^2 + r.

    Solves the cubic u^3 + p u^2 + q u + r = 0 (u = lambda^2) by the companion
    method, polishes each u-root with Newton on the cubic, and emits the pair
    lambda = +/- sqrt(u) per root (principal branch plus its negation, which
    keeps the set closed under negation regardless of the branch cut).
    """
    p, q, r = coeffs
    u_roots = np.roots([1.0, p, q, r]).astype(complex)

    def cubic(u):
        return ((u + p) * u + q) * u + r

    def dcubic(u):
        return (3.0 * u + 2.0 * p) * u + q

    polished = []
    for u in u_roots:
        for _ in range(3):
            d = dcubic(u)
            if d == 0:
                break
            u = u - cubic(u) / d
        polished.append(u)

    roots = np.empty(6, dtype=complex)
    for i, u in enumerate(polished):
        s = np.sqrt(u)
        roots[2 * i] = s
        roots[2 * i + 1] = -s
    return roots


def classify(
    roots: np.ndarray,
    tol: float = DEFAULT_CLASSIFY_TOL,
    sign_changes: int | None = None,
) -> StabilityVerdict:
    """Unstable iff a root's real part exceeds ``tol`` or ``sign_changes`` is odd.

    ``sign_changes`` is :func:`sign_change_count` of the coefficients the
    roots solve, when the caller has them at hand.  By Descartes' rule an odd
    count guarantees a positive real root u = lambda^2, so the verdict is
    unstable however small that root is next to ``tol``.  Also counts the real
    roots exceeding ``tol`` (imaginary part below ``tol`` in magnitude).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"classification tolerance must be positive and finite, got {tol}")
    roots = np.asarray(roots, dtype=complex)
    max_real = float(np.max(roots.real))
    n_pos_real = int(np.sum((np.abs(roots.imag) <= tol) & (roots.real > tol)))
    certified = sign_changes is not None and sign_changes % 2 == 1
    verdict = (
        Classification.UNSTABLE if certified or max_real > tol
        else Classification.MARGINALLY_STABLE
    )
    return StabilityVerdict(
        classification=verdict,
        max_real_part=max_real,
        positive_real_root_count=n_pos_real,
        sign_changes=sign_changes,
    )


def sign_change_count(coeffs: CharCoeffs) -> int:
    """Descartes sign changes over the coefficient sequence (1, p, q, r), zeros skipped."""
    changes, positive = 0, True  # the leading coefficient 1 is positive
    for c in map(float, coeffs):  # sweep grids give numpy scalars, ~10x slower to compare
        if c != 0.0 and (c > 0.0) != positive:
            changes, positive = changes + 1, not positive
    return changes


def linearization_matrix(hess: PotentialHessian, n_sq: float) -> np.ndarray:
    """First-order 6x6 system matrix for state (xi, eta, zeta, xi', eta', zeta').

    Upper-right block identity, lower-left block the Hessian, lower-right block
    the Coriolis coupling (xi'' gains +2n eta', eta'' gains -2n xi').
    """
    if n_sq <= 0.0:
        raise ValueError(f"mean-motion squared must be positive, got {n_sq}")
    n = float(np.sqrt(n_sq))
    m = np.zeros((6, 6))
    m[0:3, 3:6] = np.eye(3)
    m[3:6, 0:3] = hess.matrix()
    m[3, 4] = 2.0 * n
    m[4, 3] = -2.0 * n
    return m


def unstable_direction(params: Params, branch: int = +1) -> tuple[float, np.ndarray]:
    """Dominant growing mode at a triangular point.

    Returns the largest-real-part eigenvalue of the linearization matrix and
    its unit eigenvector (phase-rotated real).  Used to seed nonlinear
    integrations along the direction the linear analysis predicts will grow.
    Raises ``ValueError`` if the triangular points do not exist.
    """
    hess = hessian_omega(triangular_points(params).point(branch), params)
    m = linearization_matrix(hess, params.n_sq)
    eigvals, eigvecs = np.linalg.eig(m)
    i = int(np.argmax(eigvals.real))
    rate = float(eigvals[i].real)
    if rate <= DEFAULT_CLASSIFY_TOL:
        raise ValueError("no growing mode: largest eigenvalue real part is not positive")
    v = eigvecs[:, i]
    v = v / v[int(np.argmax(np.abs(v)))]  # rotate phase so the vector is real
    v = v.real
    return rate, v / np.linalg.norm(v)
