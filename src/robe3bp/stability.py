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

and r < 0 whenever k < 0 and the points exist.  That alone forces a positive
real u = lambda^2 (the cubic in u is r < 0 at u = 0 and grows without bound),
so the sextic has a positive real root: the triangular points are linearly
unstable throughout the admissible region.  p and q may take either sign
(p <= 0 needs k <= -n^2/3, admissible only for mu > 2/3), so the Descartes
count of (1, p, q, r), odd as the sequence runs from + to -, is 1 or 3.
:func:`classify` decides from the coefficients' signs first, so that
certificate, not a tolerance on the computed roots, gives the verdict there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import StructureError
from .model import Params, PotentialHessian, _require, hessian_omega
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
    """Outcome of the linear analysis, with the roots and sign count it rests on.

    Marginal stability (all roots purely imaginary) is the strongest verdict
    linear analysis supports; no claim about nonlinear stability is made.
    """

    classification: Classification
    max_real_part: float
    positive_real_root_count: int
    sign_changes: int
    roots: np.ndarray = field(compare=False)  # the evidence, not the verdict


def char_coeffs(params: Params) -> CharCoeffs:
    """Closed-form characteristic coefficients at the triangular points.

    Floats for scalar ``Params``, arrays of their shape otherwise.

    Raises
    ------
    ValueError
        If the triangular points do not exist for ``params`` (for any cell).
    """
    pts = triangular_points(params)
    _require(pts.exists, params.k, "triangular points do not exist for these parameters")
    a1, b1 = pts.a1_aux, pts.b1_aux
    n_sq, k = params.n_sq, params.k
    with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
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
    method (Edelman & Murakami 1995), polishes each u-root with three Newton
    steps on the cubic (a root stops at a zero derivative), and emits the pair
    lambda = +/- sqrt(u) per root (principal branch plus its negation, which
    keeps the set closed under negation regardless of the branch cut).

    Coefficients of shape S give roots of shape S + (6,): scalars give six,
    arrays one stacked eigenvalue call for every cell.
    """
    p, q, r = (np.asarray(c, dtype=float) for c in coeffs)
    companion = np.zeros(p.shape + (3, 3))
    companion[..., 0, 0], companion[..., 0, 1], companion[..., 0, 2] = -p, -q, -r
    companion[..., 1, 0] = companion[..., 2, 1] = 1.0
    # transposed, the three roots of a cell lie on the first axis and the
    # coefficients broadcast over them; complex coefficients give the same
    # sums as real ones, without numpy's slower mixed-type loops
    u = np.linalg.eigvals(companion).T.astype(complex)
    p, q, r = (c.T.astype(complex) for c in (p, q, r))
    p2 = 2.0 * p
    # a root where d == 0 stays, and so its d stays 0; the unused quotient divides by 0
    with np.errstate(all="ignore"):
        for _ in range(3):
            d = (3.0 * u + p2) * u + q
            u = np.where(d != 0, u - (((u + p) * u + q) * u + r) / d, u)
    s = np.sqrt(u).T
    roots = np.empty(s.shape[:-1] + (6,), dtype=complex)
    roots[..., 0::2], roots[..., 1::2] = s, -s
    return roots


def classify(coeffs: CharCoeffs) -> StabilityVerdict:
    """Linear stability of lambda^6 + p lambda^4 + q lambda^2 + r from its coefficients.

    Unstable iff a coefficient is negative (a nonzero :func:`sign_change_count`)
    or a root of :func:`solve_characteristic` has a positive real part; no
    tolerance enters.

    - A negative coefficient is exact: were the three roots u = lambda^2 all
      real and <= 0, then p, q, r would be the elementary symmetric functions
      of the -u >= 0, all >= 0.  So some u is positive or non-real, and one of
      its square roots has a positive real part, however small.  This holds
      for every sign count, even ones; ``r < 0`` is the case of the
      triangular points.
    - With p, q, r >= 0 a real u is <= 0, and a real root from the eigenvalue
      solve has an imaginary part of exactly 0, so its +/- sqrt(u) have a real
      part of exactly 0.  A positive real part then means a complex u.

    ``positive_real_root_count`` counts the roots with imaginary part exactly 0
    and real part > 0.  Coefficients of shape S (nonempty) give a verdict
    whose fields are arrays of shape S, ``roots`` of shape S + (6,);
    ``classification`` then holds the ``Classification`` values as strings.
    """
    roots = solve_characteristic(coeffs)
    changes = sign_change_count(coeffs)
    max_real = roots.real.max(axis=-1)
    n_pos_real = np.sum((roots.imag == 0.0) & (roots.real > 0.0), axis=-1)
    unstable = (changes > 0) | (max_real > 0.0)
    if roots.ndim > 1:
        labels = np.where(unstable, Classification.UNSTABLE.value,
                          Classification.MARGINALLY_STABLE.value)
        return StabilityVerdict(labels, max_real, n_pos_real, changes, roots)
    verdict = Classification.UNSTABLE if unstable else Classification.MARGINALLY_STABLE
    return StabilityVerdict(verdict, float(max_real), int(n_pos_real), changes, roots)


def sign_change_count(coeffs: CharCoeffs) -> int:
    """Descartes sign changes over the coefficient sequence (1, p, q, r), zeros skipped.

    An ``int`` for scalar coefficients, an integer array of their shape otherwise.
    """
    changes, positive = 0, True  # the leading coefficient 1 is positive
    for c in coeffs:
        flip = (c != 0.0) & ((c > 0.0) != positive)
        changes, positive = changes + flip, positive ^ flip
    return changes if getattr(changes, "ndim", 0) else int(changes)


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


def unstable_direction(params: Params) -> tuple[float, np.ndarray]:
    """Dominant growing mode at the +z triangular point.

    Returns the largest-real-part eigenvalue of the linearization matrix and
    its unit eigenvector (phase-rotated real).  Used to seed nonlinear
    integrations along the direction the linear analysis predicts will grow.
    The rate is not a verdict, which is :func:`classify`'s: below about
    |k| = 1e-19 the 6x6 eigen-solve cannot resolve lambda+, and the rate
    is rounding noise.
    Raises ``ValueError`` if the triangular points do not exist.
    """
    hess = hessian_omega(triangular_points(params).point(), params)
    m = linearization_matrix(hess, params.n_sq)
    eigvals, eigvecs = np.linalg.eig(m)
    i = int(np.argmax(eigvals.real))
    rate = float(eigvals[i].real)
    v = eigvecs[:, i]
    v = v / v[int(np.argmax(np.abs(v)))]  # rotate phase so the vector is real
    v = v.real
    return rate, v / np.linalg.norm(v)
