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

The roots come from the cubic in u = lambda^2, solved in real arithmetic
(:func:`solve_characteristic`): bracketed Newton on one real root, deflation
to a quadratic, and the quadratic by the cancellation-free formula.  The
solver is one template, ``_CUBIC``, spelled at import into two kernels:
``_cubic_numpy`` for arrays of cells, ``_cubic_floats`` for one cell.  The
root path makes no LAPACK or BLAS call and no complex product or quotient,
which numpy's vector loops may fuse into one rounding, so the roots' bits
follow neither numpy's SIMD dispatch level nor the BLAS kernel, and a grid has
the bits of its cells taken one by one.  Complex sqrt is the C library's
``csqrt``, which IEEE 754 does not require to round correctly, so another
libm may round the pair's square roots differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import StructureError
from .model import (_FLOATS, _NUMPY, Params, PotentialHessian, _errstate, _kernel, _require,
                    _spell, hessian_omega)
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
    return _closed_form(triangular_points(params), params)


def _closed_form(pts, params: Params) -> CharCoeffs:
    """:func:`char_coeffs` from ``pts = triangular_points(params)``, already found."""
    _require(pts.exists, params.k, "triangular points do not exist for these parameters")
    a1, b1 = pts.a1_aux, pts.b1_aux
    n_sq, k = params.n_sq, params.k
    with _errstate(k, over="ignore", invalid="ignore"):  # as Python floats do
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


def _two_product(a, b):
    """``(p, e)`` with ``p + e == a * b`` exactly (Dekker 1971, without fma)."""
    p = a * b
    # Veltkamp's split by 2^27 + 1: each factor as hi + lo, halves of 26 bits
    c, d = 134217729.0 * a, 134217729.0 * b
    a_hi, b_hi = c - (c - a), d - (d - b)
    a_lo, b_lo = a - a_hi, b - b_hi
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _two_sum(a, b):
    """``(s, e)`` with ``s + e == a + b`` exactly (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _cubic_compensated(x, p, q, r):
    """x^3 + p x^2 + q x + r by compensated Horner: as if in twice the precision
    (Graillat, Langlois & Louvet 2005)."""
    s, err = _two_sum(x, p)
    for c in (q, r):
        s, e_mul = _two_product(s, x)
        s, e_add = _two_sum(s, c)
        err = err * x + (e_mul + e_add)
    return s + err


# The cubic u^3 + p u^2 + q u + r, solved once over `model`'s kernel
# vocabulary and spelled twice, into the kernels `_cubic_numpy` and
# `_cubic_floats` of `solve_characteristic`.  They return the real root u1 and
# the real and imaginary parts of the other two, (u1, re2, im2, re3, im3).
#
# The real root u1: with s = -1 where r > 0 (and 1 elsewhere), bracketed Newton
# searches for a root v = s u > 0 of g(v) = v^3 + s p v^2 + q v - |r|, which is
# negative at 0.  The bracket is (0, hi).  Where q > 0 and s p >= 0, hi is
# |r|/q, the root of the linear part, where g = v^2 (v + s p) >= 0; elsewhere,
# or where it is less, hi is Cauchy's bound 1 + max(|p|, |q|, |r|).  Newton
# starts at hi; a step that leaves the bracket, or divides by a zero slope, is
# replaced by bisection.  r = 0 gives u = 0.  The plain Horner sum leaves the
# last iterate within its rounding noise of the root.  One Newton step on the
# compensated sum, kept where it moves by less than 2^-40 relative (so not at
# a double root), brings a simple root to about half an ulp: a root that the
# coefficients hold exactly is found exactly.
#
# The other two roots solve the deflated quadratic u^2 + b u + c with
# c = -r/u1.  b is p + u1 or (c - q)/u1, whichever carries less rounding, so a
# pair close to 0 beside a larger u1 keeps its digits.  On the p + u1 side the
# discriminant is expanded as (p^2 - 4q) - u1 (2p + 3u1), with p^2 exact: at
# tiny |k|, b^2 and 4c agree to the last bit, and the digits of the pair lie in
# u1.  A real pair takes the larger root from the cancellation-free formula and
# the other as c over it; a complex pair is -b/2 +/- i sqrt(-d)/2.  u1 = 0 only
# where r = 0, where f = u (u^2 + p u + q); big = 0 only for a double root at 0.
_CUBIC = """\
s = WHERE(r > 0.0, -1.0, 1.0)
ps, rs = s * p, -ABS(r)
cauchy = 1.0 + MAX(MAX(ABS(p), ABS(q)), -rs)
linear = WHERE((q > 0.0) & (ps >= 0.0), MIN(-rs / q, cauchy), cauchy)
hi = WHERE(r == 0.0, 0.0, linear)
lo = 0.0 * hi
x = hi
while True:
    g = ((x + ps) * x + q) * x + rs
    lo = WHERE(g <= 0.0, x, lo)
    hi = WHERE(g >= 0.0, x, hi)
    slope = (3.0 * x + 2.0 * ps) * x + q
    step = x - QUOTIENT(g, slope)
    new = WHERE(((lo < step) & (step < hi)) | (step == x), step, lo + 0.5 * (hi - lo))
    if SETTLED(new, x):
        break
    x = new
g = _cubic_compensated(x, ps, q, rs)
slope = (3.0 * x + 2.0 * ps) * x + q
step = x - QUOTIENT(g, slope)
u1 = s * WHERE(ABS(step - x) <= 2.0 ** -40 * ABS(x), step, x)
c = WHERE(u1 != 0.0, -r / u1, q)
near = (ABS(p) + ABS(u1)) * ABS(u1) <= ABS(c) + ABS(q)
b = WHERE(near, p + u1, (c - q) / u1)
lead = WHERE(near, p, b)
lead, lead_lo = _two_product(lead, lead)
d = (((lead - 4.0 * WHERE(near, q, c)) + lead_lo)
     - WHERE(near, u1 * (2.0 * p + 3.0 * u1), 0.0))
half = 0.5 * SQRT(ABS(d))
real = d >= 0.0
big = -0.5 * b - COPYSIGN(half, b)
re2 = WHERE(real, big, -0.5 * b)
im2 = WHERE(real, 0.0, half)
re3 = WHERE(real, WHERE(big != 0.0, c / big, 0.0), -0.5 * b)
im3 = WHERE(real, 0.0, -half)
"""
_CUBIC_DEF = "def _cubic_{}(p, q, r):\n    _CUBIC\n    return u1, re2, im2, re3, im3\n"
_cubic_numpy, _cubic_floats = (
    _kernel(globals(), _CUBIC_DEF.format(name), _CUBIC=_spell(_CUBIC, words))
    for name, words in (("numpy", _NUMPY), ("floats", _FLOATS)))


def solve_characteristic(coeffs: CharCoeffs) -> np.ndarray:
    """Six roots of lambda^6 + p lambda^4 + q lambda^2 + r.

    Solves the cubic u^3 + p u^2 + q u + r = 0 (u = lambda^2) in real
    arithmetic: bracketed Newton on one real root, deflation to a quadratic,
    and the quadratic by the cancellation-free formula.  Each u gives the pair
    lambda = +/- sqrt(u) (principal branch plus its negation, which keeps the
    set closed under negation regardless of the branch cut).  The arithmetic
    is real +, -, *, / and sqrt and complex sqrt (besides exact steps:
    comparisons, selects and signs), which round the same whichever SIMD
    loops numpy picks, so the roots' bits depend on neither the SIMD level
    nor the BLAS kernel (see the module docstring on libm).

    Coefficients of shape S give roots of shape S + (6,).  Scalars (numbers,
    numpy scalars, 0-d arrays) give six, from the cubic on Python floats;
    arrays are solved in one numpy pass.  Both are spelled from one source
    and give the same bits, and one ``np.sqrt`` takes the u to lambda.

    Raises
    ------
    ValueError
        If a coefficient is not finite.
    """
    if any(np.ndim(c) for c in coeffs if not isinstance(c, float)):
        p, q, r = (np.asarray(c, dtype=float) for c in coeffs)
        if not (np.isfinite(p) & np.isfinite(q) & np.isfinite(r)).all():
            raise ValueError("characteristic coefficients must be finite")
        with np.errstate(all="ignore"):  # a quotient that WHERE leaves out may be inf or NaN
            u1, re2, im2, re3, im3 = _cubic_numpy(p, q, r)
        u = np.zeros(np.shape(u1) + (3,), dtype=complex)
        u.real[..., 0] = u1
        u.real[..., 1], u.imag[..., 1] = re2, im2
        u.real[..., 2], u.imag[..., 2] = re3, im3
        s = np.sqrt(u)
        roots = np.empty(s.shape[:-1] + (6,), dtype=complex)
        roots[..., 0::2], roots[..., 1::2] = s, -s
        return roots
    p, q, r = map(float, coeffs)
    if not (math.isfinite(p) and math.isfinite(q) and math.isfinite(r)):
        raise ValueError("characteristic coefficients must be finite")
    u1, re2, im2, re3, im3 = _cubic_floats(p, q, r)
    a, b, c = np.sqrt(np.array((complex(u1, 0.0), complex(re2, im2), complex(re3, im3)))).tolist()
    return np.array([a, -a, b, -b, c, -c])


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
    - With p, q, r >= 0 a real u is <= 0, and :func:`solve_characteristic`
      gives a real root an imaginary part of exactly 0, so its +/- sqrt(u)
      have a real part of exactly 0.  A positive real part then means a
      complex u.

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
    n2 = 2.0 * math.sqrt(n_sq)
    return np.array([[0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                     [hess.xx, hess.xy, hess.xz, 0.0, n2, 0.0],
                     [hess.xy, hess.yy, hess.yz, -n2, 0.0, 0.0],
                     [hess.xz, hess.yz, hess.zz, 0.0, 0.0, 0.0]])


def unstable_direction(params: Params) -> tuple[float, np.ndarray]:
    """Dominant growing mode at the +z triangular point.

    Returns the root lambda of :func:`solve_characteristic` with the largest
    real part, as a float (:func:`classify`'s ``max_real_part``, bit for
    bit), and its mode: the unit real part of (xi, lambda xi), phase-rotated
    by its largest component.  xi, the null vector of P = H + lambda C -
    lambda^2 I, is the cross product of P's last two rows, read from
    :func:`linearization_matrix`, in Python scalars: no bit of the rate or
    the mode follows numpy's SIMD level or the BLAS kernel.  Seeds nonlinear
    integrations along the direction the linear analysis predicts will grow.
    Raises ``ValueError`` if the triangular points do not exist.
    """
    pts = triangular_points(params)
    lam = max(solve_characteristic(_closed_form(pts, params)).tolist(), key=lambda z: z.real)
    hess = hessian_omega((pts.x_eq, 0.0, pts.z_plus), params)  # the +z point
    lower = linearization_matrix(hess, params.n_sq)[4:].tolist()
    y, z = ([row[j] + lam * row[3 + j] - (lam * lam if j == i else 0.0) for j in range(3)]
            for i, row in enumerate(lower, 1))
    xi = (y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2], y[0] * z[1] - y[1] * z[0])
    v = [*xi, *(lam * c for c in xi)]
    top = max(v, key=abs)  # the first of the largest, as np.argmax
    v = [(c / top).real for c in v]
    norm = math.hypot(*v)
    return lam.real, np.array([c / norm for c in v])
