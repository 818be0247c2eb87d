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

import contextlib
import linecache
import math
import re
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


def _errstate(value, **kwargs):
    """``np.errstate(**kwargs)`` for numpy ``value``; Python floats give inf and NaN
    without a warning, so they need none."""
    if isinstance(value, (np.ndarray, np.generic)):
        return np.errstate(**kwargs)
    return contextlib.nullcontext()


def mean_motion_sq(a1_oblate):
    """Mean-motion squared n^2 = 1 + (3/2) A1 for a finite oblateness coefficient A1 >= 0.

    A1 must also be small enough (at most about 3.76e102) that n^6 is a
    finite float: the characteristic cubic in lambda^2 has roots of size n^2,
    so its terms there are of size n^6.  Elementwise for an array of
    coefficients.
    """
    _require((0.0 <= a1_oblate) & (a1_oblate < math.inf), a1_oblate,
             "oblateness coefficient must be finite and >= 0, got {}")
    with _errstate(a1_oblate, over="ignore"):  # as with Python floats: inf on overflow
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
    kept as given and numpy scalars become the Python numbers they hold, so
    a scalar ``Params`` has no numpy fields.

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
        array = any(isinstance(v, np.ndarray) for v in values)
        if array:
            for name, value in zip(fields, np.broadcast_arrays(*values)):
                object.__setattr__(self, name, np.array(value, dtype=float))
        else:  # a numpy scalar divides by 0 without raising, so the float kernels take floats
            for name, value in zip(fields, values):
                if isinstance(value, np.generic):
                    object.__setattr__(self, name, value.item())
        _require((0.0 < self.mu) & (self.mu < 1.0), self.mu,
                 "mass ratio must satisfy 0 < mu < 1, got {}")
        _require(np.isfinite(self.k) if array else math.isfinite(self.k), self.k,
                 "buoyancy parameter k must be finite, got {}")
        object.__setattr__(self, "n_sq", mean_motion_sq(self.a1_oblate))

    @property
    def n(self) -> float:
        """Mean motion n = sqrt(n_sq)."""
        return np.sqrt(self.n_sq) if isinstance(self.n_sq, np.ndarray) else math.sqrt(self.n_sq)


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
# overflow, unlike libm's pow).  `_omega_s` also takes arrays of positions, where
# numpy's +, -, *, / and sqrt round as floats do.
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


def _kernel(namespace: dict, source: str, **blocks):
    """The function that ``source``, the text of one def, defines in ``namespace``
    (a module's globals), with each line that is just a name of ``blocks``
    replaced by the lines of ``blocks[name]``, indented as that line.

    The text is compiled under the filename ``<robe3bp module.name>`` and kept
    in ``linecache``, so tracebacks and ``inspect.getsource`` show the
    generated lines; it needs no ``.py`` file.
    """
    lines = source.splitlines(keepends=True)
    for marker, block in blocks.items():
        [i] = [i for i, line in enumerate(lines) if line.strip() == marker]
        indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
        lines[i:i + 1] = [indent + line + "\n" if line else "\n" for line in block.splitlines()]
    name = re.match(r"def (\w+)\(", source)[1]
    filename = f"<robe3bp {namespace['__name__']}.{name}>"
    linecache.cache[filename] = (sum(map(len, lines)), None, lines, filename)
    scope = {}
    exec(compile("".join(lines), filename, "exec"), namespace, scope)
    return scope[name]


# The linear layer's kernels are written once, each as a template over a small
# vocabulary that `_spell` renders twice: on arrays of cells (`_NUMPY`) and on
# the Python floats of one cell (`_FLOATS`).  WHERE(c, a, b) selects, ABS,
# MAX, MIN, SQRT and COPYSIGN are what they say, CBRT is the C library's cube
# root pow(x, 1/3), QUOTIENT(a, b) divides the name a by the name b, which may
# be 0, and SETTLED(new, x) ends a loop once no cell changes.  Each word is
# one IEEE 754 operation, libm's pow or an exact select in either spelling,
# so a grid has the bits of its cells taken one by one.  The one exception, a
# QUOTIENT by 0, is not finite (+/-inf or NaN on arrays, NaN on floats), and
# `stability._CUBIC` reads it only through tests that any such value fails.  A
# spelling that is not a call is bracketed, so it binds as one operand where
# it stands; SETTLED stands alone, as an `if` test.  {0}, {1}, {2} are the
# arguments.
_NUMPY = {
    "WHERE": "np.where({0}, {1}, {2})", "ABS": "np.abs({0})",
    "MAX": "np.maximum({0}, {1})", "MIN": "np.minimum({0}, {1})",
    "SQRT": "np.sqrt({0})", "COPYSIGN": "np.copysign({0}, {1})", "CBRT": "_cube_root({0})",
    "QUOTIENT": "({0} / {1})", "SETTLED": "not np.count_nonzero({0} != {1})",
}
# a conditional evaluates only the branch it selects, so no quotient that
# WHERE leaves out runs, and a QUOTIENT by 0 is NaN, not ZeroDivisionError.  max
# and min differ from np.maximum and np.minimum only on a NaN or on zeros of
# both signs, and MAX and MIN in `stability._CUBIC` see neither
_FLOATS = {
    "WHERE": "({1} if {0} else {2})", "ABS": "abs({0})",
    "MAX": "max({0}, {1})", "MIN": "min({0}, {1})",
    "SQRT": "math.sqrt({0})", "COPYSIGN": "math.copysign({0}, {1})",
    "CBRT": "math.pow({0}, 1.0 / 3.0)",
    "QUOTIENT": "({0} / {1} if {1} else math.nan)", "SETTLED": "{0} == {1}",
}


def _spell(template: str, words: dict[str, str]) -> str:
    """``template`` with each call of a word of ``words``, its arguments spelled
    first, written out in its spelling; the lines stay the template's lines."""
    call = re.compile(r"\b(%s)\(" % "|".join(words))
    out = []
    while match := call.search(template):
        depth, args, start = 0, [], match.end()
        for end in range(start, len(template)):  # to the call's closing bracket
            ch = template[end]
            if ch == "(":
                depth += 1
            elif ch == ")" and depth:
                depth -= 1
            elif ch in ",)" and not depth:
                args.append(_spell(template[start:end].strip(), words))
                start = end + 1
                if ch == ")":
                    break
        out.append(template[:match.start()] + words[match[1]].format(*args))
        template = template[end + 1:]
    return "".join(out) + template


def _cube_root(values):
    """CBRT on numpy: libm ``pow(v, 1/3)`` element by element, as ``math.pow`` on
    floats.  numpy's vectorized power differs by an ulp on a few percent of
    inputs, which near the fold b1^2 = a1^2 cancellation magnifies in z and r."""
    roots = [v ** (1.0 / 3.0) for v in values.ravel().tolist()]
    return np.array(roots).reshape(values.shape)


# The slope of stage {j} at (x{j}, y{j}, z{j}): the gradient of Omega, plus the
# Coriolis terms {cx} and {cy} in the step of `dynamics._dop853`.  This is the one
# spelling of the gradient: the kernel `_grad_s` below and every slope of the
# step are compiled from it.  2.0 * k * (x + mu) is k2 * dx1 with k2 = 2.0 * k,
# bit for bit.
_SLOPE = """\
dx1 = x{j} + mu
dx2 = dx1 - 1.0
r2_sq = dx2 * dx2 + y{j} * y{j} + z{j} * z{j}
c3 = mu / (r2_sq * sqrt(r2_sq))
ax{j} = n_sq * x{j} - k2 * dx1 - c3 * dx2{cx}
ay{j} = n_sq * y{j} - k2 * y{j} - c3 * y{j}{cy}
az{j} = mk2 * z{j} - c3 * z{j}
"""

# the gradient at (x, y, z): _SLOPE with j = "" and no Coriolis terms
_grad_s = _kernel(globals(), """\
def _grad_s(x, y, z, mu, k, n_sq):
    k2, mk2, sqrt = 2.0 * k, -2.0 * k, math.sqrt
    try:
        _SLOPE
    except ZeroDivisionError:  # r2^3 rounds to 0
        raise SingularityError(_AT_SECOND_PRIMARY) from None
    return ax, ay, az
""", _SLOPE=_SLOPE.format(j="", cx="", cy=""))


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
