"""Nonlinear integration of the rotating-frame equations of motion.

The second-order equations are

    x'' - 2n y' = Omega_x
    y'' + 2n x' = Omega_y
    z''         = Omega_z

integrated here in first-order form with DOP853, the embedded Dormand-Prince
8(5,3) pair: 12 stages, FSAL, the eighth-order solution propagated, and adaptive
step control on Hairer's combined error estimate

    err = h e5^2 / sqrt(6 (e5^2 + 0.01 e3^2)),

where e5^2 and e3^2 sum the squares of the fifth- and third-order estimates,
each component divided by abs_tol + rel_tol max(|y|, |y_new|).  ``_STAGES``,
``_E5`` and ``_BHH`` are the one copy of the tableau and ``model._SLOPE`` the
one spelling of the gradient.  At import, ``_step_source`` writes the step
out from them on plain Python floats, one statement per component and each
weight as its float literal, and ``model._kernel`` compiles it into
``_dop853``, the step loop of ``integrate``, under a filename kept in
``linecache``, so tracebacks and ``inspect.getsource(_dop853)`` show the
generated lines.  Stage 2 reads

    x2 = x + h * (0.05260015195876773 * vx)
    y2 = y + h * (0.05260015195876773 * vy)
    z2 = z + h * (0.05260015195876773 * vz)
    vx2 = vx + h * (0.05260015195876773 * ax)
    vy2 = vy + h * (0.05260015195876773 * ay)
    vz2 = vz + h * (0.05260015195876773 * az)
    dx1 = x2 + mu
    dx2 = dx1 - 1.0
    r2_sq = dx2 * dx2 + y2 * y2 + z2 * z2
    c3 = mu / (r2_sq * sqrt(r2_sq))
    ax2 = n_sq * x2 - k2 * dx1 - c3 * dx2 + n2 * vy2
    ay2 = n_sq * y2 - k2 * y2 - c3 * y2 - n2 * vx2
    az2 = mk2 * z2 - c3 * z2

and each later stage adds one term per earlier slope of nonzero weight, a
negative weight as a subtraction (``a - w * k`` has the bits of ``a + (-w) *
k``).  The generated text is the step as it would be written by hand, so it
compiles to the same instructions and its bits cannot move with how it is
produced.  Every sum starts from its first term and has no term of weight 0,
as in Hairer's code dop853.f: k2 is weighed only into stage 3 and k3 only into
stages 4 and 5, and k2-k5 not into the solution or the error estimates.  So a
sum whose terms are all -0.0 is -0.0, where a start from 0.0 would make it
+0.0.  The solution's slope sum of each component has its own name:

    bx = 0.054293734116568765 * vx + ... + 0.04471061572777259 * vx12
    x13 = x + h * bx

and the third-order estimate is formed from it as dop853.f forms it, b less
the three bhh terms of ``_BHH``, not as an 8-term sum over b - bhh:

    e3x = (bx - 0.2440944881889764 * vx - 0.7338466882816118 * vx9 - ...) / sc

An estimate whose root ``6 (e5^2 + 0.01 e3^2)`` is 0 gives err 0; one where it
is inf or NaN gives err inf and rejects the step, also where e3^2 alone
overflows and the formula would read ``h e5^2 / inf = 0``.  C is one
``_jacobi_s`` call on the arrays of accepted states.  A slow reference step
built from ``_rhs``, ``_jacobi_s`` and the tableau holds ``integrate`` to the
same bits in the tests.  Every square is a product, as in ``model``: it
overflows to inf.  |c|, ``max`` and ``min`` are spelled as comparisons (``c if
c >= 0.0 else -c``), which give the builtins' bits for -0.0 and NaN as well, so
apart from ``sqrt`` the step calls no builtin.  The step's only exception is at the
second primary: a slope divides by r2^3 unguarded, and the
``ZeroDivisionError`` where r2^3 rounds to 0 is mapped once to the
``SingularityError`` that ``_grad_s`` raises there.

The step size follows DOP853's own rules (Hairer, Nørsett & Wanner §II.4 and
their code).  The first step is ``_first_step``, their starting rule HINIT for
order 8: one Euler probe, one extra slope, and the eighth root taken as three
``sqrt``.  Where a norm it forms or its derivative estimate is not finite, or
the probe lands on the second primary, it falls back to HINIT's 1e-6, capped at
t_end.  After each try the step is scaled by 0.9 err^(-1/8), the eighth root
again three ``sqrt`` (``0.9 / sqrt(sqrt(sqrt(err)))``, so the loop calls no
libm ``pow``), kept within [0.333, 6] (6 where err is 0, 0.333 where it is
inf), and it does not grow right after a rejection:
a step accepted after a rejected one is followed by one no longer.  An
accepted step after an earlier accepted one takes the smaller of that factor
and Gustafsson's predictive one, as in Hairer & Wanner's code RADAU5 (§IV.8):

    0.9 err^(-1/8) (h / h_acc) (err_acc / err)^(1/8),

kept within [0.333, 6], where h_acc is the last accepted step and err_acc its
err, at least 0.01.  Along the unstable mode the error grows step by step, and
the factor from the last err alone alternates accepted and rejected tries; the
trend of two errors sizes the step to it.  The factor is a product with
(err_acc / err)^(1/8), so an err whose square underflows divides nothing by 0.

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
from .model import (_AT_SECOND_PRIMARY, _SLOPE, COLLISION_R2, Params, _grad_s, _kernel,
                    _omega_s)
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


# DOP853, the Dormand-Prince 8(5,3) pair of Hairer, Nørsett & Wanner (§II.5 and
# their code DOP853), digits as there.  Each _STAGES row weighs the slopes so far
# into the next point, zeros included; the last, b, gives the eighth-order
# solution, whose slope is the next k1 (FSAL).  _E5 weighs k1..k12 into the
# fifth-order error estimate.  _BHH holds the third-order weights BHH1-3 of k1,
# k9 and k12: the third-order estimate weighs b - bhh, and is formed as
# dop853.f forms it, from the solution's slope sum less the three bhh terms.
_STAGES = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
    (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
     1.89151789931450038304281599044, -5.8012039600105847814672114227,
     3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
     2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2),
)
_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
       -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
       0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
       0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
       -0.2235530786388629525884427845e-1)
_BHH = (0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
        0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)


def _step_source() -> str:
    """The statements of one attempted step after its first slope, from ``_STAGES``,
    ``_E5``, ``_BHH`` and ``model._SLOPE``: stages 2-13, the scaled error estimates and err."""
    comps = ("x", "y", "z", "vx", "vy", "vz")
    rates = ("vx", "vy", "vz", "ax", "ay", "az")  # the slope of each component

    def weighed(row, text=""):  # "0.1 * {r} - 0.2 * {r}3" from (0.1, 0.0, -0.2)
        for m, w in enumerate(row, 1):
            if w:
                term = f"{abs(w)!r} * {{r}}{m if m > 1 else ''}"
                sign = "-" if w < 0 else "+" if text else ""
                text = f"{text} {sign} {term}" if text else sign + term
        return text

    lines = []
    for j, row in enumerate(_STAGES, 2):
        stage = weighed(row)
        for c, r in zip(comps, rates):
            if j <= len(_STAGES):
                lines.append(f"{c}{j} = {c} + h * ({stage.format(r=r)})")
            else:  # the solution's slope sum b{c}, which e3 reuses
                lines += [f"b{c} = {stage.format(r=r)}", f"{c}13 = {c} + h * b{c}"]
        lines += _SLOPE.format(j=j, cx=f" + n2 * vy{j}", cy=f" - n2 * vx{j}").splitlines()
        lines.append("")
    e5, e3 = weighed(_E5), weighed([-w for w in _BHH], "b{c}")
    for c, r in zip(comps, rates):  # |c| and max() as comparisons
        lines.append(f"m0, m1 = {c} if {c} >= 0.0 else -{c}, {c}13 if {c}13 >= 0.0 else -{c}13")
        lines.append("sc = abs_tol + rel_tol * (m1 if m1 > m0 else m0)")
        lines.append(f"e5{c} = ({e5.format(r=r)}) / sc")
        lines.append(f"e3{c} = ({e3.format(r=r, c=c)}) / sc")
    for e in ("e5", "e3"):
        lines.append(f"{e}sq = {' + '.join(f'{e}{c} * {e}{c}' for c in comps)}")
    lines.append("den = 6.0 * (e5sq + 0.01 * e3sq)")
    lines.append("err = h * e5sq / sqrt(den) if 0.0 < den < inf else 0.0 if den == 0.0 else inf")
    return "\n".join(lines)


def _first_step(s, f0, mu, k, n_sq, n, abs_tol, rel_tol, t_end):
    """The first step tried from ``s`` with slope ``f0``: DOP853's starting rule
    (HINIT, order 8), with sk = abs_tol + rel_tol |y| per component.

    h = 0.01 sqrt(dny / dnf) from dny = sum (y/sk)^2 and dnf = sum (f0/sk)^2, or
    1e-6 where either is at most 1e-10, capped at t_end.  An Euler probe to
    y + h f0 gives der2 = sqrt(sum ((f1 - f0)/sk)^2) / h and der12 = max(der2,
    sqrt(dnf)); then h1 = (0.01 / der12)^(1/8), or max(1e-6, 1e-3 h) where der12
    is at most 1e-15, and the step is min(100 h, h1, t_end).  Where dnf or dny is
    not finite, der12 is not finite (a NaN included) or the probe lands on the
    second primary, it is HINIT's 1e-6 capped at t_end: the probe is no
    trajectory point, so the rule never raises.
    """
    sqrt, inf = math.sqrt, math.inf
    fallback = 1e-6 if 1e-6 < t_end else t_end
    sks = [abs_tol + rel_tol * (y if y >= 0.0 else -y) for y in s]
    dnf = dny = 0.0
    for y, f, sk in zip(s, f0, sks):
        a, b = f / sk, y / sk
        dnf += a * a
        dny += b * b
    if not (dnf < inf and dny < inf):
        return fallback
    h = 1e-6 if dnf <= 1e-10 or dny <= 1e-10 else 0.01 * sqrt(dny / dnf)
    if h > t_end:
        h = t_end
    try:
        f1 = _rhs(*[y + h * f for y, f in zip(s, f0)], mu, k, n_sq, n)
    except SingularityError:
        return fallback
    d2 = 0.0
    for f, g, sk in zip(f0, f1, sks):
        q = (g - f) / sk
        d2 += q * q
    der2, der1 = sqrt(d2) / h, sqrt(dnf)
    der12 = der1 if der1 > der2 else der2  # max(der2, der1), which keeps a NaN der2
    if not der12 < inf:
        return fallback
    if der12 <= 1e-15:
        h1 = 1e-3 * h if 1e-3 * h > 1e-6 else 1e-6
    else:
        h1 = sqrt(sqrt(sqrt(0.01 / der12)))  # the eighth root without libm pow
    h *= 100.0
    if h1 < h:
        h = h1
    return t_end if t_end < h else h


# The step loop of `integrate`, from s with slope (vx, vy, vz, ax, ay, az) and
# first step h; each try is `_step_source()` in place of _STEP.  It appends each
# accepted step to times and states and returns (steps, rejections, status).
_LOOP = """\
def _dop853(s, ax, ay, az, h, mu, k, n_sq, n, abs_tol, rel_tol, t_end, times, states):
    x, y, z, vx, vy, vz = s
    # the factors model._SLOPE names, formed as _rhs and _grad_s form them
    n2, k2, mk2 = 2.0 * n, 2.0 * k, -2.0 * k
    collision_sq = COLLISION_R2 * COLLISION_R2
    escape_sq = ESCAPE_RADIUS * ESCAPE_RADIUS
    sqrt, inf = math.sqrt, math.inf
    t, status = 0.0, None
    steps = rejections = 0
    rejected = False  # whether the last try was rejected
    h_acc = err_acc = 1.0  # the last accepted step and its err, at least 0.01, from step 2 on
    # A float division raises exactly where its divisor is 0, and in the loop
    # only a stage's r2^3 can be: the second primary, as _grad_s reports it.
    try:
        while status is None and t < t_end:
            if h > t_end - t:
                h = t_end - t
            # a final sliver h == t_end - t is legitimate however small
            if h < 1e-14 * (t if t > 1.0 else 1.0) and h < t_end - t:
                reason = ("the error estimate stayed above the tolerance down to"
                          if steps or rejections else
                          "no step was tried: the starting step is already below")
                raise ConvergenceError(
                    f"step size underflow at t={t:.6g} (h={h:.3e}); {reason} the "
                    "smallest step, 1e-14 * max(1, t)"
                )

            # stages 2-13, the error estimates and err
            _STEP

            # 0.9 err^(-1/8), the eighth root as three sqrt without libm pow: an
            # inf err gives f = 0, and err 0, where 0.9 / 0.0 would raise, gives 6
            f = 6.0 if err == 0.0 else 0.9 / sqrt(sqrt(sqrt(err)))
            if err <= 1.0:
                t += h
                s = x, y, z, vx, vy, vz = x13, y13, z13, vx13, vy13, vz13
                ax, ay, az = ax13, ay13, az13
                steps += 1
                times.append(t)
                states.append(s)
                # the start's stop tests, with the r2^2 of the slope at s
                if r2_sq < collision_sq:
                    status = "collision"
                elif x * x + y * y + z * z > escape_sq:
                    status = "escape"
                # Gustafsson's predictive factor, the smaller before the clamp below
                # as the smaller of the two clamped; it divides by err, not err^2
                if steps > 1 and err > 0.0:
                    g = f * (h / h_acc) * sqrt(sqrt(sqrt(err_acc / err)))
                    if g < f:
                        f = g
                h_acc, err_acc = h, err if err > 0.01 else 0.01
                if rejected and f > 1.0:  # no growth on the step after a rejection
                    f = 1.0
                rejected = False
            else:
                rejections += 1
                rejected = True
            # min(6.0, max(0.333, f)) as comparisons, which keep an inf err's 0.333
            h *= 6.0 if f > 6.0 else f if f > 0.333 else 0.333
    except ZeroDivisionError:
        raise SingularityError(_AT_SECOND_PRIMARY) from None
    return steps, rejections, status
"""
_dop853 = _kernel(globals(), _LOOP, _STEP=_step_source())


def integrate(state0: PhaseState, params: Params, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the equations of motion from ``state0`` over [0, cfg.t_end].

    Every accepted step emits one sample; the trajectory therefore holds
    ``steps + 1`` rows including the initial state.  Raises
    :class:`ConvergenceError` on step-size underflow and
    :class:`SingularityError` where a stage lands where r2^3 rounds to 0.
    """
    mu, k, n_sq, n = params.mu, params.k, params.n_sq, params.n
    s = tuple(state0.pos.tolist() + state0.vel.tolist())
    x, y, z = s[:3]
    times, states = [0.0], [s]
    steps = rejections = 0
    dx2 = x + mu - 1.0
    if dx2 * dx2 + y * y + z * z < COLLISION_R2 * COLLISION_R2:
        status = "collision"
    elif x * x + y * y + z * z > ESCAPE_RADIUS * ESCAPE_RADIUS:
        status = "escape"
    else:
        f0 = _rhs(*s, mu, k, n_sq, n)
        h = _first_step(s, f0, mu, k, n_sq, n, cfg.abs_tol, cfg.rel_tol, cfg.t_end)
        steps, rejections, status = _dop853(s, *f0[3:], h, mu, k, n_sq, n, cfg.abs_tol,
                                            cfg.rel_tol, cfg.t_end, times, states)

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
    eq, mode = equilibrium_state(params), unstable_direction(params)[1]
    seed = [e + offset * m for e, m in zip(eq.pos.tolist() + eq.vel.tolist(), mode.tolist())]
    return PhaseState(pos=seed[:3], vel=seed[3:])
