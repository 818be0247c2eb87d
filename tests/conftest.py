"""Shared fixtures and frozen oracle values.

The FROZEN dict holds reference numbers recomputed independently before the
implementation existed: 50-digit arithmetic for the closed-form quantities,
high-precision central finite differences of the potential for the Hessian
route, and bisection on the characteristic polynomial over [0, 1] for the
positive root.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from robe3bp import Params

# canonical parameter set used throughout: mu=0.1, k=-0.01, A1=0.02
FROZEN = {
    "x_eq": -0.019417475728155340,
    "z_eq": 1.4417660155304442,
    "a1_aux": -0.91941747572815534,
    "b1_aux": 1.7099759466766970,      # = 5**(1/3)
    "b1_sq": 2.9240177382128661,
    "radicand": 2.0786892435385330,
    "omega_eq": 0.079526357389104429,
    "p": 2.0,
    "q": 0.99089882084997529,
    "r": -0.045251738174841817,
    "lambda_plus": 0.20500585205524211,
    "u_plus": 0.042027399376895817,
}


@pytest.fixture
def canonical():
    return Params(mu=0.1, k=-0.01, a1_oblate=0.02)


def acceptance_grid():
    """mu in {0.05..0.5}, k 10 log-spaced in [-0.3, -0.001], A1 in {0, 0.05, 0.2}."""
    mus = [round(0.05 * i, 2) for i in range(1, 11)]
    ks = [-float(k) for k in np.geomspace(0.3, 0.001, 10)]
    a1s = [0.0, 0.05, 0.2]
    return list(itertools.product(mus, ks, a1s))


def whole_region_cells():
    """A 40x40x4 grid over the whole admissible region, as (mu, k, A1) cells.

    mu in [0.001, 0.999], kappa = 2k/(mu n^2) in [-0.999, -0.001] and A1 in
    {0, 0.1, 1, 10}, each of the first two axes evenly spaced.  Unlike
    ``acceptance_grid`` it reaches mu > 2/3, where p or q can be <= 0.
    """
    mus = np.linspace(0.001, 0.999, 40).tolist()
    kappas = np.linspace(-0.999, -0.001, 40).tolist()
    return [(mu, 0.5 * kappa * mu * (1.0 + 1.5 * a1), a1)
            for mu, kappa, a1 in itertools.product(mus, kappas, [0.0, 0.1, 1.0, 10.0])]


def min_weight_match(a, b):
    """Worst pairwise distance under the minimal-weight perfect matching of two
    same-size complex multisets (brute force; sizes here are 6)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    return min(
        max(abs(a[i] - b[perm[i]]) for i in range(len(a)))
        for perm in itertools.permutations(range(len(b)))
    )


def fold_k(mu: float, a1: float) -> float:
    """The k < 0 nearest the fold b1^2 = a1^2 on the side where the points exist.

    Evaluates the radicand as ``triangular_points`` does.  With t = -k it is
    positive for small t and negative for large t, and bisection (geometric
    over the decades first, then arithmetic) finds the last float of t at
    which it is positive.
    """
    n_sq = 1.0 + 1.5 * a1

    def exists(t):
        aux_a, aux_b = -2.0 * t / n_sq + mu - 1.0, (mu / (2.0 * t)) ** (1.0 / 3.0)
        return aux_b * aux_b - aux_a * aux_a > 0.0

    lo, hi = 1e-300, 1e3
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if exists(mid) else (lo, mid)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if exists(mid) else (lo, mid)
    return -lo


# (mu, k, A1) cells: k < 0 down to |k| = 1e-300, k >= 0, and within 3 ulps of the fold
mus = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
a1s = st.floats(0.0, 1.0)
generic = st.tuples(mus, st.floats(-300.0, 0.5).map(lambda e: -(10.0 ** e)), a1s)
nonnegative = st.tuples(mus, st.floats(0.0, 2.0), a1s)


@st.composite
def fold(draw):
    mu, a1 = draw(st.floats(1e-3, 0.999)), draw(a1s)
    k, steps = fold_k(mu, a1), draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        k = math.nextafter(k, math.copysign(math.inf, steps))
    return mu, k, a1


any_cell = st.one_of(generic, nonnegative, fold())
