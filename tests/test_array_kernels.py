"""The linear layer on a grid equals the same layer cell by cell.

``triangular_points``, ``char_coeffs``, ``solve_characteristic``,
``sign_change_count`` and ``classify`` take array ``Params`` and evaluate
every cell in one pass; a scalar ``Params`` is the one-cell case.  These
properties draw grids that reach |k| = 1e-300, both sides of the fold
b1^2 = a1^2 and k >= 0, and require the array call to reproduce the scalar
call of each cell to the bit: existence, coordinates, coefficients, sign
changes, verdict, roots and the largest real part.
"""

import math

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from robe3bp import (
    Params,
    char_coeffs,
    classify,
    triangular_points,
)
from conftest import any_cell, fold_k, generic


def _bits(value) -> str:
    return "none" if value is None or value != value else format(float(value), ".17g")


cells = st.lists(any_cell, min_size=1, max_size=24)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(cells)
def test_array_pass_equals_scalar_calls(grid):
    mu, k, a1 = (np.array(column) for column in zip(*grid))
    pts = triangular_points(Params(mu=mu, k=k, a1_oblate=a1))
    assert pts.exists.shape == mu.shape and pts.exists.dtype == bool
    scalar = [Params(mu=m, k=kk, a1_oblate=a) for m, kk, a in grid]
    for i, params in enumerate(scalar):
        one = triangular_points(params)
        assert type(one.exists) is bool and one.exists == pts.exists[i]
        # the cell as 0-d arrays, shape (), takes the numpy spelling
        zero_d = triangular_points(Params(*map(np.array, grid[i])))
        assert zero_d.exists.shape == () and zero_d.exists == one.exists
        for field in ("a1_aux", "b1_aux", "x_eq", "z_plus"):
            assert _bits(getattr(one, field)) == _bits(getattr(pts, field)[i]), field
            assert _bits(getattr(one, field)) == _bits(getattr(zero_d, field)), field

    ok = pts.exists
    if not ok.any():
        return
    coeffs = char_coeffs(Params(mu=mu[ok], k=k[ok], a1_oblate=a1[ok]))
    verdict = classify(coeffs)
    roots, changes = verdict.roots, verdict.sign_changes
    assert roots.shape == (int(ok.sum()), 6)
    for j, params in enumerate(p for p, e in zip(scalar, ok) if e):
        one = char_coeffs(params)
        assert [_bits(c) for c in one] == [_bits(c[j]) for c in coeffs]
        one_verdict = classify(one)
        one_roots, one_changes = one_verdict.roots, one_verdict.sign_changes
        assert one_roots.shape == (6,) and one_roots.tobytes() == roots[j].tobytes()
        assert type(one_changes) is int and one_changes == changes[j]
        assert one_verdict.classification.value == verdict.classification[j]
        assert _bits(one_verdict.max_real_part) == _bits(verdict.max_real_part[j])
        assert one_verdict.positive_real_root_count == verdict.positive_real_root_count[j]


@hypothesis.settings(max_examples=50, deadline=None)
@hypothesis.given(st.lists(generic, min_size=1, max_size=8), st.integers(0, 8))
def test_an_overflowing_cell_fails_the_whole_grid(grid, at):
    # b1 = (-mu/2k)^(1/3) overflows for k = -1e-320, a negative subnormal k:
    # the cell is an input error, never a cell quietly marked as having no point
    grid.insert(min(at, len(grid)), (0.1, -1e-320, 0.0))
    mu, k, a1 = (np.array(column) for column in zip(*grid))
    with pytest.raises(ValueError, match="k=-1e-320 is a negative subnormal"):
        triangular_points(Params(mu=mu, k=k, a1_oblate=a1))
    with pytest.raises(ValueError, match="k=-1e-320 is a negative subnormal"):
        triangular_points(Params(mu=0.1, k=-1e-320))


def test_fold_cells_lie_on_both_sides():
    # the fold strategy reaches cells with and without points
    mu, a1 = 0.3, 0.05
    k = fold_k(mu, a1)
    inside = triangular_points(Params(mu=mu, k=k, a1_oblate=a1))
    outside = triangular_points(Params(mu=mu, k=math.nextafter(k, -math.inf), a1_oblate=a1))
    assert inside.exists and not outside.exists
    assert inside.z_plus < 1e-6
