import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsrpf.errors import DomainError, StructuralError
from nsrpf.spaces import (Field, MeasureVec, PointSpace, holder_seminorm,
                          normalize, pair, total_mass, unit_field)


@pytest.fixture
def two_points():
    return PointSpace.finite([[0.0, 0.5], [0.5, 0.0]])


def test_circle_grid_distance():
    sp = PointSpace.circle_grid(8)
    assert sp.distance(0, 1) == pytest.approx(1 / 8)
    assert sp.distance(0, 7) == pytest.approx(1 / 8)   # wraps around
    assert sp.distance(0, 4) == pytest.approx(0.5)
    assert sp.distance(3, 3) == 0.0


def test_pair_hand_values(two_points):
    f = Field(two_points, [1.0, 2.0])
    sigma = MeasureVec(two_points, [0.5, 0.5])
    assert pair(f, sigma) == pytest.approx(1.5)
    one = unit_field(two_points)
    assert pair(one, normalize(sigma)) == pytest.approx(1.0)
    zero = Field(two_points, [0.0, 0.0])
    assert pair(zero, sigma) == 0.0


def test_pair_space_mismatch(two_points):
    other = PointSpace.finite([[0.0, 0.5], [0.5, 0.0]])
    with pytest.raises(StructuralError):
        pair(Field(two_points, [1.0, 1.0]), MeasureVec(other, [1.0, 1.0]))


@pytest.mark.parametrize("n", range(1, 6))
def test_simplex_equals_the_checked_finite_table(n):
    got, want = PointSpace.simplex(n), PointSpace.finite(np.ones((n, n)) - np.eye(n))
    assert (got.kind, got.n_points) == (want.kind, want.n_points)
    assert got.dist_table.dtype == want.dist_table.dtype
    assert got.dist_table.tobytes() == want.dist_table.tobytes()
    assert not got.dist_table.flags.writeable


def test_normalize_examples():
    sp = PointSpace.finite(np.ones((3, 3)) - np.eye(3))
    m = normalize(MeasureVec(sp, [1.0, 0.0, 3.0]))
    assert np.allclose(m.weights, [0.25, 0.0, 0.75])
    sp2 = PointSpace.finite([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(normalize(MeasureVec(sp2, [2.0, 2.0])).weights, [0.5, 0.5])
    with pytest.raises(DomainError):
        normalize(MeasureVec(sp2, [0.0, 0.0]))
    assert total_mass(MeasureVec(sp2, [2.0, 2.0])) == pytest.approx(4.0)


def test_holder_seminorm_examples(two_points):
    assert holder_seminorm(Field(two_points, [0.0, 1.0]), 1.0) == pytest.approx(2.0)
    assert holder_seminorm(Field(two_points, [3.0, 3.0]), 1.0) == 0.0
    # identity function against arc distance: slope 1 away from the fold
    sp = PointSpace.circle_grid(64)
    f = Field(sp, sp.positions)
    # brute-force pair scan as the oracle
    best = 0.0
    for i in range(64):
        for j in range(64):
            if i != j:
                d = sp.distance(i, j)
                best = max(best, abs(sp.positions[i] - sp.positions[j]) / d)
    assert holder_seminorm(f, 1.0) == pytest.approx(best)
    with pytest.raises(DomainError):
        holder_seminorm(Field(PointSpace.finite([[0.0]]), [1.0]), 1.0)


def test_measure_validation(two_points):
    with pytest.raises(DomainError):
        MeasureVec(two_points, [1.0, -0.1])
    with pytest.raises(DomainError):
        Field(two_points, [np.inf, 0.0])
    with pytest.raises(StructuralError):
        Field(two_points, [1.0, 2.0, 3.0])


@settings(max_examples=60, deadline=None)
@given(vals=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
       wts=st.lists(st.floats(0.0, 1e3), min_size=4, max_size=4),
       a=st.floats(-10, 10), b=st.floats(-10, 10))
def test_pair_bilinear(vals, wts, a, b):
    sp = PointSpace.finite(np.ones((4, 4)) - np.eye(4))
    f = Field(sp, vals)
    g = Field(sp, vals[::-1])
    sigma = MeasureVec(sp, wts)
    lhs = pair(a * f + b * g, sigma)
    rhs = a * pair(f, sigma) + b * pair(g, sigma)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(wts=st.lists(st.floats(1e-6, 1e6), min_size=3, max_size=3))
def test_normalize_idempotent(wts):
    sp = PointSpace.finite(np.ones((3, 3)) - np.eye(3))
    m1 = normalize(MeasureVec(sp, wts))
    m2 = normalize(m1)
    assert np.max(np.abs(m1.weights - m2.weights)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(vals=st.lists(st.floats(-5, 5), min_size=6, max_size=6),
       c=st.floats(-20, 20))
def test_holder_shift_invariance(vals, c):
    sp = PointSpace.circle_grid(6)
    f = Field(sp, vals)
    assert holder_seminorm(f + c, 1.0) == pytest.approx(
        holder_seminorm(f, 1.0), rel=1e-12, abs=1e-9)


def test_finite_rejects_a_table_that_breaks_the_triangle_inequality():
    # d(0, 2) = 1 > d(0, 1) + d(1, 2) = 0.2: the cone dictionary's distance
    # bumps would leave Lambda(Q) on such a table
    with pytest.raises(StructuralError, match="triangle inequality"):
        PointSpace.finite([[0.0, 0.1, 1.0], [0.1, 0.0, 0.1], [1.0, 0.1, 0.0]])
