import itertools
import math

import numpy as np
import pytest

import nsrpf as nr
from nsrpf.cones import (MEMBERSHIP_SLACK, ConeParams, PairSet, _cone_violation,
                         _gap_log_holder_raw, _theta_from_gap, birkhoff_rate,
                         hilbert_gap_log_holder, hilbert_gap_positive, in_log_holder_cone,
                         in_positive_cone, norm_theta_bound, pair_set,
                         family_rows, sample_log_holder_field, theta_log_holder,
                         theta_positive)
from nsrpf.errors import DomainError
from nsrpf.spaces import Field, MeasureVec, PointSpace, pair, unit_field

RNG = np.random.default_rng(42)


@pytest.fixture(scope="module")
def circle16():
    return PointSpace.circle_grid(16)


@pytest.fixture(scope="module")
def params16():
    return ConeParams(Q=2.0, delta=0.3, beta=1.0)


def two_point_space():
    return PointSpace.finite([[0.0, 1.0], [1.0, 0.0]])


def test_positive_cone_membership():
    sp = two_point_space()
    assert in_positive_cone(unit_field(sp))
    assert not in_positive_cone(Field(sp, [0.0, 0.0]))
    assert not in_positive_cone(Field(sp, [1.0, -0.1]))


def _all_pairs(space, p):
    """Every ordered pair (i, j), i != j, within delta and its weight
    exp(Q d^beta), scanned from ``space.distance`` alone: the oracle side of
    every pair-set check, sharing no code with ``pair_set``."""
    n = space.n_points
    i, j = (a.ravel() for a in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    d = space.distance(i, j)
    keep = (i != j) & (d <= p.delta)
    i, j, d = i[keep], j[keep], d[keep]
    return i, j, d, np.exp(p.Q * d ** p.beta)


def _pair_scan_inside(f, p):
    """Brute-force oracle for cone membership: check every pair directly."""
    i, j, _, E = _all_pairs(f.space, p)
    return bool(np.all(f.values[j] <= E * f.values[i] * (1 + 1e-12)))


def test_log_holder_membership(circle16, params16):
    assert in_log_holder_cone(unit_field(circle16) * 3.0, params16)
    # exp(Q d(x, 0)) saturates the defining inequality along adjacent pairs
    # in one direction; the pair scan is the oracle
    d0 = circle16.circle_distance_points(circle16.positions, 0.0)
    f = Field(circle16, np.exp(params16.Q * d0))
    assert _pair_scan_inside(f, params16)
    assert in_log_holder_cone(f, params16)
    # exp(Q x) with raw coordinates jumps at the seam and must be rejected,
    # in agreement with the scan
    g = Field(circle16, np.exp(params16.Q * circle16.positions))
    assert not _pair_scan_inside(g, params16)
    assert not in_log_holder_cone(g, params16)
    # an isolated zero with a positive neighbour within delta is excluded
    h = np.ones(16)
    h[3] = 0.0
    assert not in_log_holder_cone(Field(circle16, h), params16)


def test_hilbert_gap_positive_hand_values():
    sp = two_point_space()
    f = Field(sp, [1.0, 1.0])
    assert hilbert_gap_positive(f, Field(sp, [1.0, 2.0])) == (1.0, 2.0)
    a, b = hilbert_gap_positive(Field(sp, [1.0, 2.0]), Field(sp, [2.0, 1.0]))
    assert (a, b) == (0.5, 2.0)
    a, b = hilbert_gap_positive(f, 3.0 * f)
    assert a == b == 3.0
    # incomparable supports
    a, b = hilbert_gap_positive(Field(sp, [1.0, 0.0]), Field(sp, [1.0, 1.0]))
    assert math.isinf(b)


def test_theta_positive_values():
    sp = two_point_space()
    f = Field(sp, [1.0, 2.0])
    assert theta_positive(f, 2.0 * f) == 0.0
    assert theta_positive(f, Field(sp, [2.0, 1.0])) == pytest.approx(math.log(4.0))
    # enumeration oracle for the sup formula
    fv, gv = np.array([1.0, 2.0]), np.array([2.0, 1.0])
    best = max(gv[x] * fv[y] / (gv[y] * fv[x]) for x in range(2) for y in range(2))
    assert theta_positive(f, Field(sp, gv)) == pytest.approx(math.log(best))
    # special case against the unit function
    f2 = Field(sp, [1.0, 4.0])
    assert theta_positive(f2, unit_field(sp)) == pytest.approx(math.log(4.0))


def test_theta_positive_projective_invariance(circle16):
    for _ in range(20):
        f = Field(circle16, RNG.uniform(0.2, 3.0, 16))
        g = Field(circle16, RNG.uniform(0.2, 3.0, 16))
        t = theta_positive(f, g)
        assert theta_positive(2.7 * f, 0.3 * g) == pytest.approx(t, rel=1e-12)
        assert theta_positive(g, f) == pytest.approx(t, rel=1e-12)


def test_theta_positive_triangle(circle16):
    for _ in range(50):
        f, g, h = (Field(circle16, RNG.uniform(0.1, 5.0, 16)) for _ in range(3))
        assert (theta_positive(f, h)
                <= theta_positive(f, g) + theta_positive(g, h) + 1e-10)


def _sup_t_in_cone_bisect(f, g, p, hi=1e6, iters=200):
    """Independent oracle: sup { t : g - t f in Lambda(Q) } by bisection."""
    i, j, _, E = _all_pairs(f.space, p)

    def inside(t):
        v = g.values - t * f.values
        if v.min() < -1e-14 * max(1.0, np.abs(v).max()):
            return False
        if len(i) == 0:
            return True
        viol = v[j] - E * v[i]
        scale = max(1.0, float(np.abs(v).max()))
        return bool(viol.max() <= 1e-14 * scale)

    lo = 0.0
    assert inside(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return lo


def test_theta_log_holder_against_bisection(circle16, params16):
    for trial in range(12):
        f = sample_log_holder_field(circle16, params16, RNG)
        g = sample_log_holder_field(circle16, params16, RNG)
        a_formula, b_formula = nr.hilbert_gap_positive(f, g)  # only for scale
        from nsrpf.cones import hilbert_gap_log_holder
        a, b = hilbert_gap_log_holder(f, g, params16)
        a_bis = _sup_t_in_cone_bisect(f, g, params16)
        b_bis = 1.0 / _sup_t_in_cone_bisect(g, f, params16)
        assert a == pytest.approx(a_bis, rel=1e-9)
        assert b == pytest.approx(b_bis, rel=1e-9)
        assert a <= a_formula + 1e-12 and b >= b_formula - 1e-12


def test_theta_log_holder_basics(circle16, params16):
    f = sample_log_holder_field(circle16, params16, RNG)
    assert theta_log_holder(f, 1.7 * f, params16) == 0.0
    one = unit_field(circle16)
    assert theta_log_holder(one, one, params16) == 0.0
    with pytest.raises(DomainError):
        theta_log_holder(Field(circle16, -np.ones(16)), one, params16)


def test_metric_nesting(circle16, params16):
    for _ in range(50):
        f = sample_log_holder_field(circle16, params16, RNG)
        g = sample_log_holder_field(circle16, params16, RNG)
        assert theta_positive(f, g) <= theta_log_holder(f, g, params16) + 1e-12


def test_sup_inf_identity(circle16, params16):
    for _ in range(30):
        f = sample_log_holder_field(circle16, params16, RNG)
        t = theta_log_holder(f, unit_field(circle16), params16)
        assert f.sup() <= math.exp(t) * f.inf() * (1 + 1e-12)


def test_birkhoff_rate():
    assert birkhoff_rate(math.inf) == 1.0
    assert birkhoff_rate(4.0) == pytest.approx(math.tanh(1.0))
    assert birkhoff_rate(0.0) == 0.0
    assert birkhoff_rate(1e-12) < 1e-12
    with pytest.raises(DomainError):
        birkhoff_rate(-1.0)


def test_norm_theta_bound_hand_value():
    sp = two_point_space()
    m = MeasureVec(sp, [0.5, 0.5])
    f = Field(sp, [0.5, 1.5])
    g = Field(sp, [1.5, 0.5])
    lhs, rhs = norm_theta_bound(f, g, m)
    assert lhs == pytest.approx(1.0)
    assert theta_positive(f, g) == pytest.approx(math.log(9.0))
    assert rhs == pytest.approx(8.0 * 1.5)
    lhs0, rhs0 = norm_theta_bound(f, f, m)
    assert lhs0 == 0.0 and rhs0 == 0.0
    with pytest.raises(DomainError):
        norm_theta_bound(f, 2.0 * g, m)


def test_norm_theta_bound_sweep(circle16):
    m = MeasureVec.uniform(circle16)
    for _ in range(300):
        f = Field(circle16, RNG.uniform(0.05, 4.0, 16))
        g = Field(circle16, RNG.uniform(0.05, 4.0, 16))
        f = f * (1.0 / pair(f, m))
        g = g * (1.0 / pair(g, m))
        lhs, rhs = norm_theta_bound(f, g, m)
        assert lhs <= rhs + 1e-9


@pytest.mark.parametrize("Q, delta", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan),
                                      (1.0, math.inf)])
def test_cone_params_need_finite_q_and_delta(Q, delta):
    with pytest.raises(DomainError, match="positive and finite"):
        ConeParams(Q=Q, delta=delta)


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(fv=st.lists(st.floats(0.01, 100.0), min_size=5, max_size=5),
       gv=st.lists(st.floats(0.01, 100.0), min_size=5, max_size=5),
       a=st.floats(1e-3, 1e3), b=st.floats(1e-3, 1e3))
def test_theta_positive_metric_axioms(fv, gv, a, b):
    sp = PointSpace.finite(np.ones((5, 5)) - np.eye(5))
    f, g = Field(sp, fv), Field(sp, gv)
    t = theta_positive(f, g)
    assert t >= 0.0
    assert theta_positive(g, f) == pytest.approx(t, rel=1e-12, abs=1e-12)
    assert theta_positive(a * f, b * g) == pytest.approx(t, rel=1e-11, abs=1e-11)
    assert theta_positive(f, a * f) == 0.0


def test_pair_set_swap_closed(circle16):
    for beta in (0.5, 1.0):
        ps = pair_set(circle16, ConeParams(Q=2.0, delta=0.3, beta=beta))
        fwd = set(zip(ps.i.tolist(), ps.j.tolist()))
        assert all((j, i) in fwd for (i, j) in fwd)
        assert np.all(ps.d <= 0.3 + 1e-15)
        assert np.all(ps.i != ps.j)


def _line_space(n, seed=None):
    """A finite space with a nonempty pair set: n points on [0, 1) with
    |x - y| distances, evenly spaced or (with a seed) random."""
    x = (np.arange(n) / n if seed is None
         else np.sort(np.random.default_rng(seed).uniform(size=n)))
    return PointSpace.finite(np.abs(x[:, None] - x[None, :]))


def test_pair_set_counts():
    """beta = 1 on a circle keeps the 2N nearest-neighbour pairs; beta < 1
    keeps every pair within delta, exactly as many as the full scan."""
    sp = PointSpace.circle_grid(512)
    reduced = pair_set(sp, ConeParams(Q=2.0, delta=0.2, beta=1.0))
    assert len(reduced) == 2 * 512
    assert set(np.abs(reduced.i - reduced.j).tolist()) == {1, 511}
    full = pair_set(sp, ConeParams(Q=2.0, delta=0.2, beta=0.5))
    assert len(full) == 104_448
    assert len(full) == len(_all_pairs(sp, ConeParams(Q=2.0, delta=0.2, beta=0.5))[0])


@pytest.mark.parametrize("space, beta", [
    (PointSpace.circle_grid(64), 0.5), (_line_space(48), 1.0), (_line_space(40, seed=3), 0.5)])
def test_pair_set_complete_where_nothing_is_implied(space, beta):
    p = ConeParams(Q=1.5, delta=0.2, beta=beta)
    ps = pair_set(space, p)
    i, j, d, E = _all_pairs(space, p)
    assert set(zip(ps.i.tolist(), ps.j.tolist())) == set(zip(i.tolist(), j.tolist()))
    order = np.lexsort((ps.j, ps.i))
    assert np.array_equal(ps.d[order], d)   # the scan is already (i, j)-sorted
    assert np.array_equal(ps.exp_weights(p.Q, p.beta)[order], E)


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("delta", [0.5, 0.6, 1.0])
def test_pair_set_past_half_the_circle_holds_each_pair_once(n, delta):
    """Offsets stop at N // 2: past delta = 1/2 every ordered pair i != j is
    in the set exactly once, at its arc distance."""
    sp = PointSpace.circle_grid(n)
    p = ConeParams(Q=1.5, delta=delta, beta=0.5)
    ps = pair_set(sp, p)
    i, j, d, _ = _all_pairs(sp, p)
    assert len(ps) == len(i) == n * (n - 1)
    assert set(zip(ps.i.tolist(), ps.j.tolist())) == set(zip(i.tolist(), j.tolist()))
    assert np.allclose(ps.d, sp.distance(ps.i, ps.j), rtol=1e-14, atol=0.0)


def test_pair_set_lives_on_its_space():
    p = ConeParams(Q=2.0, delta=0.2)
    a, b = PointSpace.circle_grid(32), PointSpace.circle_grid(32)
    assert pair_set(a, p) is pair_set(a, p)
    assert pair_set(a, p) is not pair_set(b, p)
    assert pair_set(a, p).space is a and pair_set(b, p).space is b
    assert pair_set(a, p) in a._caches.values()


def _full_scan(space, p):
    """The pair set before reduction, from the brute-force scan."""
    i, j, d, _ = _all_pairs(space, p)
    return PairSet(space=space, i=i, j=j, d=d)


def _full_gap(f, g, p, full):
    return _gap_log_holder_raw(f.values, g.values, full, full.exp_weights(p.Q, p.beta))


def _full_member(f, p, full):
    return in_positive_cone(f) and (
        _cone_violation(f.values, full, full.exp_weights(p.Q, p.beta)) <= MEMBERSHIP_SLACK)


@pytest.mark.parametrize("space, Q", [
    (PointSpace.circle_grid(128), 2.0), (PointSpace.circle_grid(1024), 1.8322231300072618),
    (_line_space(48), 2.0), (_line_space(40, seed=3), 2.0)])
@pytest.mark.parametrize("beta", [0.5, 1.0])
def test_reduced_pair_set_matches_full_scan(space, Q, beta):
    """The stored generating set and the full pair scan give identical
    (A, B), Theta and membership verdicts, on interior and near-extremal
    fields and on the boundary directions g - A f and B f - g."""
    p = ConeParams(Q=Q, delta=0.2, beta=beta)
    full = _full_scan(space, p)
    rng = np.random.default_rng(17)
    extremal = (k for k in itertools.count() if (k >> 1) & 1)   # the family's extremal ids
    draws = [lambda: sample_log_holder_field(space, p, rng),
             lambda: Field(space, family_rows(space, p, [next(extremal)])[0])]
    for trial in range(24 if space.n_points < 1024 else 6):
        f = draws[trial % 2]()
        g = draws[(trial // 2) % 2]()
        assert in_log_holder_cone(f, p) and _full_member(f, p, full)
        A, B = hilbert_gap_log_holder(f, g, p)
        assert (A, B) == _full_gap(f, g, p, full)
        assert theta_log_holder(f, g, p) == _theta_from_gap(A, B)
        u = Field(space, g.values - A * f.values)
        v = Field(space, B * f.values - g.values)
        gap_uv = hilbert_gap_log_holder(u, v, p)
        assert gap_uv == _full_gap(u, v, p, full)
        assert theta_log_holder(u, v, p, checked=False) == _theta_from_gap(*gap_uv)
        for h in (u, v):
            assert in_log_holder_cone(h, p) == _full_member(h, p, full)
    # fields on the wrong side of the cone boundary, exp(+-1.05 Q d(x, c)^beta),
    # and random positive fields
    outside = [Field(space, np.exp(rng.choice([-1.05, 1.05]) * Q
                                   * space.distance(np.arange(space.n_points),
                                                    rng.integers(space.n_points)) ** beta))
               for _ in range(6)]
    outside += [Field(space, rng.uniform(0.5, 2.0, space.n_points)) for _ in range(6)]
    for h in outside:
        assert in_log_holder_cone(h, p) == _full_member(h, p, full)
    assert not any(_full_member(h, p, full) for h in outside[:6])
