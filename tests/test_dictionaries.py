import numpy as np
import pytest

from nsrpf.cones import ConeParams, in_log_holder_cone
from nsrpf.dictionaries import cone_dictionary, pairing_vector, weak_dictionary
from nsrpf.spaces import Field, PointSpace

P = ConeParams(Q=3.0, delta=0.2, beta=1.0)


@pytest.mark.parametrize("build", [weak_dictionary, lambda sp: cone_dictionary(sp, P)])
def test_circle_rows_are_the_exact_callables(build):
    sp = PointSpace.circle_grid(128)
    d = build(sp)
    assert d.matrix.shape == (len(d.fns), sp.n_points)
    for row, fn, norm in zip(d.matrix, d.fns, d.norms):
        assert np.array_equal(row, fn(sp.positions))
        assert norm == np.abs(row).max()


@pytest.mark.parametrize("p", [ConeParams(Q=1.0, delta=0.5, beta=1.0), P,
                               ConeParams(Q=6.0, delta=0.3, beta=0.5)])
@pytest.mark.parametrize("sp", [PointSpace.circle_grid(64), PointSpace.circle_grid(500),
                                PointSpace.simplex(3), PointSpace.simplex(20),
                                PointSpace.finite(np.abs(np.subtract.outer(
                                    np.arange(32), np.arange(32))) / 32)])
def test_cone_rows_lie_in_the_cone(sp, p):
    d = cone_dictionary(sp, p)
    for row in d.matrix:
        assert in_log_holder_cone(Field(sp, row), p)


def test_one_read_only_dictionary_per_space_and_q():
    a, b = PointSpace.circle_grid(32), PointSpace.circle_grid(32)
    assert weak_dictionary(a) is weak_dictionary(a)
    assert weak_dictionary(a) is not weak_dictionary(b)
    assert cone_dictionary(a, P) is cone_dictionary(a, ConeParams(Q=P.Q, delta=0.4))
    assert cone_dictionary(a, P) is not cone_dictionary(a, ConeParams(Q=2.0, delta=0.2))
    assert cone_dictionary(a, P) is not cone_dictionary(b, P)
    for d in (weak_dictionary(a), cone_dictionary(a, P)):
        assert not d.matrix.flags.writeable and not d.norms.flags.writeable
        with pytest.raises(ValueError):
            d.matrix[0, 0] = 2.0


@pytest.mark.parametrize("n", [1, 2, 5, 12, 13, 19, 20, 40])
def test_finite_dictionary_sizes(n):
    sp = PointSpace.finite(np.ones((n, n)) - np.eye(n))
    weak, cone = weak_dictionary(sp), cone_dictionary(sp, P)
    assert weak.matrix.shape == (1 + min(n, 19), n)
    assert cone.matrix.shape == (1 + min(n, 12), n)
    for d in (weak, cone):
        assert d.fns is None
        assert np.array_equal(d.matrix[0], np.ones(n))
        assert np.array_equal(d.matrix[1:], np.eye(len(d.matrix) - 1, n))
        assert np.array_equal(d.norms, np.ones(len(d.matrix)))


def test_pairing_vector_is_one_matmul():
    sp = PointSpace.circle_grid(64)
    d = weak_dictionary(sp)
    w = np.random.default_rng(3).uniform(size=sp.n_points)
    assert np.array_equal(pairing_vector(d, w), d.matrix @ w)
    assert pairing_vector(d, w)[0] == pytest.approx(w.sum(), rel=1e-14)
