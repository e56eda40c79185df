import math

import numpy as np
import pytest

from nsrpf.errors import DomainError, StructuralError
from nsrpf.spaces import Field, MeasureVec
from nsrpf.systems import (CircleMapSpec, MatrixChainSpec, build_circle_chain,
                           build_matrix_chain, oracle_nonstationary_products,
                           oracle_rpf_chain, oracle_stationary_rpf)
from nsrpf.transfer import apply_L, apply_L_dual

RNG = np.random.default_rng(3)


def test_matrix_spec_validation():
    with pytest.raises(DomainError):
        MatrixChainSpec.stationary([[1.0, 0.0], [1.0, 1.0]], (0, 2))
    with pytest.raises(StructuralError):
        MatrixChainSpec(d=2, window=(0, 2), matrices=(np.ones((2, 2)),))
    spec = MatrixChainSpec.random(d=4, window=(-3, 3), seed=5)
    assert spec.matrix(-3).shape == (4, 4)
    assert np.all(spec.matrix(2) >= 1.0) and np.all(spec.matrix(2) <= 2.0)
    # seeded generation is reproducible
    again = MatrixChainSpec.random(d=4, window=(-3, 3), seed=5)
    assert np.array_equal(spec.matrix(0), again.matrix(0))


def test_matrix_spec_rejects_no_states():
    for d in (0, -1):
        with pytest.raises(StructuralError, match="d >= 1"):
            MatrixChainSpec.random(d=d, window=(0, 4), seed=1)
    with pytest.raises(StructuralError, match="d >= 1"):
        MatrixChainSpec(d=0, window=(0, 1), matrices=(np.ones((0, 0)),))
    with pytest.raises(StructuralError, match="d >= 1"):
        MatrixChainSpec.stationary(np.ones((0, 0)), (0, 2))


def test_build_matrix_chain_exact():
    spec = MatrixChainSpec.random(d=3, window=(0, 4), seed=1)
    seq = build_matrix_chain(spec)
    for n in seq.stage_indices:
        st = seq.stage(n)
        v = RNG.normal(size=3)
        assert np.array_equal(apply_L(st, Field(st.domain, v)).values,
                              spec.matrix(n) @ v)
        w = RNG.uniform(0.1, 1.0, 3)
        assert np.array_equal(apply_L_dual(st, MeasureVec(st.codomain, w)).weights,
                              spec.matrix(n).T @ w)


def test_circle_spec_validation():
    with pytest.raises(DomainError):
        CircleMapSpec.make(N=128, window=(0, 2), eps=0.2, eps_mode="constant")
    with pytest.raises(DomainError):
        CircleMapSpec.make(N=128, window=(0, 2), delta=0.3)
    spec = CircleMapSpec.make(N=128, window=(0, 4), eps=0.05,
                              eps_mode="alternating", a=0.1, a_mode="sin")
    decl = spec.declared_params()
    assert decl.rho == pytest.approx(1.0 / (2.0 - 0.1 * math.pi))
    assert decl.D == 2 and decl.tau == 2
    # H and V come from the largest coefficient the window actually uses
    amax = float(np.abs(spec.a).max())
    assert decl.H == pytest.approx(2.0 * math.pi * amax)
    assert decl.V == pytest.approx(2.0 * amax)


def test_circle_chain_surjective_branches():
    seq = build_circle_chain(CircleMapSpec.make(
        N=128, window=(0, 3), eps=0.05, eps_mode="random", a=0.05,
        a_mode="random", seed=7))
    for n in seq.stage_indices:
        st = seq.stage(n)
        assert st.n_branches == 2
        # every branch inverse maps forward onto its codomain point
        pre = (st.branch_index + st.branch_frac) / st.domain.n_points
        for b in range(2):
            img = st.map_fn(pre[b]) % 1.0
            gap = np.abs(img - st.codomain.positions)
            assert float(np.minimum(gap, 1.0 - gap).max()) < 1e-12


def test_oracle_stationary_hand_values():
    lam, m, h = oracle_stationary_rpf(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(m, [0.5, 0.5], atol=1e-12)
    assert np.allclose(h, [1.0, 1.0], atol=1e-12)

    lam, m, h = oracle_stationary_rpf(np.array([[2.0, 1.0], [1.0, 1.0]]))
    assert lam == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    assert lam == pytest.approx(2.6180339887, abs=1e-9)

    lam, m, h = oracle_stationary_rpf(np.array([[10.0, 1.0], [1.0, 10.0]]))
    assert lam == pytest.approx(11.0, abs=1e-10)
    assert np.allclose(m, [0.5, 0.5], atol=1e-10)
    assert np.allclose(h, [1.0, 1.0], atol=1e-10)
    # probability and biorthogonal normalizations
    assert m.sum() == pytest.approx(1.0)
    assert float(h @ m) == pytest.approx(1.0)


def test_oracle_products_stationary_limit():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    spec = MatrixChainSpec.stationary(m, (-220, 220))
    est = oracle_nonstationary_products(spec, 0, 200)
    lam, mw, hv = oracle_stationary_rpf(m)
    assert est.lam == pytest.approx(lam, abs=1e-10)
    assert np.allclose(est.m_weights, mw, atol=1e-10)
    assert np.allclose(est.h_values, hv, atol=1e-10)


def test_oracle_products_depth_zero():
    spec = MatrixChainSpec.random(d=3, window=(-5, 5), seed=2)
    est = oracle_nonstationary_products(spec, 0, 0)
    assert np.allclose(est.m_weights, np.full(3, 1 / 3))
    assert est.h_values is None
    with pytest.raises(StructuralError):
        oracle_nonstationary_products(spec, 0, 9)


def test_oracle_chain_telescopes():
    spec = MatrixChainSpec.random(d=3, window=(-10, 10), seed=4)
    lams, ms, hs = oracle_rpf_chain(spec)
    for n in range(-10, 9):
        lhs = spec.matrix(n).T @ ms[n + 1]
        assert np.allclose(lhs, lams[n] * ms[n], rtol=1e-12)
        assert np.allclose(spec.matrix(n) @ hs[n], lams[n] * hs[n + 1], rtol=1e-12)
