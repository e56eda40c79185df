import dataclasses
import math
import warnings

import numpy as np
import pytest

import nsrpf as nr
from nsrpf.cones import ConeParams, in_log_holder_cone, sample_log_holder_field
from nsrpf.errors import DomainError, StructuralError
from nsrpf.spaces import Field, MeasureVec, PointSpace, pair, unit_field
from nsrpf.systems import CircleMapSpec, MatrixChainSpec, build_circle_chain, build_matrix_chain
from nsrpf.rpf import _compose_rows
from nsrpf.transfer import (AffinePotential, Stage, StageSeq, _apply_values, _dual_weights,
                            apply_L, apply_L_dual, compose_L, normalize_stage)

from conftest import (PERTURBED, brute_compose_values, build_halving_chain,
                      sampled_doubling_chain, snapped_stage)

RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def doubling():
    return build_circle_chain(CircleMapSpec.make(
        N=64, window=(0, 4), eps=0.0, eps_mode="constant",
        a=0.0, a_mode="constant"))


def test_doubling_counts_preimages(doubling):
    one = unit_field(doubling.space(0))
    img = apply_L(doubling.stage(0), one)
    assert np.allclose(img.values, 2.0)      # L 1 counts preimages exactly


def test_matrix_stage_is_matvec():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (0, 2)))
    st = seq.stage(0)
    f = Field(st.domain, [1.0, 0.0])
    assert np.allclose(apply_L(st, f).values, m @ [1.0, 0.0])
    one = unit_field(st.domain)
    # the stage and its normalization at h = 1, lambda = 1 hold only the matrix
    for op in (st, normalize_stage(st, one, one, 1.0)):
        assert op.branch_index is None and op.branch_frac is None
        assert op.branch_weight is None
        for _ in range(10):
            v = RNG.normal(size=2)
            assert np.array_equal(apply_L(op, Field(op.domain, v)).values, m @ v)
            w = RNG.uniform(0.1, 1.0, 2)
            assert np.array_equal(apply_L_dual(op, MeasureVec(op.codomain, w)).weights,
                                  m.T @ w)


def test_operator_stages_hold_only_their_matrix():
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-4, 4), seed=2))
    for n in seq.stage_indices:
        st = seq.stage(n)
        h_dom = Field(st.domain, RNG.uniform(0.5, 2.0, 3))
        h_cod = Field(st.codomain, RNG.uniform(0.5, 2.0, 3))
        nst = normalize_stage(st, h_dom, h_cod, 1.7)
        for op in (st, nst):
            assert (op.branch_index, op.branch_frac, op.branch_weight) == (None, None, None)
            assert op.n_branches == 3 and not op.has_map
        want = st.dense * h_dom.values[None, :] / (1.7 * h_cod.values[:, None])
        assert np.array_equal(nst.dense, want)


def test_stage_holds_exactly_one_representation():
    space = PointSpace.simplex(2)
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    with pytest.raises(StructuralError, match="exactly one"):
        Stage(space, space)
    table = dict(branch_index=np.array([[0, 1]]), branch_frac=np.zeros((1, 2)),
                 branch_weight=np.ones((1, 2)))
    Stage(space, space, **table)   # a branch table alone is a stage
    with pytest.raises(StructuralError, match="exactly one"):
        Stage(space, space, dense=m, **table)
    with pytest.raises(StructuralError, match="shape"):
        Stage(space, space, branch_index=table["branch_index"])   # a partial table
    for bad in (m[0], m[None]):   # 1-D and 3-D
        with pytest.raises(StructuralError, match="shape"):
            Stage(space, space, dense=bad)
    with pytest.raises(DomainError):
        Stage(space, space, dense=-m)


def test_stages_store_the_arrays_they_validate():
    """A matrix or a branch table given as nested lists is stored as the
    arrays it was validated as, float64 values and int64 indices, and acts
    like the stage built from arrays, which are stored as given."""
    sp = PointSpace.simplex(2)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    listed, arrayed = Stage(sp, sp, dense=m.tolist()), Stage(sp, sp, dense=m)
    assert arrayed.dense is m and listed.dense.dtype == np.float64
    halving = build_halving_chain(levels=1, n_top=8, seed=3).stage(0)
    names = ("branch_index", "branch_frac", "branch_weight", "forward_index")
    table = dataclasses.replace(halving, **{k: getattr(halving, k).tolist() for k in names})
    assert [getattr(table, k).dtype for k in names] == [np.int64, np.float64, np.float64,
                                                         np.int64]
    for got, want in ((listed, arrayed), (table, halving)):
        v = RNG.normal(size=want.domain.n_points)
        s = RNG.uniform(0.1, 1.0, want.codomain.n_points)
        assert np.array_equal(apply_L(got, Field(got.domain, v)).values,
                              apply_L(want, Field(want.domain, v)).values)
        assert np.array_equal(apply_L_dual(got, MeasureVec(got.codomain, s)).weights,
                              apply_L_dual(want, MeasureVec(want.codomain, s)).weights)
    cone = ConeParams(Q=1.0, delta=0.5)
    got, want = (nr.certify_cone_conditions(StageSeq(n_min=0, n_max=4, stages=(st,) * 4), cone)
                 for st in (listed, arrayed))
    assert got == want


@pytest.mark.parametrize("field, value, message", [
    ("branch_index", np.array([[0, 1], [2, -1]]), "branch indices"),
    ("branch_index", np.array([[0, 1], [2, 4]]), "branch indices"),
    ("branch_index", np.array([[0.0, 1.0], [2.0, 3.0]]), "branch indices"),
    ("branch_frac", np.array([[0.0, 0.0], [0.0, 1.0]]), "branch fractions"),
    ("branch_frac", np.array([[0.0, -0.25], [0.0, 0.0]]), "branch fractions"),
    ("branch_frac", np.array([[0.0, np.nan], [0.0, 0.0]]), "branch fractions"),
    ("branch_weight", np.array([[1.0, 0.0], [1.0, 1.0]]), "branch weights"),
    ("branch_weight", np.array([[1.0, 1.0], [-1.0, 1.0]]), "branch weights"),
    ("branch_weight", np.array([[1.0, np.nan], [1.0, 1.0]]), "branch weights"),
    ("branch_weight", np.array([[1.0, 1.0], [1.0, np.inf]]), "branch weights"),
    ("forward_index", np.array([0, 0, 1, 2]), "forward indices"),
    ("forward_index", np.array([0, -1, 1, 1]), "forward indices"),
    ("forward_index", np.array([0.0, 0.0, 1.0, 1.0]), "forward indices"),
])
def test_branch_tables_are_validated(field, value, message):
    # the 4 -> 2 point halving stage: branches (0, 2) and (1, 3), T(y) = y // 2
    st = build_halving_chain(levels=1, n_top=4, seed=1).stage(0)
    with pytest.raises(StructuralError, match=message):
        dataclasses.replace(st, **{field: value})


@pytest.mark.parametrize("a, b", [(800.0, 0.0), (0.0, -800.0), (math.nan, 0.0),
                                  (0.0, math.inf)])
def test_derived_branch_weights_are_validated(a, b):
    # a circle stage built directly over its shared geometry, with an (a, b)
    # whose weights exp(a cos + b) are not all finite and positive: refused
    # at construction like a given weight table, and without a numpy warning
    st = _circle_stage()
    pot = st.potential_fn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StructuralError, match="branch weights"):
            Stage(st.domain, st.codomain, branch_index=st.branch_index,
                  branch_frac=st.branch_frac, map_fn=st.map_fn,
                  potential_fn=AffinePotential(a, b, pot.basis, pot.at_branches))


def test_constant_potential_factors_out():
    base = build_halving_chain(levels=1, n_top=8, potentials=[np.zeros(8)])
    shifted = build_halving_chain(levels=1, n_top=8, potentials=[np.full(8, 0.7)])
    f = Field(base.space(0), RNG.normal(size=8))
    f2 = Field(shifted.space(0), f.values)
    a = apply_L(base.stage(0), f)
    b = apply_L(shifted.stage(0), f2)
    assert np.allclose(b.values, math.exp(0.7) * a.values, rtol=1e-14)


def test_dual_of_a_unit_mass_unfolds_preimages():
    seq = build_halving_chain(levels=1, n_top=8, seed=3)
    st = seq.stage(0)
    sigma = MeasureVec(st.codomain, np.eye(st.codomain.n_points)[2])
    back = apply_L_dual(st, sigma)
    expect = np.zeros(8)
    expect[4] = st.branch_weight[0, 2]
    expect[5] = st.branch_weight[1, 2]
    assert np.allclose(back.weights, expect)


def test_dual_total_mass_doubling(doubling):
    sigma = MeasureVec.uniform(doubling.space(1))
    back = apply_L_dual(doubling.stage(0), sigma)
    assert float(back.weights.sum()) == pytest.approx(2.0)


def test_adjoint_identity_random(doubling):
    seq = build_halving_chain(levels=3, n_top=16, seed=11)
    for s in (seq, doubling):
        for n in s.stage_indices:
            st = s.stage(n)
            f = Field(st.domain, RNG.normal(size=st.domain.n_points))
            sig = MeasureVec(st.codomain, RNG.uniform(0.1, 2.0, st.codomain.n_points))
            lhs = pair(f, apply_L_dual(st, sig))
            rhs = pair(apply_L(st, f), sig)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_compose_matches_brute_force_enumeration():
    seq = build_halving_chain(levels=3, n_top=16, seed=5)
    f = RNG.normal(size=16)
    for k in range(4):
        got = compose_L(seq, 0, k, Field(seq.space(0), f))
        want = brute_compose_values(seq, 0, k, f)
        assert np.allclose(got.values, want, rtol=1e-13)
    # k = 0 is the identity, k = 2 is the unfolded double application
    assert np.array_equal(compose_L(seq, 0, 0, Field(seq.space(0), f)).values, f)
    two = apply_L(seq.stage(1), apply_L(seq.stage(0), Field(seq.space(0), f)))
    assert np.allclose(compose_L(seq, 0, 2, Field(seq.space(0), f)).values,
                       two.values)


def test_compose_matches_matrix_products():
    spec = MatrixChainSpec.random(d=3, window=(0, 5), seed=9)
    seq = build_matrix_chain(spec)
    f = RNG.normal(size=3)
    prod = np.eye(3)
    for j in range(0, 4):
        prod = spec.matrix(j) @ prod
    got = compose_L(seq, 0, 4, Field(seq.space(0), f))
    assert np.allclose(got.values, prod @ f, rtol=1e-13)
    sig = RNG.uniform(0.1, 1.0, 3)
    gotd = MeasureVec(seq.space(4), sig)
    for j in range(3, -1, -1):
        gotd = apply_L_dual(seq.stage(j), gotd)
    assert np.allclose(gotd.weights, prod.T @ sig, rtol=1e-13)


def test_compose_duality(doubling):
    for k in range(4):
        f = Field(doubling.space(0), RNG.uniform(0.1, 2.0, 64))
        sig = MeasureVec(doubling.space(k), RNG.uniform(0.1, 2.0, 64))
        lhs = pair(compose_L(doubling, 0, k, f), sig)
        back = sig
        for j in range(k - 1, -1, -1):
            back = apply_L_dual(doubling.stage(j), back)
        rhs = pair(f, back)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_window_errors(doubling):
    f = unit_field(doubling.space(0))
    with pytest.raises(StructuralError):
        compose_L(doubling, 0, 10, f)
    with pytest.raises(StructuralError):
        apply_L(doubling.stage(1), Field(PointSpace.circle_grid(64), np.ones(64)))


def test_positivity_and_monotonicity(doubling):
    st = doubling.stage(0)
    f = Field(st.domain, RNG.uniform(0.0, 1.0, 64))
    g = f + Field(st.domain, RNG.uniform(0.0, 1.0, 64))
    lf, lg = apply_L(st, f), apply_L(st, g)
    assert lf.values.min() >= 0.0
    assert np.all(lf.values <= lg.values + 1e-15)


def test_cone_invariance_of_images():
    spec = CircleMapSpec.make(N=256, window=(0, 3), eps=0.05,
                              eps_mode="alternating", a=0.1, a_mode="sin")
    seq = build_circle_chain(spec)
    params = seq.declared
    q = nr.default_Q(params)
    p = ConeParams(Q=q, delta=params.delta, beta=params.beta)
    s_q = params.rho ** params.beta * (params.H + q)
    target = ConeParams(Q=s_q, delta=p.delta, beta=p.beta)
    for _ in range(40):
        f = sample_log_holder_field(seq.space(0), p, RNG)
        assert in_log_holder_cone(apply_L(seq.stage(0), f), target)
    # image regularity after tau steps: sup <= R inf
    ledger = nr.derive_constants(params, q)
    for _ in range(20):
        f = sample_log_holder_field(seq.space(0), p, RNG)
        img = compose_L(seq, 0, params.tau, f)
        assert img.sup() <= ledger.R * img.inf() * (1 + 1e-12)


def test_normalize_stage_identity_and_errors():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (0, 2)))
    st = seq.stage(0)
    one = unit_field(st.domain)
    same = normalize_stage(st, one, one, 1.0)
    assert np.allclose(same.dense, st.dense)
    lam, mw, hv = nr.oracle_stationary_rpf(m)
    h = Field(st.domain, hv)
    nst = normalize_stage(st, h, h, lam)
    img = apply_L(nst, one)
    assert np.allclose(img.values, 1.0, atol=1e-12)
    # the normalized operator is L(h f) / (lam h) pointwise
    for _ in range(10):
        f = Field(st.domain, RNG.normal(size=2))
        lhs = apply_L(nst, f).values
        rhs = apply_L(st, h * f).values / (lam * hv)
        assert np.allclose(lhs, rhs, rtol=1e-12)
    with pytest.raises(DomainError):
        normalize_stage(st, one, one, -1.0)
    with pytest.raises(DomainError):
        normalize_stage(st, Field(st.domain, [1.0, 0.0]), one, 1.0)


def test_normalize_stage_keeps_the_exact_circle_potential():
    """Normalized circle stages hold the normalized exact potential:
    unchanged at h = 1, lambda = 1, on the grid and at the exact images,
    and on a solved chain it is, on the grid,
    phi + log h_n - log h_{n+1}(T .) - log lambda_n with h_{n+1}
    interpolated at the exact images."""
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 2)))
    one = unit_field(seq.space(0))
    x = seq.space(0).positions
    for st in seq.stages:
        same = normalize_stage(st, one, one, 1.0)
        for y in (x, seq.stage(0).map_fn(x) % 1.0):
            assert np.array_equal(same.potential_fn(y), st.potential_fn(y))
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-24, 24), **PERTURBED))
    fwd = nr.solve_forward(seq, tol=1e-6, tau=2, block_factor=0.2, with_diagnostics=False)
    bwd = nr.solve_backward(fwd, with_diagnostics=False)
    x = seq.space(0).positions
    for n in (-10, 0, 7):
        st = seq.stage(n)
        nst = normalize_stage(st, bwd.h[n], bwd.h[n + 1], fwd.lam[n])
        one_step = nst.potential_fn(x)
        p = (st.map_fn(x) % 1.0) * x.size
        base = np.floor(p).astype(np.int64) % x.size
        frac = p - np.floor(p)
        h_img = (1.0 - frac) * bwd.h[n + 1].values[base] \
            + frac * bwd.h[n + 1].values[(base + 1) % x.size]
        sampled = (st.potential_fn(x) + np.log(bwd.h[n].values) - np.log(h_img)
                   - np.log(fwd.lam[n]))
        np.testing.assert_allclose(one_step, sampled, rtol=1e-14, atol=0)


def _row_kernel_chains():
    return {"matrix_d3": build_matrix_chain(MatrixChainSpec.random(d=3, window=(-8, 8), seed=3)),
            "circle_N64": build_circle_chain(CircleMapSpec.make(N=64, window=(-6, 6),
                                                                **PERTURBED)),
            "halving": build_halving_chain(levels=8, n_top=256)}


@pytest.mark.parametrize("name", ["matrix_d3", "circle_N64", "halving"])
def test_row_kernels_equal_the_per_row_kernels(name):
    """Row r of a block from index run[r], with rows gathered from across the
    chain into one block per (domain, codomain) pair: one _compose_rows step
    of the contraction verifier and a stack of per-row dual calls give
    every row the bits of the one-row kernels."""
    seq = _row_kernel_chains()[name]
    ns = list(seq.stage_indices) + list(reversed(seq.stage_indices)) * 2
    blocks = {}
    for n in ns:
        st = seq.stage(n)
        blocks.setdefault((st.domain, st.codomain), []).append(n)
    for (dom, cod), run in blocks.items():
        V = RNG.normal(size=(len(run), dom.n_points))
        S = RNG.uniform(0.1, 1.0, (len(run), cod.n_points))
        out = _compose_rows(seq, run, 1, V)
        back = np.stack([_dual_weights(seq.stage(n), s) for n, s in zip(run, S)])
        assert out.shape == (len(run), cod.n_points)
        assert back.shape == V.shape
        for r, n in enumerate(run):
            assert np.array_equal(out[r], _apply_values(seq.stage(n), V[r]))
            assert np.array_equal(back[r], _dual_weights(seq.stage(n), S[r]))
    # three steps from repeated, interleaved starts whose paths share spaces:
    # the rows of one start are pushed as one stack
    lo = seq.n_min
    starts = [n for n in (lo, lo + 1, lo + 2) if seq.space(n) is seq.space(lo)] * 3
    V = RNG.normal(size=(len(starts), seq.space(lo).n_points))
    out = _compose_rows(seq, starts, 3, V)
    for r, n in enumerate(starts):
        assert np.array_equal(out[r], compose_L(seq, n, 3, Field(seq.space(n), V[r])).values)


@pytest.mark.parametrize("name", ["matrix_d3", "circle_N64", "halving"])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_compose_L_equals_a_per_step_apply_L_loop(name, k):
    seq = _row_kernel_chains()[name]
    for n in (seq.n_min, seq.n_max - 3):
        f = Field(seq.space(n), RNG.uniform(0.1, 1.0, seq.space(n).n_points))
        want = f
        for j in range(n, n + k):
            want = apply_L(seq.stage(j), want)
        got = compose_L(seq, n, k, f)
        assert got.space is want.space
        assert np.array_equal(got.values, want.values)


def _assembled_matrix(st):
    """The (n_codomain, n_domain) matrix of a branch-table stage, summed
    entry by entry from its table: weight times (1 - frac) on the base
    point of each branch, weight times frac on the next point."""
    n_cod, n_dom = st.codomain.n_points, st.domain.n_points
    rows = np.broadcast_to(np.arange(n_cod), st.branch_index.shape)
    m = np.zeros((n_cod, n_dom))
    np.add.at(m, (rows, st.branch_index), st.branch_weight * (1.0 - st.branch_frac))
    np.add.at(m, (rows, (st.branch_index + 1) % n_dom), st.branch_weight * st.branch_frac)
    return m


@pytest.mark.parametrize("name", ["circle_N64", "halving", "finite_doubling"])
@pytest.mark.parametrize("rows", [None, 1, 2, 26])
def test_branch_table_kernels_match_the_assembled_matrix(name, rows):
    """apply is M v and its dual M^T s for the matrix M assembled from the
    table, on a vector (rows None) and on stacks; every row of a stack has
    the bits of the one-row call."""
    seq = (sampled_doubling_chain(256, 8, None) if name == "finite_doubling"
           else _row_kernel_chains()[name])
    for st in seq.stages:
        m = _assembled_matrix(st)
        shape = () if rows is None else (rows,)
        V = RNG.uniform(0.1, 1.0, shape + (st.domain.n_points,))
        S = RNG.uniform(0.1, 1.0, shape + (st.codomain.n_points,))
        out, back = _apply_values(st, V), _dual_weights(st, S)
        np.testing.assert_allclose(out, V @ m.T, rtol=1e-13, atol=0)
        np.testing.assert_allclose(back, S @ m, rtol=1e-13, atol=0)
        for r in range(0 if rows is None else rows):
            assert np.array_equal(out[r], _apply_values(st, V[r]))
            assert np.array_equal(back[r], _dual_weights(st, S[r]))


@pytest.mark.parametrize("name", ["matrix_d3", "circle_N64", "halving"])
def test_empty_stacks_give_empty_results(name):
    st = _row_kernel_chains()[name].stages[0]
    n_dom, n_cod = st.domain.n_points, st.codomain.n_points
    assert _apply_values(st, np.empty((0, n_dom))).shape == (0, n_cod)
    assert _dual_weights(st, np.empty((0, n_cod))).shape == (0, n_dom)


def test_normalize_stage_iterated_cocycle_matrix():
    spec = MatrixChainSpec.random(d=3, window=(-21, 21), seed=21)
    seq = build_matrix_chain(spec)
    cone = ConeParams(Q=1.0, delta=0.5, beta=1.0)
    cert = nr.certify_cone_conditions(seq, cone)
    fwd = nr.solve_forward(seq, tol=1e-11, tau=1, block_factor=cert.block_factor,
                           cone_params=cone, with_diagnostics=False)
    bwd = nr.solve_backward(fwd, with_diagnostics=False)
    n, k = -5, 4
    stages = [normalize_stage(seq.stage(n + j), bwd.h[n + j], bwd.h[n + j + 1],
                              fwd.lam[n + j]) for j in range(k)]
    f = Field(seq.space(n), RNG.uniform(0.2, 1.0, 3))
    out = f
    for st in stages:
        out = apply_L(st, out)
    lam_prod = math.prod(fwd.lam[n + j] for j in range(k))
    direct = compose_L(seq, n, k, bwd.h[n] * f)
    want = direct.values / (lam_prod * bwd.h[n + k].values)
    assert np.allclose(out.values, want, rtol=1e-10)


def test_circle_branch_inverse_accuracy():
    spec = CircleMapSpec.make(N=128, window=(0, 2), eps=0.05,
                              eps_mode="constant", a=0.0, a_mode="constant")
    seq = build_circle_chain(spec)
    st = seq.stage(0)
    pre = (st.branch_index + st.branch_frac) / st.domain.n_points
    for b in range(2):
        y = pre[b]
        img = st.map_fn(y) % 1.0
        gap = np.abs(img - st.codomain.positions)
        gap = np.minimum(gap, 1.0 - gap)
        assert float(gap.max()) < 1e-12


def test_pure_doubling_branch_structure():
    # eps = 0: the preimages of x are exactly x/2 and x/2 + 1/2; on the
    # N-grid the even-index codomain points get on-grid preimages (frac 0)
    # and the odd-index ones get exact cell midpoints (frac 1/2)
    n = 64
    seq = build_circle_chain(CircleMapSpec.make(
        N=n, window=(0, 2), eps=0.0, eps_mode="constant", a=0.0,
        a_mode="constant"))
    st = seq.stage(0)
    x = st.codomain.positions
    pre = (st.branch_index + st.branch_frac) / n
    for b in range(2):
        assert np.allclose(pre[b], (x + b) / 2.0, atol=1e-12)
    even = np.arange(0, n, 2)
    odd = np.arange(1, n, 2)
    assert np.all(st.branch_frac[:, even] == 0.0)
    assert np.allclose(st.branch_frac[:, odd], 0.5, atol=1e-10)
    # constants pass through interpolation exactly: L1 = 2 to the bit
    img = apply_L(st, unit_field(st.domain))
    assert np.all(img.values == 2.0)
    # on the even codomain points the operator is exact for any f
    f = RNG.normal(size=n)
    img = apply_L(st, Field(st.domain, f))
    for x_idx in even:
        want = f[x_idx // 2] + f[(x_idx + n) // 2]
        assert img.values[x_idx] == pytest.approx(want, rel=1e-15)


def _circle_stage():
    return build_circle_chain(CircleMapSpec.make(N=64, window=(0, 1))).stage(0)


def test_stage_rejects_both_map_forms():
    st = _circle_stage()
    finite = snapped_stage(st)
    with pytest.raises(StructuralError, match="one form of its map"):
        dataclasses.replace(st, forward_index=finite.forward_index, potential=finite.potential)
    with pytest.raises(StructuralError, match="one form of its map"):
        dataclasses.replace(finite, map_fn=st.map_fn)


@pytest.mark.parametrize("drop", ["map_fn", "potential_fn", "forward_index", "potential"])
def test_stage_rejects_a_map_without_its_potential(drop):
    st = _circle_stage()
    if drop in ("forward_index", "potential"):
        st = snapped_stage(st)
    with pytest.raises(StructuralError, match="both its map and its potential"):
        dataclasses.replace(st, **{drop: None})


def test_stage_rejects_an_exact_lift_off_a_circle_grid():
    st = build_halving_chain(levels=1, n_top=4, seed=1).stage(0)
    with pytest.raises(StructuralError, match="circle-grid"):
        dataclasses.replace(st, forward_index=None, potential=None,
                            map_fn=lambda y: 2.0 * y, potential_fn=np.cos)


def test_operator_stages_reject_a_map_form():
    st = build_matrix_chain(MatrixChainSpec.random(d=2, window=(0, 1), seed=1)).stage(0)
    with pytest.raises(StructuralError, match="only their matrix"):
        dataclasses.replace(st, forward_index=np.array([0, 1]),
                            potential=Field(st.domain, np.zeros(2)))


def test_compose_rejects_a_non_integer_depth():
    seq = build_matrix_chain(MatrixChainSpec.random(d=2, window=(-30, 30), seed=1))
    f = unit_field(seq.space(0))
    with pytest.raises(StructuralError, match="integers"):
        compose_L(seq, 0, 1.5, f)


@pytest.mark.parametrize("lam", [math.nan, math.inf])
def test_normalize_stage_rejects_a_non_finite_lambda(lam):
    st = build_matrix_chain(MatrixChainSpec.random(d=2, window=(-30, 30), seed=1)).stage(0)
    one = unit_field(st.domain)
    with pytest.raises(DomainError, match="positive finite lambda"):
        normalize_stage(st, one, one, lam)
