"""Shared fixtures: exact toy chains and the solved pipelines reused by the
acceptance suite."""
import dataclasses

import hypothesis
import numpy as np
import pytest

import nsrpf as nr

hypothesis.settings.register_profile("repro", derandomize=True, database=None)
hypothesis.settings.load_profile("repro")
from nsrpf.cones import pair_set
from nsrpf.spaces import KIND_CIRCLE, Field, PointSpace, holder_seminorm
from nsrpf.transfer import Stage, StageSeq


def six_mode_field(space, a, b, target):
    """exp of scale sum_m (a_m cos 2 pi m x + b_m sin 2 pi m x), m = 1..6,
    on a circle grid, with the scale that takes the Lipschitz bound
    sum_m 2 pi m (|a_m| + |b_m|) to ``target``: the uncached formula, every
    mode's cos and sin evaluated afresh."""
    x = space.positions
    ms = np.arange(1, 7)
    lip = float(np.sum(2.0 * np.pi * ms * (np.abs(a) + np.abs(b))))
    scale = 0.0 if lip == 0.0 else target / lip
    logf = np.zeros_like(x)
    for k, m in enumerate(ms):
        logf += scale * (a[k] * np.cos(2 * np.pi * m * x) + b[k] * np.sin(2 * np.pi * m * x))
    return np.exp(logf)


def random_cone_field(space, p, rng):
    """A random field strictly inside Lambda(Q), drawn from the numpy
    Generator ``rng``.

    On a circle grid, the six_mode_field of Gaussian coefficients with a
    uniform Lipschitz target in [0.18 Q, 0.9 Q] (beta = 1 samples remain
    valid for any beta <= 1 on subunit distances).  On a finite space whose
    pair set is empty the cone is all of C+ and the field is uniform in
    [0.5, 2]; on any other finite space a Gaussian log-field is rescaled by
    its holder_seminorm.
    """
    if space.kind == KIND_CIRCLE:
        a, b = rng.normal(size=6), rng.normal(size=6)
        return Field(space, six_mode_field(space, a, b, 0.9 * p.Q * rng.uniform(0.2, 1.0)))
    if len(pair_set(space, p)) == 0:
        return Field(space, rng.uniform(0.5, 2.0, size=space.n_points))
    v = rng.normal(size=space.n_points)
    s = holder_seminorm(Field(space, v), p.beta)
    if s > 0.0:
        v = v * (0.9 * p.Q * rng.uniform(0.2, 1.0) / s)
    return Field(space, np.exp(v))


def build_halving_chain(levels=3, n_top=16, seed=0, potentials=None):
    """Exact finite map chain: X_j has n_top / 2^j points, T(y) = floor(y/2).

    Every preimage sits exactly on a point (no interpolation), so dense
    enumeration reproduces the operators bit for bit.  One-sided by nature
    (spaces shrink), which is all the exact unit tests need.
    """
    rng = np.random.default_rng(seed)
    assert n_top % (2 ** levels) == 0
    spaces = []
    n = n_top
    for _ in range(levels + 1):
        idx = np.arange(n)
        dist = np.abs(idx[:, None] - idx[None, :]) / max(n, 1)
        spaces.append(PointSpace.finite(dist))
        n //= 2
    stages = []
    for j in range(levels):
        dom, cod = spaces[j], spaces[j + 1]
        phi = (potentials[j] if potentials is not None
               else rng.uniform(-0.5, 0.5, dom.n_points))
        phi = np.asarray(phi, dtype=np.float64)
        cods = np.arange(cod.n_points)
        bidx = np.stack([2 * cods, 2 * cods + 1])
        stages.append(Stage(
            domain=dom, codomain=cod, branch_index=bidx,
            branch_frac=np.zeros(bidx.shape), branch_weight=np.exp(phi[bidx]),
            forward_index=np.arange(dom.n_points) // 2,
            potential=Field(dom, phi)))
    return StageSeq(n_min=0, n_max=levels, stages=tuple(stages), two_sided=False)


def sampled_doubling_chain(n_top, n_bottom, declared):
    """The doubling map sampled exactly on shrinking circle-distance spaces:
    point i of the n-point space maps to i mod n/2 of the next, n/2-point
    space, with potential 0.1 cos(2 pi x)."""
    spaces = []
    n = n_top
    while n >= n_bottom:
        o = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]) / n
        spaces.append(PointSpace.finite(np.minimum(o, 1.0 - o)))
        n //= 2
    stages = []
    for dom, cod in zip(spaces, spaces[1:]):
        phi = 0.1 * np.cos(2.0 * np.pi * np.arange(dom.n_points) / dom.n_points)
        half = np.arange(cod.n_points)
        bidx = np.stack([half, half + cod.n_points])
        stages.append(Stage(
            domain=dom, codomain=cod, branch_index=bidx,
            branch_frac=np.zeros(bidx.shape), branch_weight=np.exp(phi[bidx]),
            forward_index=np.arange(dom.n_points) % cod.n_points,
            potential=Field(dom, phi)))
    return StageSeq(n_min=0, n_max=len(stages), stages=tuple(stages),
                    two_sided=False, declared=declared)


def snapped_stage(st):
    """A circle stage in the forward-index form of a finite map: its exact
    images snapped to the nearest grid point and its potential sampled on
    the grid, in place of the exact lift and potential."""
    x, n = st.domain.positions, st.codomain.n_points
    return dataclasses.replace(
        st, map_fn=None, potential_fn=None,
        forward_index=np.round((st.map_fn(x) % 1.0) * n).astype(np.int64) % n,
        potential=Field(st.domain, st.potential_fn(x)))


def brute_compose_values(seq, n, k, fvals):
    """(L_n^k f) by pure-python preimage-tree enumeration (exact stages only)."""
    cod = seq.space(n + k)
    out = np.zeros(cod.n_points)
    for x in range(cod.n_points):
        frontier = [(x, 1.0)]
        for j in range(n + k - 1, n - 1, -1):
            st = seq.stage(j)
            nxt = []
            for pt, w in frontier:
                for b in range(st.n_branches):
                    assert st.branch_frac[b, pt] == 0.0
                    nxt.append((int(st.branch_index[b, pt]),
                                w * float(st.branch_weight[b, pt])))
            frontier = nxt
        out[x] = sum(w * fvals[y] for y, w in frontier)
    return out


def ref_column_diameter(mat):
    """Projective diameter of M C+ for one strictly positive matrix, column
    pair by column pair: the per-matrix loop behind the stacked
    hypotheses._column_diameter."""
    logm = np.log(mat)
    best = 0.0
    d = mat.shape[1]
    for a in range(d):
        diff = logm[:, a][:, None] - logm[:, a + 1:]   # log(M[:,a]/M[:,b])
        if diff.size:
            best = max(best, float((diff.max(axis=0) - diff.min(axis=0)).max()))
    return best


def rectangular_operator_chain(n_steps=18, seed=9):
    """An operator chain whose spaces alternate between 3 and 2 points,
    3 -> 2 -> 3 -> ..., with 2 x 3 and 3 x 2 matrices of entries in [1, 2]."""
    rng = np.random.default_rng(seed)
    big, small = PointSpace.simplex(3), PointSpace.simplex(2)
    stages = tuple(Stage(big, small, dense=rng.uniform(1.0, 2.0, (2, 3))) if k % 2 == 0
                   else Stage(small, big, dense=rng.uniform(1.0, 2.0, (3, 2)))
                   for k in range(n_steps))
    return StageSeq(n_min=0, n_max=n_steps, stages=stages)


class CirclePipeline:
    def __init__(self, N, window, tol, **family):
        self.spec = nr.CircleMapSpec.make(N=N, window=window, **family)
        self.seq = nr.build_circle_chain(self.spec)
        self.params = nr.certify_map_hypotheses(self.seq)
        self.Q = nr.default_Q(self.params)
        self.cone = nr.ConeParams(Q=self.Q, delta=self.params.delta,
                                  beta=self.params.beta)
        self.cert = nr.certify_cone_conditions(self.seq, self.cone,
                                               params=self.params)
        self.ledger = nr.derive_constants(self.params, self.Q)
        self.tol = tol
        self.fwd = nr.solve_forward(self.seq, tol=tol, tau=self.cert.tau,
                                    block_factor=self.cert.block_factor,
                                    cone_params=self.cone)
        self.bwd = nr.solve_backward(self.fwd)


PERTURBED = dict(eps=0.05, eps_mode="alternating", a=0.1, a_mode="sin")


@pytest.fixture(scope="session")
def circle_pipeline():
    """The primary grid family: N = 1024, perturbed nonstationary doubling."""
    return CirclePipeline(N=1024, window=(-64, 64), tol=1e-6, **PERTURBED)


@pytest.fixture(scope="session")
def circle_fine():
    """Same family at N = 4096, frozen solves only (pushforward budgets)."""
    spec = nr.CircleMapSpec.make(N=4096, window=(-64, 64), **PERTURBED)
    seq = nr.build_circle_chain(spec)
    params = nr.certify_map_hypotheses(seq)
    cone = nr.ConeParams(Q=nr.default_Q(params), delta=params.delta,
                         beta=params.beta)
    fwd = nr.solve_forward(seq, tol=1e-6, tau=params.tau, block_factor=0.2,
                           cone_params=cone, with_diagnostics=False)
    bwd = nr.solve_backward(fwd, with_diagnostics=False)
    return seq, fwd, bwd


@pytest.fixture(scope="session")
def circle_small():
    """Short window at moderate resolution for the heavy cone sweeps."""
    spec = nr.CircleMapSpec.make(N=256, window=(0, 6), **PERTURBED)
    seq = nr.build_circle_chain(spec)
    params = nr.certify_map_hypotheses(seq)
    cone = nr.ConeParams(Q=nr.default_Q(params), delta=params.delta,
                         beta=params.beta)
    return seq, params, cone


@pytest.fixture(scope="session")
def matrix_pipeline():
    """One seeded random matrix chain, solved with diagnostics."""
    spec = nr.MatrixChainSpec.random(d=3, window=(-50, 50), seed=1234)
    seq = nr.build_matrix_chain(spec)
    cone = nr.ConeParams(Q=1.0, delta=0.5, beta=1.0)
    cert = nr.certify_cone_conditions(seq, cone)
    fwd = nr.solve_forward(seq, tol=1e-10, tau=cert.tau,
                           block_factor=cert.block_factor, cone_params=cone)
    bwd = nr.solve_backward(fwd)
    return spec, seq, cone, cert, fwd, bwd


class ChainRun:
    def __init__(self, spec):
        self.spec = spec
        self.seq = nr.build_matrix_chain(spec)
        self.cone = nr.ConeParams(Q=1.0, delta=0.5, beta=1.0)
        self.cert = nr.certify_cone_conditions(self.seq, self.cone)
        self.fwd = nr.solve_forward(self.seq, tol=1e-10, tau=self.cert.tau,
                                    block_factor=self.cert.block_factor,
                                    cone_params=self.cone)
        self.bwd = nr.solve_backward(self.fwd)
        self.oracle = nr.oracle_rpf_chain(spec)


@pytest.fixture(scope="session")
def random_chain_suite():
    """Twenty seeded random chains, d cycling through {2, 3, 4}, solved and
    cross-checked against the dense oracle.  Elapsed wall time is recorded
    so the acceptance suite can hold the whole batch to its budget."""
    import time
    t0 = time.perf_counter()
    runs = [ChainRun(nr.MatrixChainSpec.random(d=2 + (i % 3), window=(-50, 50),
                                               seed=1000 + i))
            for i in range(20)]
    elapsed = time.perf_counter() - t0
    return runs, elapsed
