import functools
import math
import pathlib
import warnings

import numpy as np
import pytest

from nsrpf.cli import parse_config
from nsrpf.errors import ConvergenceError, DomainError, StructuralError
from nsrpf.spaces import Field, MeasureVec, PointSpace
from nsrpf.systems import (CircleMapSpec, MatrixChainSpec, _draw, build_circle_chain,
                           build_matrix_chain, oracle_rpf_chain,
                           oracle_stationary_rpf)
from nsrpf.transfer import Stage, StageSeq, apply_L, apply_L_dual

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


MALFORMED = {
    "ragged": ([[1.0, 2.0], [3.0]], StructuralError),
    "string": (np.array([["1", "2"], ["3", "4"]]), StructuralError),
    "object-none": (np.array([[1.0, None], [1.0, 1.0]], dtype=object), StructuralError),
    "complex": (np.ones((2, 2)) * (1 + 1j), DomainError),
}


@pytest.mark.parametrize("entry", ["spec", "stationary", "stage"])
@pytest.mark.parametrize("kind", list(MALFORMED))
def test_malformed_matrices_raise_typed_errors(kind, entry):
    """Ragged and non-numeric matrices are structural errors and complex ones
    domain errors, at every entry point, with no numpy error or warning."""
    m, error = MALFORMED[kind]
    sp = PointSpace.simplex(2)
    make = {"spec": lambda: MatrixChainSpec(d=2, window=(0, 2), matrices=(np.ones((2, 2)), m)),
            "stationary": lambda: MatrixChainSpec.stationary(m, (0, 2)),
            "stage": lambda: Stage(sp, sp, dense=m)}[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as e:
            make()
    assert type(e.value) is error


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_matrix_spec_and_stage_reject_entries_outside_the_positive_reals(bad):
    m = np.ones((2, 2))
    m[1, 0] = bad
    sp = PointSpace.simplex(2)
    with pytest.raises(DomainError):
        MatrixChainSpec(d=2, window=(0, 2), matrices=(np.ones((2, 2)), m))
    with pytest.raises(DomainError):
        Stage(sp, sp, dense=m)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_a_window_is_the_prefix_of_any_longer_window(d):
    """A seed's stream is indexed by the draw, not by the shape: the matrices
    of a window are the first matrices of every longer window with the same
    start, and so are a random circle's coefficients.  The spec keeps the
    matrices only, no generator state."""
    seed, start = 1472442089 + d, -50
    short = MatrixChainSpec.random(d=d, window=(start, 10), seed=seed)
    assert short.matrices.shape == (60, d, d) and short.matrices.dtype == np.float64
    circle = CircleMapSpec.make(N=64, window=(start, 10), eps_mode="random", a_mode="random",
                                b=0.1, b_mode="random", seed=seed)
    for end in (11, 50, 300):
        longer = MatrixChainSpec.random(d=d, window=(start, end), seed=seed)
        assert np.array_equal(longer.matrices[:60].view(np.uint64),
                              short.matrices.view(np.uint64))
        wide = CircleMapSpec.make(N=64, window=(start, end), eps_mode="random", a_mode="random",
                                  b=0.1, b_mode="random", seed=seed)
        for name in ("eps", "a", "b"):
            assert np.array_equal(getattr(wide, name)[:60], getattr(circle, name)), (end, name)


_M64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=None)
def _reference_u(seed: int, stream: str, n: int) -> tuple:
    """The first n unit draws of a seed's stream in Python ints and floats:
    the key is the mixed stream name folded with each 64-bit seed word, and
    draw i mixes key + i * 0x9E3779B97F4A7C15 and keeps its top 53 bits."""
    key = _splitmix64(int.from_bytes(stream.encode(), "little"))
    for s in range(0, max(seed.bit_length(), 1), 64):
        key = _splitmix64(key ^ ((seed >> s) & _M64))
    return tuple((_splitmix64((key + i * 0x9E3779B97F4A7C15) & _M64) >> 11) * 2.0 ** -53
                 for i in range(n))


UNIFORM_SEEDS = [*range(200), 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3, 2**160 + 11]
UNIFORM_SHAPES = [s for w in (1, 100) for s in [(w,)] + [(w, d, d) for d in range(1, 5)]]
STREAMS = ("matrix", "eps", "a", "b")


@pytest.mark.parametrize("low, high", [(1.0, 2.0), (-0.05, 0.05), (-0.0, 0.0), (5.0, 5.0)])
def test_draw_is_the_reference_mixer_bit_for_bit(low, high):
    """``_draw`` against a pure-Python-int SplitMix64 reference, compared as
    uint64 bit patterns: seeds 0..199, the largest 32-bit seed, 2^32 and
    2^40 + 7, 2^64 + 3 (two 64-bit words) and 2^160 + 11 (three), every
    stream, flat and (W, d, d) shapes."""
    n = max(math.prod(s) for s in UNIFORM_SHAPES)
    for seed in UNIFORM_SEEDS:
        stream = STREAMS[seed % len(STREAMS)]
        want_all = np.array([low + (high - low) * u for u in _reference_u(seed, stream, n)])
        for shape in UNIFORM_SHAPES:
            got = _draw(seed, stream, low, high, shape)
            want = want_all[:math.prod(shape)].reshape(shape)
            assert got.shape == shape and got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, shape)


def test_seeds_and_streams_draw_distinct_sequences():
    """Seeds that agree in their low 64 bits, and the four streams of one
    seed, draw different sequences."""
    draws = {(seed, stream): _draw(seed, stream, 0.0, 1.0, (16,)).tobytes()
             for seed in (0, 3, 2**64, 2**64 + 3, 2**128 + 3) for stream in STREAMS}
    assert len(set(draws.values())) == len(draws)


@pytest.mark.parametrize("seed", range(10))
def test_a_seeds_coefficients_are_not_the_next_seeds_rescaled(seed):
    """Each coefficient of a random circle draws its own stream of the seed,
    so no coefficient of seed s is another coefficient of seed s + 1
    rescaled, as a drawn from seed + 1 would be eps of seed s + 1 doubled."""
    def make(s):
        return CircleMapSpec.make(N=64, window=(-32, 32), eps=0.05, eps_mode="random",
                                  a=0.1, a_mode="random", b=0.1, b_mode="random", seed=s)
    this, after = make(seed), make(seed + 1)
    assert not np.array_equal(this.a * 0.5, after.eps)
    for mine, theirs in ((this.a, after.eps), (this.b, after.a), (this.b, after.eps),
                         (this.a, this.eps), (this.b, this.a)):
        assert abs(np.corrcoef(mine, theirs)[0, 1]) < 0.5


def test_stationary_spec_is_one_stack_of_copies():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    spec = MatrixChainSpec.stationary(m, (-2, 3))
    assert spec.matrices.shape == (5, 2, 2)
    assert all(np.array_equal(spec.matrix(n), m) for n in range(-2, 3))
    m[0, 0] = 7.0   # the spec holds its own copy
    assert spec.matrix(0)[0, 0] == 2.0


def test_matrix_spec_rejects_no_states():
    for d in (0, -1):
        with pytest.raises(StructuralError, match="d >= 1"):
            MatrixChainSpec.random(d=d, window=(0, 4), seed=1)
    with pytest.raises(StructuralError, match="d >= 1"):
        MatrixChainSpec(d=0, window=(0, 1), matrices=(np.ones((0, 0)),))
    with pytest.raises(StructuralError, match="d >= 1"):
        MatrixChainSpec.stationary(np.ones((0, 0)), (0, 2))


@pytest.mark.parametrize("low, high, seed", [
    (math.nan, 2.0, 0), (1.0, math.inf, 0), (2.5, 2.0, 0), (0.0, 2.0, 0), (1.0, 2.0, -1)])
def test_random_specs_reject_bad_ranges_and_seeds(low, high, seed):
    with pytest.raises(DomainError):
        MatrixChainSpec.random(d=2, window=(0, 4), low=low, high=high, seed=seed)


@pytest.mark.parametrize("mode", ["constant", "random"])
def test_circle_spec_rejects_a_negative_seed(mode):
    with pytest.raises(DomainError, match="seed"):
        CircleMapSpec.make(N=64, window=(0, 4), eps_mode=mode, seed=-1)


@pytest.mark.parametrize("window", [(0, 0), (3, -3)], ids=["empty", "reversed"])
@pytest.mark.parametrize("make", [
    lambda w: CircleMapSpec.make(N=16, window=w),
    lambda w: StageSeq(n_min=w[0], n_max=w[1], stages=()),
    lambda w: MatrixChainSpec.random(d=2, window=w, seed=1),
], ids=["circle", "stage_seq", "matrix"])
def test_constructors_reject_an_empty_window(make, window):
    with pytest.raises(StructuralError, match="window must be nonempty"):
        make(window)


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


@pytest.mark.parametrize("field, value", [
    ("eps", math.nan), ("eps", math.inf), ("a", math.nan), ("a", -math.inf),
    ("b", math.inf), ("delta", math.nan), ("delta", math.inf), ("delta", 0.0),
    ("delta", -0.1)])
@pytest.mark.parametrize("mode", ["constant", "sin", "random"])
def test_circle_spec_rejects_non_finite_coefficients(field, value, mode):
    kwargs = dict(eps=0.05, a=0.1, b=0.0, delta=0.2)
    kwargs[field] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            CircleMapSpec.make(N=64, window=(0, 4), eps_mode=mode, a_mode=mode,
                               b_mode=mode, seed=1, **kwargs)
    if field != "delta":
        # the constructor checks the per-index values themselves
        values = dict(eps=np.full(4, 0.05), a=np.zeros(4), b=np.zeros(4))
        values[field] = np.array([0.0, value, 0.0, 0.0])
        with pytest.raises(DomainError, match=f"{field} values must be finite"):
            CircleMapSpec(N=64, window=(0, 4), **values)


def _reference_stage_arrays(N, eps, a, b):
    """One stage's arrays from first principles: bisect each branch inverse of
    T(y) = 2y + eps sin(2 pi y) to 1e-13, snap to the grid within 1e-9 grid
    units, and weigh by exp(a cos(2 pi y) + b)."""
    x = np.arange(N, dtype=np.float64) / N

    def T(y):
        return 2.0 * y + eps * np.sin(2.0 * math.pi * y)

    def phi(y):
        return a * np.cos(2.0 * math.pi * y) + b

    rows = {"branch_index": [], "branch_frac": [], "branch_weight": []}
    for br in (0, 1):
        lo, hi = np.full(N, br / 2.0), np.full(N, (br + 1) / 2.0)
        while (hi - lo).max() > 1e-13:
            mid = 0.5 * (lo + hi)
            up = T(mid) > x + br
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        s = 0.5 * (lo + hi) * N
        r = np.round(s)
        s = np.where(np.abs(s - r) < 1e-9, r, s)
        base = np.floor(s)
        rows["branch_index"].append(base.astype(np.int64) % N)
        rows["branch_frac"].append(s - base)
        rows["branch_weight"].append(np.exp(phi(s / N)))
    out = {k: np.array(v) for k, v in rows.items()}
    out["image"] = T(x) % 1.0
    out["potential"] = phi(x)
    return out


GEOMETRY = ("branch_index", "branch_frac")

SHIPPED_CIRCLE = pathlib.Path(__file__).resolve().parent.parent / "configs" / "circle_perturbed.ini"


@pytest.mark.parametrize("spec, n_maps", [
    (CircleMapSpec.make(N=64, window=(-6, 6), eps=0.05, eps_mode="alternating"), 2),
    (CircleMapSpec.make(N=64, window=(-6, 6), eps=0.0, eps_mode="constant"), 1),
    (CircleMapSpec.make(N=64, window=(-6, 6), eps=0.05, eps_mode="sin", b=0.3), 12),
    (CircleMapSpec.make(N=64, window=(-6, 6), eps=0.05, eps_mode="random",
                        a_mode="random", seed=11), 12),
    (parse_config(str(SHIPPED_CIRCLE)).system, 2),
], ids=["alternating", "constant", "sin", "random", "shipped"])
def test_circle_stages_match_a_per_stage_reference(spec, n_maps):
    seq = build_circle_chain(spec)
    first = {}
    for k, n in enumerate(seq.stage_indices):
        st = seq.stage(n)
        eps = float(spec.eps[k])
        want = _reference_stage_arrays(spec.N, eps, float(spec.a[k]), float(spec.b[k]))
        for name in GEOMETRY + ("branch_weight",):
            assert np.array_equal(getattr(st, name), want[name]), (n, name)
        # a circle stage holds its map and potential only as exact callables
        assert st.forward_index is None and st.potential is None, n
        x = st.domain.positions
        assert np.array_equal(st.map_fn(x) % 1.0, want["image"]), n
        assert np.array_equal(st.potential_fn(x), want["potential"]), n
        # one geometry per distinct eps, shared by identity
        first.setdefault(eps, st)
        for other_eps, other in first.items():
            same = other_eps == eps
            assert (st.map_fn is other.map_fn) == same, n
            for name in GEOMETRY:
                assert (getattr(st, name) is getattr(other, name)) == same, (n, name)
    assert len(first) == n_maps


def test_shared_circle_geometry_is_read_only():
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 4), eps=0.05,
                                                eps_mode="alternating"))
    st, twin = seq.stage(0), seq.stage(2)
    assert st.branch_frac is twin.branch_frac
    for name in GEOMETRY:
        arr = getattr(st, name)
        before = arr.copy()
        with pytest.raises(ValueError):
            arr[..., 0] = arr[..., 1]
        assert np.array_equal(getattr(twin, name), before)


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


def test_stationary_oracle_drift_is_a_convergence_error():
    # eigenvalue gap ~1e-4.5: 2000 power steps leave a Rayleigh drift ~1e-4
    with pytest.raises(ConvergenceError, match="power iteration drift"):
        oracle_stationary_rpf(np.array([[1.0, 1e-6], [1e-3, 1.0]]))


def test_oracle_products_stationary_limit():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    lams, ms, hs = oracle_rpf_chain(MatrixChainSpec.stationary(m, (-220, 220)))
    lam, mw, hv = oracle_stationary_rpf(m)
    assert lams[0] == pytest.approx(lam, abs=1e-10)
    assert np.allclose(ms[0], mw, atol=1e-10)
    assert np.allclose(hs[0], hv, atol=1e-10)


def test_oracle_chain_telescopes():
    spec = MatrixChainSpec.random(d=3, window=(-10, 10), seed=4)
    lams, ms, hs = oracle_rpf_chain(spec)
    for n in range(-10, 9):
        lhs = spec.matrix(n).T @ ms[n + 1]
        assert np.allclose(lhs, lams[n] * ms[n], rtol=1e-12)
        assert np.allclose(spec.matrix(n) @ hs[n], lams[n] * hs[n + 1], rtol=1e-12)
