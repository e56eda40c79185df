"""Built-in chain families and the dense oracles used to cross-check solvers.

Two families:

* Matrix chains: per-index strictly positive d x d matrices acting as
  abstract operator stages on d-point spaces with all pairwise distances 1.
  At locality radius 1/2 the pair set is empty, so the log-Holder cone
  degenerates to the positive cone and the abstract cone conditions apply
  with tau = 1.  These chains are exactly representable, which makes them
  the oracle-friendly testbed.

* Circle chains: degree-2 expanding maps x -> 2x + eps_n sin(2 pi x) mod 1
  on the uniform N-grid with potentials a_n cos(2 pi x) + b_n.  For
  |eps| < 1/(2 pi), the derivative stays in [2 - 2 pi |eps|, 2 + 2 pi |eps|],
  so the map hypotheses hold with analytic parameter values recorded on the
  sequence.  Branch inverses are solved by bisection on the monotone lift to
  1e-13; off-grid function values are linearly interpolated.  The branch
  inverses and the lift depend on eps_n alone, so they are solved once per
  distinct eps_n and shared, read-only, by the stages that use that map,
  with cos(2 pi y) at the branch points.  Only (a_n, b_n) is per stage: a
  circle stage holds its map and potential as exact callables, never
  sampled, its potential an AffinePotential from which the stage derives
  its branch weights exp(a_n cos(2 pi y) + b_n) when they are read.

Oracles recompute the chain data by explicit (log-rescaled) dense matrix
products, independently of the incremental solver code path.

Random matrices and random-mode coefficients are drawn by ``_draw``, a
counter-based mixer over an arange: each is one named stream ("matrix",
"eps", "a", "b") of the seed, so a seed names one chain, and numpy.random
is never imported.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, StructuralError
from .hypotheses import HypothesisParams
from .spaces import PointSpace
from .transfer import (AffinePotential, Stage, StageSeq, _positive_finite, _real_array,
                       _window_steps)

_BISECT_TOL = 1e-13
_EXP_ARG_MAX = math.log(sys.float_info.max)   # exp(x) is finite and positive for |x| below


# ---------------------------------------------------------------------------
# seeded uniform draws
# ---------------------------------------------------------------------------

def _require_seed(seed):
    if not isinstance(seed, (int, np.integer)):
        raise StructuralError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")


def _draw(seed: int, stream: str, low: float, high: float,
          shape: tuple[int, ...]) -> np.ndarray:
    """Uniform draws in [low, high) from a seed's named stream, in C order:
    draw i is the SplitMix64 finalizer of key + i * 0x9E3779B97F4A7C15 (mod
    2^64), its top 53 bits a double u, and the value low + (high - low) u.
    The key mixes the stream name (at most 8 bytes) with each 64-bit word of
    the seed in turn, so seeds of any size stay distinct.  DomainError unless
    high - low is finite and >= 0 and the seed is >= 0; StructuralError for
    a seed that is not an integer."""
    _require_seed(seed)
    low, high = float(low), float(high)
    span = high - low
    if not 0.0 <= span < math.inf:
        raise DomainError(f"uniform draws need low <= high with a finite high - low, "
                          f"got [{low!r}, {high!r}]")

    def mix(z):   # on uint64 arrays, which wrap without an overflow warning
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> 31)

    seed = int(seed)
    key = mix(np.array([int.from_bytes(stream.encode(), "little")], dtype=np.uint64))
    for s in range(0, max(seed.bit_length(), 1), 64):
        key = mix(key ^ np.uint64((seed >> s) & 0xFFFFFFFFFFFFFFFF))
    z = mix(key + np.arange(math.prod(shape), dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15))
    u = (z >> 11).astype(np.float64) * 2.0 ** -53
    return (low + span * u).reshape(shape)


# ---------------------------------------------------------------------------
# matrix chains
# ---------------------------------------------------------------------------

def _require_states(d: int):
    if not (isinstance(d, (int, np.integer)) and d >= 1):
        raise StructuralError(f"a matrix chain needs an integer d >= 1 of states, got {d!r}")


@dataclass(frozen=True, eq=False)
class MatrixChainSpec:
    """Per-index strictly positive matrices M_n over an integer window.

    Entry (x, y) of M_n is the weight carried from domain point y to
    codomain point x, i.e. the exponential of a two-symbol potential.
    ``matrices`` is given as any sequence of d x d matrices and held as one
    float64 (W, d, d) stack over the W window steps, validated once.
    """

    d: int
    window: tuple[int, int]
    matrices: np.ndarray
    seed: Optional[int] = None

    def __post_init__(self):
        _require_states(self.d)
        stack = _real_array(self.matrices)
        if stack.shape[:1] != (_window_steps(self.window),):
            raise StructuralError("need one matrix per window step")
        if stack.shape[1:] != (self.d, self.d):
            raise StructuralError(f"every matrix must be {self.d} x {self.d}")
        if not _positive_finite(stack):
            raise DomainError("matrix entries must be strictly positive and finite")
        object.__setattr__(self, "matrices", stack)

    @classmethod
    def stationary(cls, m, window: tuple[int, int]) -> "MatrixChainSpec":
        m = _real_array(m)
        return cls(d=m.shape[0] if m.ndim else 0, window=window,
                   matrices=np.repeat(m[None], _window_steps(window), axis=0))

    @classmethod
    def random(cls, d: int, window: tuple[int, int], low: float = 1.0,
               high: float = 2.0, seed: int = 0) -> "MatrixChainSpec":
        """W matrices as one (W, d, d) draw of the seed's "matrix" stream, so
        matrix k is the same for every window of at least k + 1 steps that
        starts where this one does."""
        _require_states(d)
        if not 0.0 < low <= high < math.inf:
            raise DomainError("random entries need 0 < low <= high < inf")
        k = _window_steps(window)
        return cls(d=d, window=window, seed=seed,
                   matrices=_draw(seed, "matrix", low, high, (k, d, d)))

    def matrix(self, n: int) -> np.ndarray:
        n_min, n_max = self.window
        if not (n_min <= n < n_max):
            raise StructuralError(f"index {n} outside window [{n_min}, {n_max})")
        return self.matrices[n - n_min]


def build_matrix_chain(spec: MatrixChainSpec) -> StageSeq:
    """Stages whose apply_L is exactly f -> M_n f and dual is sigma -> M_n^T sigma.
    The stages' matrices are the rows of one copy of the spec's stack."""
    space = PointSpace.simplex(spec.d)
    stages = tuple(Stage(space, space, dense=m) for m in spec.matrices.copy())
    return StageSeq(n_min=spec.window[0], n_max=spec.window[1], stages=stages,
                    two_sided=True, declared=None)


# ---------------------------------------------------------------------------
# circle chains
# ---------------------------------------------------------------------------

def _mode_values(mode: str, amp: float, window: tuple[int, int],
                 seed: Optional[int], stream: str) -> np.ndarray:
    ns = np.arange(window[0], window[1])
    if mode == "constant":
        return np.full(ns.shape, amp)
    if mode == "alternating":
        return amp * np.where(ns % 2 == 0, 1.0, -1.0)
    if mode == "sin":
        return amp * np.sin(ns.astype(np.float64))
    if mode == "random":
        return _draw(0 if seed is None else seed, stream, -amp, amp, ns.shape)
    raise DomainError(f"unknown coefficient mode {mode!r}")


@dataclass(frozen=True, eq=False)
class CircleMapSpec:
    """Maps x -> 2x + eps_n sin(2 pi x) on the N-point circle grid with
    potentials a_n cos(2 pi x) + b_n.  DomainError unless every potential
    lies in exp's finite positive range: max|a_n| + max|b_n| < log(max
    float), about 709.78."""

    N: int
    window: tuple[int, int]
    eps: np.ndarray
    a: np.ndarray
    b: np.ndarray
    delta: float = 0.2
    seed: Optional[int] = None

    def __post_init__(self):
        k = _window_steps(self.window)
        if not (isinstance(self.N, (int, np.integer)) and self.N >= 8 and self.N % 2 == 0):
            raise DomainError(f"use an even integer grid with at least 8 points, got {self.N!r}")
        for arr, name in ((self.eps, "eps"), (self.a, "a"), (self.b, "b")):
            if np.asarray(arr).shape != (k,):
                raise StructuralError(f"{name} needs one value per window step")
            if not np.isfinite(arr).all():
                raise DomainError(f"{name} values must be finite")
        bound = float(np.abs(self.a).max()) + float(np.abs(self.b).max())
        if not bound < _EXP_ARG_MAX:
            raise DomainError(f"potentials need max|a| + max|b| < {_EXP_ARG_MAX:.2f} for "
                              f"finite positive weights exp(potential), got {bound:.6g}")
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise DomainError("delta must be positive and finite")
        emax = float(np.abs(self.eps).max())
        if emax >= 1.0 / (2.0 * math.pi):
            raise DomainError("need |eps| < 1/(2 pi) for uniform expansion")
        if (2.0 + 2.0 * math.pi * emax) * self.delta >= 0.5:
            raise DomainError("delta too large for unambiguous circle distances under one step")

    @classmethod
    def make(cls, N: int, window: tuple[int, int], *, eps: float = 0.05,
             eps_mode: str = "alternating", a: float = 0.1, a_mode: str = "sin",
             b: float = 0.0, b_mode: str = "constant", delta: float = 0.2,
             seed: Optional[int] = None) -> "CircleMapSpec":
        _window_steps(window)
        if seed is not None:
            _require_seed(seed)
        for name, amp in (("eps", eps), ("a", a), ("b", b)):
            if not math.isfinite(amp):
                raise DomainError(f"{name} must be finite")
        return cls(N=N, window=window,
                   eps=_mode_values(eps_mode, eps, window, seed, "eps"),
                   a=_mode_values(a_mode, a, window, seed, "a"),
                   b=_mode_values(b_mode, b, window, seed, "b"),
                   delta=delta, seed=seed)

    def declared_params(self) -> HypothesisParams:
        emax = float(np.abs(self.eps).max())
        amax = float(np.abs(self.a).max())
        rho = 1.0 / (2.0 - 2.0 * math.pi * emax)
        # a delta-ball is an arc of length 2 delta; lengths grow by at least
        # 1/rho per step and the circle is covered once the length reaches 1
        tau = max(1, math.ceil(math.log(1.0 / (2.0 * self.delta)) / math.log(1.0 / rho)))
        return HypothesisParams(D=2, delta=self.delta, rho=rho, tau=tau,
                                H=2.0 * math.pi * amax, beta=1.0, V=2.0 * amax)


_GRID_SNAP_UNITS = 1e-9   # in grid units; exact-grid preimages stay exact


def _cos_2pi(y):
    """The basis of the circle potentials, cos(2 pi y) at raw positions y."""
    return np.cos(2.0 * math.pi * y)


def _circle_map(space: PointSpace, eps: float):
    """Geometry of x -> 2x + eps sin(2 pi x) on the grid, shared by every
    stage with this eps: (lift, branch_index, branch_frac, cos(2 pi y) at
    the branch points y).  The arrays are read-only."""
    n = space.n_points
    x = space.positions

    def lift(y):
        return 2.0 * y + eps * np.sin(2.0 * math.pi * y)

    # branch inverses: the lift is strictly increasing with lift(0) = 0,
    # lift(1/2) = 1, lift(1) = 2, so branch br solves lift(y) = x + br
    # on [br/2, (br+1)/2], independent of eps
    branch_idx = np.empty((2, n), dtype=np.int64)
    branch_frac = np.empty((2, n))
    branch_cos = np.empty((2, n))
    for br in range(2):
        target = x + br
        lo = np.full(n, br / 2.0)
        hi = np.full(n, (br + 1) / 2.0)
        while float((hi - lo).max()) > _BISECT_TOL:
            mid = 0.5 * (lo + hi)
            above = lift(mid) > target
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        y = 0.5 * (lo + hi)
        scaled = y * n
        nearest = np.round(scaled)
        snap = np.abs(scaled - nearest) < _GRID_SNAP_UNITS
        scaled = np.where(snap, nearest, scaled)
        base = np.floor(scaled).astype(np.int64)
        branch_idx[br] = base % n
        branch_frac[br] = scaled - base
        branch_cos[br] = _cos_2pi(scaled / n)
    geometry = (branch_idx, branch_frac, branch_cos)
    for arr in geometry:
        arr.flags.writeable = False
    return (lift,) + geometry


def _make_circle_stage(space: PointSpace, geometry, a: float, b: float) -> Stage:
    lift, branch_idx, branch_frac, branch_cos = geometry
    return Stage(domain=space, codomain=space, branch_index=branch_idx,
                 branch_frac=branch_frac, map_fn=lift,
                 potential_fn=AffinePotential(a, b, _cos_2pi, branch_cos))


def build_circle_chain(spec: CircleMapSpec) -> StageSeq:
    """One stage per window step; the branch inverses are solved once per
    distinct eps_n and shared, with the lift and the cosine table, by the
    stages with that map.  A stage holds its (a_n, b_n) and derives its
    weights."""
    space = PointSpace.circle_grid(spec.N)
    steps_of = {}   # eps -> the window steps that use that map
    for k in range(spec.window[1] - spec.window[0]):
        steps_of.setdefault(float(spec.eps[k]), []).append(k)
    stages = [None] * (spec.window[1] - spec.window[0])
    for eps, steps in steps_of.items():
        geometry = _circle_map(space, eps)
        for k in steps:
            stages[k] = _make_circle_stage(space, geometry, float(spec.a[k]),
                                           float(spec.b[k]))
    return StageSeq(n_min=spec.window[0], n_max=spec.window[1], stages=tuple(stages),
                    two_sided=True, declared=spec.declared_params())


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_stationary_rpf(m: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Classical single-matrix eigendata by 2000 steps of power iteration.

    Returns (lam, m_left, h_right) with m_left a probability vector and
    <h, m> = 1.  Left and right iterations run independently; a Rayleigh
    check at relative 1e-13 guards against non-convergence and raises
    ConvergenceError when it fails.
    """
    m = _real_array(m)
    if m.ndim != 2 or not 0 < m.shape[0] == m.shape[1]:
        raise StructuralError(f"the stationary oracle needs a square matrix, got shape {m.shape}")
    if not _positive_finite(m):   # NaN fails
        raise DomainError("the stationary oracle needs a strictly positive finite matrix")
    d = m.shape[0]
    v = np.full(d, 1.0 / d)            # right vector, h direction
    w = np.full(d, 1.0 / d)            # left vector, eigenmeasure direction
    lam = 0.0
    for _ in range(2000):
        v_new = m @ v
        lam = float(v_new.sum() / v.sum())
        v = v_new / v_new.sum()
        w_new = m.T @ w
        w = w_new / w_new.sum()
    rayleigh = float(w @ (m @ v)) / float(w @ v)
    if abs(rayleigh - lam) > 1e-13 * max(1.0, abs(lam)):
        raise ConvergenceError(f"power iteration drift {abs(rayleigh - lam)}")
    w = w / w.sum()
    v = v / float(v @ w)
    return lam, w, v


def _pullback_chain(spec: MatrixChainSpec, tail: int, bottom: int):
    """Normalized dual products (M_n^T ... ) from the uniform seed at the tail
    level downward.

    Returns dicts n -> weights and n -> lam with  M_n^T m_{n+1} = lam_n m_n
    exact by construction, mirroring the limit's defining quotients.
    """
    d = spec.d
    weights = {tail: np.full(d, 1.0 / d)}
    lams = {}
    for n in range(tail - 1, bottom - 1, -1):
        raw = spec.matrix(n).T @ weights[n + 1]
        mass = float(raw.sum())
        lams[n] = mass
        weights[n] = raw / mass
    return weights, lams


def oracle_rpf_chain(spec: MatrixChainSpec):
    """Full oracle chain (lam_n, m_n, h_n) from dense log-rescaled products.

    m and lam come from one dual sweep off the window top; h_n is the
    forward product from the window bottom, normalized with the oracle's own
    lam and m.  Shares no code with the incremental solver.
    """
    bottom, tail = spec.window
    weights, lams = _pullback_chain(spec, tail, bottom)
    d = spec.d
    h = {bottom: np.ones(d) / float(np.ones(d) @ weights[bottom])}
    for n in range(bottom, tail):
        h[n + 1] = (spec.matrix(n) @ h[n]) / lams[n]
    return lams, weights, h
