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
  distinct eps_n and shared, read-only, by the stages that use that map;
  only the branch weights and the potential are per stage.  A circle stage
  holds its map and potential as exact callables, never sampled.

Oracles recompute the chain data by explicit (log-rescaled) dense matrix
products, independently of the incremental solver code path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvergenceError, DomainError, StructuralError
from .hypotheses import HypothesisParams
from .spaces import PointSpace
from .transfer import Stage, StageSeq, _positive_finite, _real_array, _window_steps

_BISECT_TOL = 1e-13


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
        """W matrices drawn in one call, with the bits and the final
        generator state of W draws of one (d, d) matrix each."""
        _require_states(d)
        if not (0.0 < low <= high < math.inf and seed >= 0):
            raise DomainError("random entries need 0 < low <= high < inf and a seed >= 0")
        k = _window_steps(window)
        return cls(d=d, window=window, seed=seed,
                   matrices=np.random.default_rng(seed).uniform(low, high, size=(k, d, d)))

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
                 seed: Optional[int]) -> np.ndarray:
    if seed is not None and seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    ns = np.arange(window[0], window[1])
    if mode == "constant":
        return np.full(ns.shape, amp)
    if mode == "alternating":
        return amp * np.where(ns % 2 == 0, 1.0, -1.0)
    if mode == "sin":
        return amp * np.sin(ns.astype(np.float64))
    if mode == "random":
        rng = np.random.default_rng(0 if seed is None else seed)
        return rng.uniform(-amp, amp, size=ns.shape)
    raise DomainError(f"unknown coefficient mode {mode!r}")


@dataclass(frozen=True, eq=False)
class CircleMapSpec:
    """Maps x -> 2x + eps_n sin(2 pi x) on the N-point circle grid with
    potentials a_n cos(2 pi x) + b_n."""

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
        for name, amp in (("eps", eps), ("a", a), ("b", b)):
            if not math.isfinite(amp):
                raise DomainError(f"{name} must be finite")
        return cls(N=N, window=window,
                   eps=_mode_values(eps_mode, eps, window, seed),
                   a=_mode_values(a_mode, a, window, None if seed is None else seed + 1),
                   b=_mode_values(b_mode, b, window, None if seed is None else seed + 2),
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


def _circle_map(space: PointSpace, eps: float):
    """Geometry of x -> 2x + eps sin(2 pi x) on the grid, shared by every
    stage with this eps: (lift, branch_index, branch_frac, branch positions).
    The arrays are read-only."""
    n = space.n_points
    x = space.positions

    def lift(y):
        return 2.0 * y + eps * np.sin(2.0 * math.pi * y)

    # branch inverses: the lift is strictly increasing with lift(0) = 0,
    # lift(1/2) = 1, lift(1) = 2, so branch br solves lift(y) = x + br
    # on [br/2, (br+1)/2], independent of eps
    branch_idx = np.empty((2, n), dtype=np.int64)
    branch_frac = np.empty((2, n))
    branch_pos = np.empty((2, n))
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
        branch_pos[br] = scaled / n
    geometry = (branch_idx, branch_frac, branch_pos)
    for arr in geometry:
        arr.flags.writeable = False
    return (lift,) + geometry


def _make_circle_stage(space: PointSpace, geometry, a: float, b: float) -> Stage:
    lift, branch_idx, branch_frac, branch_pos = geometry

    def potential_fn(y):
        return a * np.cos(2.0 * math.pi * y) + b

    return Stage(domain=space, codomain=space, branch_index=branch_idx,
                 branch_frac=branch_frac, branch_weight=np.exp(potential_fn(branch_pos)),
                 potential_fn=potential_fn, map_fn=lift)


def build_circle_chain(spec: CircleMapSpec) -> StageSeq:
    """One stage per window step; the branch inverses are solved once per
    distinct eps_n and shared, with the lift, by the stages with that map."""
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
