"""Separating families of test functions for weak* comparisons and rate checks.

Measures are compared through pairings against a fixed dictionary.  Two
flavors are used:

* the weak* dictionary separates measures at desk scale: the constant
  function plus low Fourier modes (orders up to 8) and a few localized
  bumps on a circle grid, or indicator-like basis fields on a finite set;

* the cone dictionary contains only elements of the log-Holder cone, since
  the explicit exponential rate for measure pairings is stated for cone
  test functions.  Entries are exponentials of slow trigonometric waves and
  of concave distance bumps on a circle grid, or distance bumps
  exp(-(Q/2) d(x, c)^beta) on a finite set, all with log-Holder constant
  at most Q/2.  A finite set whose pair set is empty (every simplex space)
  has all of C+ as its cone and keeps the indicator fields.

Each space gets one ``Dictionary`` per flavor (per Q for the cone flavor,
and per beta where the rows are distance bumps), built on first use and
cached in the space's ``PointSpace._caches``.  It holds the entries
stacked into one read-only matrix, the sup norm of each row and, on
circle grids, the exact callables so pairings against pushforwards can
evaluate the entries at off-grid image points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cones import ConeParams, pair_set
from .spaces import KIND_CIRCLE, PointSpace


@dataclass(frozen=True, eq=False)
class Dictionary:
    matrix: np.ndarray              # (k, n_points): one entry per row, read-only
    norms: np.ndarray               # sup norm of each row
    fns: Optional[tuple]            # exact callables at raw positions (circle), else None


def _dictionary(space: PointSpace, key: tuple, fns, basis: int,
                bumps: Optional[ConeParams] = None) -> Dictionary:
    """The dictionary cached on ``space`` under ``key``, built on first use:
    the callables ``fns()`` sampled on a circle grid, or on a finite space the
    constant function plus one field for each of the first min(n, basis)
    points c: its indicator, or with ``bumps`` exp(-(Q/2) d(x, c)^beta),
    whose log-Holder constant is Q/2 because d^beta is a metric."""
    cached = space._caches.get(key)
    if cached is not None:
        return cached
    if space.kind == KIND_CIRCLE:
        exact = tuple(fns())
        matrix = np.stack([fn(space.positions) for fn in exact])
    else:
        n = space.n_points
        exact = None
        if bumps is None:
            rows = np.eye(min(n, basis), n)
        else:
            rows = np.exp(-0.5 * bumps.Q * space.dist_table[:basis] ** bumps.beta)
        matrix = np.vstack([np.ones(n), rows])
    norms = np.abs(matrix).max(axis=1)
    matrix.setflags(write=False)
    norms.setflags(write=False)
    d = space._caches[key] = Dictionary(matrix=matrix, norms=norms, fns=exact)
    return d


def _weak_fns() -> list:
    fns = [lambda x: np.ones_like(x)]
    for m in range(1, 9):
        fns.append(lambda x, m=m: np.cos(2.0 * math.pi * m * x))
        fns.append(lambda x, m=m: np.sin(2.0 * math.pi * m * x))
    for c in (0.0, 1.0 / 3.0, 2.0 / 3.0):
        def bump(x, c=c):
            o = np.abs(np.asarray(x) - c) % 1.0
            d = np.minimum(o, 1.0 - o)
            return np.exp(-(d / 0.1) ** 2)
        fns.append(bump)
    return fns


def _cone_fns(q: float) -> list:
    fns = [lambda x: np.ones_like(x)]
    amp_budget = 0.5 * q
    for m in range(1, 5):
        amp = amp_budget / (2.0 * math.pi * m)
        fns.append(lambda x, m=m, amp=amp: np.exp(amp * np.cos(2.0 * math.pi * m * x)))
        fns.append(lambda x, m=m, amp=amp: np.exp(amp * np.sin(2.0 * math.pi * m * x)))
    for c in (0.25, 0.75):
        def cone_bump(x, c=c):
            o = np.abs(np.asarray(x) - c) % 1.0
            d = np.minimum(o, 1.0 - o)
            return np.exp(-0.5 * q * d ** 2)
        fns.append(cone_bump)
    return fns


def weak_dictionary(space: PointSpace) -> Dictionary:
    """A separating family of continuous test functions."""
    return _dictionary(space, ("weak",), _weak_fns, 19)


def cone_dictionary(space: PointSpace, p: ConeParams) -> Dictionary:
    """Test functions inside the log-Holder cone (log-Holder constant <= Q/2)."""
    if space.kind != KIND_CIRCLE and len(pair_set(space, p)) > 0:
        return _dictionary(space, ("cone", p.Q, p.beta), None, 12, bumps=p)
    return _dictionary(space, ("cone", p.Q), lambda: _cone_fns(p.Q), 12)


def pairing_vector(dictionary: Dictionary, weights: np.ndarray) -> np.ndarray:
    """Pairings of every entry against raw measure weights, in one matmul.

    ``weights`` is one measure of shape (n_points,) or a stack (R, n_points);
    a stack gets one row of pairings per measure.  Both go through gemv per
    measure, so a stacked row equals ``dictionary.matrix @ row`` bit for bit
    (``weights @ dictionary.matrix.T`` would be a gemm and does not).
    """
    return np.matmul(dictionary.matrix, weights[..., None])[..., 0]
