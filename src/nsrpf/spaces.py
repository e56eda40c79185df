"""Finite models of compact metric spaces, with functions and measures on them.

Two kinds of space are supported: an explicit finite point set with a stored
distance table, checked to be a metric, and the uniform circle grid
{k/N : 0 <= k < N} with arc-length distance min(|x - y|, 1 - |x - y|).  A
Field is a real-valued function on a space, a MeasureVec is a vector of
nonnegative weights, and the duality pairing is

    <f, sigma> = sum_i f(x_i) w_i.

Everything is float64.  Spaces are immutable and meant to be *shared*: Field
and MeasureVec operations require identical space objects (``is``), which
keeps mixups between stages of a chain loud instead of silent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructuralError

KIND_FINITE = "finite-discrete"
KIND_CIRCLE = "circle-grid"


@dataclass(frozen=True, eq=False)
class PointSpace:
    """A finite sample of a compact metric space.

    For ``circle-grid`` the points are k/N and distances are computed on
    demand from the arc-length formula; for ``finite-discrete`` a full
    distance table is stored (fine at desk scale, N <= 4096).
    """

    kind: str
    n_points: int
    positions: np.ndarray | None = None      # circle grid: k/N
    dist_table: np.ndarray | None = None     # finite-discrete only
    _caches: dict = field(default_factory=dict, repr=False, compare=False)  # pair sets, dictionaries

    @classmethod
    def circle_grid(cls, n: int) -> "PointSpace":
        if n < 2:
            raise DomainError("circle grid needs at least 2 points")
        pos = np.arange(n, dtype=np.float64) / n
        pos.setflags(write=False)
        return cls(kind=KIND_CIRCLE, n_points=n, positions=pos)

    @classmethod
    def finite(cls, dist: np.ndarray) -> "PointSpace":
        d = np.asarray(dist, dtype=np.float64)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise StructuralError("distance table must be square")
        if not np.allclose(d, d.T, atol=0.0):
            raise StructuralError("distance table must be symmetric")
        if np.any(np.diag(d) != 0.0) or np.any(d < 0.0):
            raise StructuralError("distances must be nonnegative with zero diagonal")
        # triangle inequality through every k, up to roundoff on the largest entry
        slack = 1e-12 * float(d.max(initial=0.0))
        for k in range(d.shape[0]):
            if np.any(d > d[:, k, None] + d[None, k, :] + slack):
                raise StructuralError("distance table violates the triangle inequality")
        d = d.copy()
        d.setflags(write=False)
        return cls(kind=KIND_FINITE, n_points=d.shape[0], dist_table=d)

    @classmethod
    def simplex(cls, n: int) -> "PointSpace":
        """n points, all pairwise distances 1 (the metric used for operator
        chains): a metric by construction, built without finite()'s checks."""
        d = 1.0 - np.eye(n)
        d.setflags(write=False)
        return cls(kind=KIND_FINITE, n_points=n, dist_table=d)

    def distance(self, i, j) -> np.ndarray:
        """Pairwise distance for (arrays of) point indices."""
        i = np.asarray(i)
        j = np.asarray(j)
        if self.kind == KIND_CIRCLE:
            o = np.abs(i - j) / self.n_points
            return np.minimum(o, 1.0 - o)
        return self.dist_table[i, j]

    def circle_offsets(self, delta: float) -> tuple[np.ndarray, np.ndarray]:
        """The grid offsets 1 <= o <= N/2 of a circle grid whose arc
        distance o/N is at most delta, and those distances: every o up to
        floor(delta N), with 1e-9 of slack for a delta N that is whole up to
        roundoff, and at most N // 2, since offset N - o joins the same
        point pairs as o.  The one rule for delta-close grid points."""
        if self.kind != KIND_CIRCLE:
            raise StructuralError("grid offsets only make sense on a circle grid")
        n = self.n_points
        o = np.arange(1, min(math.floor(delta * n + 1e-9), n // 2) + 1)
        d = o / n
        close = d <= delta + 1e-15
        return o[close], d[close]

    def circle_distance_points(self, x, y) -> np.ndarray:
        """Arc distance between raw positions (circle spaces only)."""
        if self.kind != KIND_CIRCLE:
            raise StructuralError("positions only make sense on a circle grid")
        o = np.abs(np.asarray(x) - np.asarray(y)) % 1.0
        return np.minimum(o, 1.0 - o)


def _check_same_space(a, b):
    if a.space is not b.space:
        raise StructuralError("operands live on different spaces")


@dataclass(frozen=True, eq=False)
class Field(object):
    """A real-valued function on a PointSpace."""

    space: PointSpace
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.space.n_points,):
            raise StructuralError(
                f"field has {v.shape} values for a space of {self.space.n_points} points")
        if not np.isfinite(v).all():
            raise DomainError("field values must be finite")
        object.__setattr__(self, "values", v)

    def sup(self) -> float:
        return float(self.values.max())

    def inf(self) -> float:
        return float(self.values.min())

    def norm_inf(self) -> float:
        return float(np.abs(self.values).max())

    # Convenience arithmetic (fields are immutable; these build new ones).
    def __add__(self, other):
        if isinstance(other, Field):
            _check_same_space(self, other)
            return Field(self.space, self.values + other.values)
        return Field(self.space, self.values + float(other))

    __radd__ = __add__

    def __mul__(self, c):
        if isinstance(c, Field):
            _check_same_space(self, c)
            return Field(self.space, self.values * c.values)
        return Field(self.space, self.values * float(c))

    __rmul__ = __mul__


def unit_field(space: PointSpace) -> Field:
    return Field(space, np.ones(space.n_points))


@dataclass(frozen=True, eq=False)
class MeasureVec:
    """Nonnegative weights on a PointSpace (a positive finite measure)."""

    space: PointSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (self.space.n_points,):
            raise StructuralError(
                f"measure has {w.shape} weights for a space of {self.space.n_points} points")
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
        if (w < 0.0).any():
            raise DomainError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, space: PointSpace) -> "MeasureVec":
        return cls(space, np.full(space.n_points, 1.0 / space.n_points))


def pair(f: Field, sigma: MeasureVec) -> float:
    """Duality pairing <f, sigma> = sum_i f(x_i) w_i."""
    _check_same_space(f, sigma)
    return float(f.values @ sigma.weights)


def total_mass(sigma: MeasureVec) -> float:
    return float(sigma.weights.sum())


def normalize(sigma: MeasureVec) -> MeasureVec:
    """Rescale to total mass 1.  The zero measure is rejected."""
    m = total_mass(sigma)
    if m <= 0.0:
        raise DomainError("cannot normalize a zero measure")
    return MeasureVec(sigma.space, sigma.weights / m)


def holder_seminorm(f: Field, beta: float) -> float:
    """sup over pairs x != y of |f(x) - f(y)| / d(x, y)^beta."""
    if beta <= 0.0:
        raise DomainError("beta must be positive")
    space = f.space
    n = space.n_points
    if n < 2:
        raise DomainError("the seminorm needs at least two points")
    v = f.values
    if space.kind == KIND_CIRCLE:
        best = 0.0
        for o in range(1, n // 2 + 1):
            d = min(o / n, 1.0 - o / n)
            diff = np.abs(v - np.roll(v, o)).max()
            best = max(best, diff / d ** beta)
        return float(best)
    iu, ju = np.triu_indices(n, k=1)
    d = space.dist_table[iu, ju]
    good = d > 0.0
    if not np.all(good):
        # coincident sample points carry no Holder information
        iu, ju, d = iu[good], ju[good], d[good]
    return float((np.abs(v[iu] - v[ju]) / d ** beta).max())
