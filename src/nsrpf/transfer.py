"""Transfer operators for one step of a nonstationary chain, and their algebra.

A Stage encodes one positive operator L : C(X_n) -> C(X_{n+1}) in exactly
one of two representations, and the kernels dispatch once on which:

* a branch table, for map stages: L is given in preimage form,

      (L f)(x) = sum over preimage branches y of x  of  w(y) f(y),

  with strictly positive branch weights w(y) = exp(potential at y), held
  as (grid index, interpolation fraction, weight) triples.  On a circle
  grid the branch preimages are solved off-grid and f(y) is linearly
  interpolated between grid neighbours; on finite point sets preimages sit
  exactly on points (fraction 0).  A stage whose exact potential is an
  AffinePotential, a g + b over a basis g tabulated at its branch points
  (the built-in circle chains), derives its weights exp(a g + b) from that
  table whenever they are read and stores none; every other branch-table
  stage (finite maps, normalized stages, hand-built tables) stores the
  weights it was given;
* a dense matrix, for operator stages given by a strictly positive matrix
  M: L is exactly f -> M f, and no forward map exists.

The dual is the exact transpose of the linear map apply_L, so the adjoint
identity <f, L* sigma> = <L f, sigma> holds to roundoff by construction.
Compositions are evaluated by sequential application; dense products are
kept to the oracle code paths.

The two raw kernels behind apply_L and apply_L_dual, _apply_values and
_dual_weights, are the only per-stage entry: every solver sweep, verifier
and the cone certificate calls them directly.  Both also take a stack of
rows, one vector per row, and give every row the same bits as a call on
that row alone, so a stack pays off where one call serves all its rows:
the solvers' sweeps push all depths of one index through its stage in one
call.  On a branch table a call computes the stage's invariants (the
weights, 1 - frac, the next-point indices and the output) once and loops
over the rows, each gathered with ndarray.take and blended, weighted and
summed in place; the dual weights each row once for all branches and adds
the branches' bincounts in a fixed order.  Per-row work on rows of a few
thousand points stays in cache, which a batched (R, B, n) gather does not.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, StructuralError
from .spaces import KIND_CIRCLE, Field, MeasureVec, PointSpace


@dataclass(frozen=True, eq=False, slots=True)
class AffinePotential:
    """The exact potential y -> a g(y) + b of a circle stage, for a basis g
    shared by the stages of one map and tabulated at their branch points.

    The stage's branch weights exp(a g + b) are derived from the table when
    read, with the bits of ``np.exp(potential(branch positions))``, so only
    (a, b) is per stage."""

    a: float
    b: float
    basis: Callable              # g at raw positions
    at_branches: np.ndarray      # g at the branch points, (B, n_cod), shared

    def __call__(self, y):
        return self.a * self.basis(y) + self.b

    def branch_weight(self) -> np.ndarray:
        w = self.a * self.at_branches
        w += self.b
        return np.exp(w, out=w)


def _weight_source(stage) -> Optional[AffinePotential]:
    """The potential a stage derives its branch weights from: its exact
    potential when that is an AffinePotential and no weights were given."""
    pot = stage.potential_fn
    if stage.__dict__["_given_weight"] is None and isinstance(pot, AffinePotential):
        return pot
    return None


class _BranchWeight:
    """The field ``Stage.branch_weight``: the weights a stage was given or,
    on a stage with a _weight_source, the weights derived from it, computed
    anew at every read."""

    def __get__(self, stage, owner=None):
        if stage is None:
            return None   # the field's default
        source = _weight_source(stage)
        return stage.__dict__["_given_weight"] if source is None else source.branch_weight()

    def __set__(self, stage, value):
        stage.__dict__["_given_weight"] = value


@dataclass(frozen=True, eq=False)
class Stage:
    """One step (X_n, T_n, phi_n) of the chain: a branch table or a matrix.

    Map stages hold a branch table: ``branch_index[b, x]`` is the base grid
    index of the b-th preimage of codomain point x, ``branch_frac[b, x]`` its
    interpolation fraction toward the next grid point, ``branch_weight[b, x]``
    the positive weight exp(potential) of that branch; plus at most one form
    of the forward map and its potential: on finite point sets the image
    index of each domain point and the sampled potential, on circle grids
    the exact lift and the exact potential at raw positions.  Operator
    stages hold only ``dense``, the strictly positive (n_codomain, n_domain)
    matrix of L.

    ``branch_weight`` reads as the (B, n_codomain) float64 array on every
    map stage.  A stage built without it whose ``potential_fn`` is an
    AffinePotential (the built-in circle chains) derives it from that
    potential at each read, ``np.exp(a * table + b)``, and stores no
    weights; any other map stage stores the weights it was given.  Either
    form is validated once, here; a kernel reads the weights once per call.
    """

    domain: PointSpace
    codomain: PointSpace
    branch_index: Optional[np.ndarray] = None    # (B, n_cod) int64
    branch_frac: Optional[np.ndarray] = None     # (B, n_cod) float64 in [0, 1)
    branch_weight: Optional[np.ndarray] = _BranchWeight()   # (B, n_cod) float64 > 0
    forward_index: Optional[np.ndarray] = None   # (n_dom,) image index, finite form
    potential: Optional[Field] = None            # sampled potential, finite form
    potential_fn: Optional[Callable] = None      # exact potential at raw positions
    map_fn: Optional[Callable] = None            # exact lift of the forward map
    dense: Optional[np.ndarray] = None           # operator stages: the matrix of L

    def __post_init__(self):
        n_dom, n_cod = self.domain.n_points, self.codomain.n_points
        weight, source = self.__dict__["_given_weight"], _weight_source(self)
        if source is not None:
            with np.errstate(over="ignore", invalid="ignore"):   # judged below
                weight = source.branch_weight()
        table = (self.branch_index, self.branch_frac, weight)
        if (self.dense is None) == all(a is None for a in table):
            raise StructuralError("a stage needs exactly one of a branch table and a matrix")
        finite = (self.forward_index is not None, self.potential is not None)
        exact = (self.map_fn is not None, self.potential_fn is not None)
        if any(finite) and any(exact):
            raise StructuralError("a map stage holds one form of its map and potential")
        if len(set(finite)) > 1 or len(set(exact)) > 1:
            raise StructuralError("a map form needs both its map and its potential")
        if self.map_fn is not None and not (
                self.domain.kind == self.codomain.kind == KIND_CIRCLE):
            raise StructuralError("an exact lift needs circle-grid spaces")
        if self.potential is not None and self.potential.space is not self.domain:
            raise StructuralError("the sampled potential must live on the domain")
        # the stage stores the arrays it validated: float64 values and int64
        # indices, the given arrays themselves when they already are
        if self.dense is not None:
            if any(finite + exact):
                raise StructuralError("operator stages hold only their matrix")
            dense = _real_array(self.dense)
            if dense.shape != (n_cod, n_dom):
                raise StructuralError("matrix shape must be (n_codomain, n_domain)")
            if not _positive_finite(dense):
                raise DomainError("operator stages need strictly positive finite entries")
            object.__setattr__(self, "dense", dense)
            return
        shape_error = "branch arrays must share one (B, n_codomain) shape"
        if any(a is None for a in table):   # a partial table
            raise StructuralError(shape_error)
        index = _index_array(self.branch_index, n_dom,
                             "branch indices must be integers in [0, n_domain)")
        frac, weight = _real_array(self.branch_frac), _real_array(weight)
        if index.ndim != 2 or not index.shape == frac.shape == weight.shape:
            raise StructuralError(shape_error)
        if index.shape[1] != n_cod:
            raise StructuralError("branch arrays must be indexed by codomain points")
        if frac.size and not (frac.min() >= 0.0 and frac.max() < 1.0):   # NaN fails
            raise StructuralError("branch fractions must be finite and in [0, 1)")
        if not _positive_finite(weight):
            raise StructuralError("branch weights must be strictly positive and finite")
        if self.forward_index is not None:
            object.__setattr__(self, "forward_index", _index_array(
                self.forward_index, n_cod, "forward indices must be integers in [0, n_codomain)"))
        object.__setattr__(self, "branch_index", index)
        object.__setattr__(self, "branch_frac", frac)
        if source is None:   # derived weights stay unstored
            object.__setattr__(self, "branch_weight", weight)

    @property
    def n_branches(self) -> int:
        """Branches per codomain point; every domain point on an operator stage."""
        return self.domain.n_points if self.dense is not None else self.branch_index.shape[0]

    @property
    def has_map(self) -> bool:
        return self.forward_index is not None or self.map_fn is not None


def _real_array(a) -> np.ndarray:
    """The matrix, stack of matrices or branch-table array ``a`` as one
    float64 array (``a`` itself when it is one).  Ragged nesting and entries
    that are not numbers raise StructuralError, complex entries DomainError:
    casting would drop their imaginary parts."""
    try:
        arr = np.asarray(a)
    except ValueError as e:   # ragged nesting
        raise StructuralError(f"matrices must be rectangular arrays: {e}") from e
    if arr.dtype.kind == "c":
        raise DomainError("matrix entries must be real, not complex")
    if arr.dtype.kind not in "biuf":
        raise StructuralError(f"matrix entries must be real numbers, not {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _positive_finite(a: np.ndarray) -> bool:
    """Whether every entry of the array ``a`` lies in (0, inf): min and max
    propagate NaN, which fails both comparisons."""
    return a.size == 0 or bool(a.min() > 0.0 and a.max() < math.inf)


def _window_steps(window) -> int:
    """Steps of the window (n_min, n_max): the one window rule of chains and
    chain specs.  StructuralError unless the window is one pair of integers
    with n_max > n_min."""
    try:
        n_min, n_max = window
    except (TypeError, ValueError) as e:
        raise StructuralError(f"a window is one pair (n_min, n_max), got {window!r}") from e
    if not all(isinstance(n, (int, np.integer)) for n in (n_min, n_max)):
        raise StructuralError(f"window ends must be integers, got {n_min!r}, {n_max!r}")
    if n_max <= n_min:
        raise StructuralError("window must be nonempty")
    return n_max - n_min


def _index_array(idx, n: int, message: str) -> np.ndarray:
    """``idx`` as an int64 array; StructuralError(message) unless it is an
    integer array with every entry in [0, n)."""
    try:
        idx = np.asarray(idx)
    except ValueError as e:   # ragged nesting
        raise StructuralError(message) from e
    if not (np.issubdtype(idx.dtype, np.integer) and (
            idx.size == 0 or 0 <= int(idx.min()) <= int(idx.max()) < n)):
        raise StructuralError(message)
    return idx.astype(np.int64, copy=False)


def _blend(v: np.ndarray, idx: np.ndarray, frac, keep, nxt) -> np.ndarray:
    """(1 - frac) v[idx] + frac v[(idx + 1) mod N] for a vector v of N grid
    values: v linearly interpolated toward the next grid point, given the
    invariants keep = 1 - frac and nxt = idx + 1, which a caller that
    blends many vectors over one (idx, frac) computes once.  The result is
    a new array."""
    lo = v.take(idx)
    hi = v.take(nxt, mode="wrap")   # v[(idx + 1) mod N]
    lo *= keep
    hi *= frac
    lo += hi
    return lo


def _apply_values(stage: Stage, v: np.ndarray) -> np.ndarray:
    """apply_L on a raw value vector, or on each row of an (R, n) stack (no
    wrapping; solver-internal hot path)."""
    if stage.dense is not None:
        # one gemv per row: every row equals dense @ row bit for bit
        return np.matmul(stage.dense, v[..., None])[..., 0]
    idx, frac, w = stage.branch_index, stage.branch_frac, stage.branch_weight
    keep, nxt = 1.0 - frac, idx + 1
    m = stage.codomain.n_points
    out = np.empty(v.shape[:-1] + (m,))
    for o, row in zip(out.reshape(-1, m), v.reshape(-1, v.shape[-1])):
        vals = _blend(row, idx, frac, keep, nxt)
        vals *= w
        np.add.reduce(vals, axis=0, out=o)
    return out


def _dual_weights(stage: Stage, s: np.ndarray) -> np.ndarray:
    """apply_L_dual on a raw weight vector, or on each row of an (R, n)
    stack (exact transpose of _apply_values)."""
    if stage.dense is not None:
        return np.matmul(stage.dense.T, s[..., None])[..., 0]
    idx, frac, w = stage.branch_index, stage.branch_frac, stage.branch_weight
    keep, n_dom = 1.0 - frac, stage.domain.n_points
    nxt = (idx + 1) % n_dom   # a high share belongs to the next point
    out = np.zeros(s.shape[:-1] + (n_dom,))
    for o, row in zip(out.reshape(-1, n_dom), s.reshape(-1, s.shape[-1])):
        hi_w = w * row
        lo_w = hi_w * keep
        hi_w *= frac
        # additions in a fixed order: branch 0 low, branch 0 high, branch 1 low, ...
        for b in range(len(idx)):
            o += np.bincount(idx[b], lo_w[b], n_dom)
            o += np.bincount(nxt[b], hi_w[b], n_dom)
    return out


def apply_L(stage: Stage, f: Field) -> Field:
    """(L f)(x) = sum_branches w(y_b(x)) f(y_b(x)), linear and positive."""
    if f.space is not stage.domain:
        raise StructuralError("field lives on the wrong space for this stage")
    return Field(stage.codomain, _apply_values(stage, f.values))


def apply_L_dual(stage: Stage, sigma: MeasureVec) -> MeasureVec:
    """Exact transpose of apply_L on measure weights."""
    if sigma.space is not stage.codomain:
        raise StructuralError("measure lives on the wrong space for this stage")
    return MeasureVec(stage.domain, _dual_weights(stage, sigma.weights))


@dataclass(frozen=True, eq=False)
class StageSeq:
    """Stages over an integer window: spaces at n_min..n_max, stage n maps
    X_n to X_{n+1} for n_min <= n < n_max."""

    n_min: int
    n_max: int
    stages: tuple
    two_sided: bool = True
    declared: object = None   # analytic HypothesisParams, when the family has them

    def __post_init__(self):
        if len(self.stages) != _window_steps((self.n_min, self.n_max)):
            raise StructuralError("need exactly one stage per window step")
        for k in range(len(self.stages) - 1):
            if self.stages[k].codomain is not self.stages[k + 1].domain:
                raise StructuralError(f"stage {k}: codomain does not chain to the next domain")

    def stage(self, n: int) -> Stage:
        if not (self.n_min <= n < self.n_max):
            raise StructuralError(f"stage index {n} outside window [{self.n_min}, {self.n_max})")
        return self.stages[n - self.n_min]

    def space(self, n: int) -> PointSpace:
        if n == self.n_max:
            return self.stages[-1].codomain
        return self.stage(n).domain

    @property
    def stage_indices(self) -> range:
        return range(self.n_min, self.n_max)

    @property
    def space_indices(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def check_window(self, n: int, k: int):
        if not all(isinstance(i, (int, np.integer)) for i in (n, k)):
            raise StructuralError(f"window start and length must be integers, got {n!r}, {k!r}")
        if k < 0 or n < self.n_min or n + k > self.n_max:
            raise StructuralError(
                f"window [{n}, {n + k}] not contained in [{self.n_min}, {self.n_max}]")


def compose_L(seq: StageSeq, n: int, k: int, f: Field) -> Field:
    """k-fold composition applied to f on X_n; k = 0 is the identity."""
    seq.check_window(n, k)
    if f.space is not seq.space(n):
        raise StructuralError("field must live on the start space of the window")
    v = f.values
    for j in range(n, n + k):
        v = _apply_values(seq.stage(j), v)
    return Field(seq.space(n + k), v)


def _interpolate(h: np.ndarray, y) -> np.ndarray:
    """Grid values h of a circle grid, linearly interpolated at raw positions y."""
    n = h.size
    p = y * n
    idx, frac = np.floor(p).astype(np.int64) % n, p - np.floor(p)
    return _blend(h, idx, frac, 1.0 - frac, idx + 1)


def normalize_stage(stage: Stage, h_dom: Field, h_cod: Field, lam: float) -> Stage:
    """The stage with potential  phi + log h_dom - log h_cod(T .) - log lambda.

    Branch weights become w * h_dom(y) / (lambda * h_cod(x)), evaluating
    h_dom at the preimages exactly like apply_L does, so the normalized
    operator satisfies  L~ 1 = L(h_dom)/(lambda h_cod)  identically.
    Normalizing changes the weights, not the map: the stage keeps its form
    of the map, and stores its new weights, which are not exp of its new
    potential bit for bit.  A sampled potential is shifted pointwise; an exact one
    becomes y -> phi(y) + log h_dom(y) - log h_cod(T(y) mod 1) - log lambda,
    with h linearly interpolated at raw positions.  An operator stage's
    matrix becomes M[x, y] h_dom(y) / (lambda h_cod(x)).
    """
    if h_dom.space is not stage.domain or h_cod.space is not stage.codomain:
        raise StructuralError("h fields must live on the stage's spaces")
    if not 0.0 < lam < math.inf:
        raise DomainError("normalization needs a positive finite lambda")
    if h_dom.inf() <= 0.0 or h_cod.inf() <= 0.0:
        raise DomainError("normalization needs positive h")
    hv, hcv = h_dom.values, h_cod.values
    if stage.dense is not None:
        return Stage(stage.domain, stage.codomain,
                     dense=stage.dense * hv[None, :] / (lam * hcv[:, None]))
    idx, frac = stage.branch_index, stage.branch_frac
    h_at_pre = _blend(hv, idx, frac, 1.0 - frac, idx + 1)
    new_weight = stage.branch_weight * h_at_pre / (lam * hcv[None, :])
    new_potential = new_potential_fn = None
    if stage.forward_index is not None:
        new_potential = Field(stage.domain, stage.potential.values + np.log(hv)
                              - np.log(hcv[stage.forward_index]) - np.log(lam))
    elif stage.map_fn is not None:
        phi, lift = stage.potential_fn, stage.map_fn

        def new_potential_fn(y):
            return (phi(y) + np.log(_interpolate(hv, y))
                    - np.log(_interpolate(hcv, lift(y) % 1.0)) - np.log(lam))
    return Stage(domain=stage.domain, codomain=stage.codomain,
                 branch_index=stage.branch_index, branch_frac=stage.branch_frac,
                 branch_weight=new_weight, forward_index=stage.forward_index,
                 potential=new_potential, potential_fn=new_potential_fn,
                 map_fn=stage.map_fn)
