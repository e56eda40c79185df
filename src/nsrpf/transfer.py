"""Transfer operators for one step of a nonstationary chain, and their algebra.

A Stage encodes one operator L : C(X_n) -> C(X_{n+1}) in preimage form,

    (L f)(x) = sum over preimage branches y of x  of  w(y) f(y),

with strictly positive branch weights w(y) = exp(potential at y).  Branches
are stored as (grid index, interpolation fraction, weight) triples so the
same apply/dual code covers three cases:

* map stages on a circle grid, where branch preimages are solved off-grid
  and f(y) is linearly interpolated between grid neighbours;
* map stages on finite point sets, where preimages sit exactly on points
  (fraction 0);
* operator stages given by a strictly positive matrix M, where every domain
  point is a branch of every codomain point with weight M[x, y] and no
  forward map exists.

The dual is the exact transpose of the linear map apply_L, so the adjoint
identity <f, L* sigma> = <L f, sigma> holds to roundoff by construction.
Compositions are evaluated by sequential application; dense products are
kept to the oracle code paths.  The raw kernels behind apply_L and
apply_L_dual also take a stack of rows, one vector per row, and give every
row the same bits as a call on that row alone; the solvers' sweeps push all
depths of one index through its stage in one call.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, StructuralError
from .spaces import Field, MeasureVec, PointSpace


@dataclass(frozen=True, eq=False)
class Stage:
    """One step (X_n, T_n, phi_n) of the chain, in preimage form.

    ``branch_index[b, x]`` is the base grid index of the b-th preimage of
    codomain point x, ``branch_frac[b, x]`` its interpolation fraction
    toward the next grid point, and ``branch_weight[b, x]`` the positive
    weight exp(potential) carried by that branch.  Map stages additionally
    store the forward images of the domain points (snapped index plus, on a
    circle, the exact position) and the sampled potential.
    """

    domain: PointSpace
    codomain: PointSpace
    branch_index: np.ndarray    # (B, n_cod) int64
    branch_frac: np.ndarray     # (B, n_cod) float64 in [0, 1)
    branch_weight: np.ndarray   # (B, n_cod) float64 > 0
    forward_index: Optional[np.ndarray] = None   # (n_dom,) snapped image index
    forward_pos: Optional[np.ndarray] = None     # (n_dom,) exact image position
    potential: Optional[Field] = None
    potential_fn: Optional[Callable] = None      # exact potential at raw positions
    map_fn: Optional[Callable] = None            # exact lift of the forward map
    dense: Optional[np.ndarray] = None           # operator stages: exact matvec path

    def __post_init__(self):
        b, n = self.branch_index.shape
        if self.branch_frac.shape != (b, n) or self.branch_weight.shape != (b, n):
            raise StructuralError("branch arrays must share one (B, n_codomain) shape")
        if n != self.codomain.n_points:
            raise StructuralError("branch arrays must be indexed by codomain points")
        if np.any(self.branch_weight <= 0.0) or not np.all(np.isfinite(self.branch_weight)):
            raise StructuralError("branch weights must be strictly positive and finite")
        object.__setattr__(self, "_next_index",
                           (self.branch_index + 1) % self.domain.n_points)

    @property
    def n_branches(self) -> int:
        return self.branch_index.shape[0]

    @property
    def has_map(self) -> bool:
        return self.forward_index is not None

    @classmethod
    def from_matrix(cls, m: np.ndarray, domain: PointSpace, codomain: PointSpace) -> "Stage":
        """Operator stage: apply_L is exactly f -> M f, the dual f -> M^T sigma."""
        m = np.asarray(m, dtype=np.float64)
        n_cod, n_dom = m.shape
        if n_dom != domain.n_points or n_cod != codomain.n_points:
            raise StructuralError("matrix shape must be (n_codomain, n_domain)")
        if np.any(m <= 0.0) or not np.all(np.isfinite(m)):
            raise DomainError("operator stages need strictly positive finite entries")
        idx = np.tile(np.arange(n_dom, dtype=np.int64)[:, None], (1, n_cod))
        frac = np.zeros((n_dom, n_cod))
        weight = m.T.copy()   # weight[b, x] = M[x, b]
        return cls(domain=domain, codomain=codomain, branch_index=idx,
                   branch_frac=frac, branch_weight=weight, dense=m.copy())

    def matrix(self) -> np.ndarray:
        """Dense matrix of apply_L (rows = codomain points). For cross-checks."""
        if self.dense is not None:
            return self.dense.copy()
        n_dom = self.domain.n_points
        n_cod = self.codomain.n_points
        m = np.zeros((n_cod, n_dom))
        cols = np.arange(n_cod)
        for b in range(self.n_branches):
            np.add.at(m, (cols, self.branch_index[b]),
                      self.branch_weight[b] * (1.0 - self.branch_frac[b]))
            np.add.at(m, (cols, self._next_index[b]),
                      self.branch_weight[b] * self.branch_frac[b])
        return m


def _apply_values(stage: Stage, v: np.ndarray) -> np.ndarray:
    """apply_L on a raw value vector, or on each row of an (R, n) stack (no
    wrapping; solver-internal hot path)."""
    if stage.dense is not None:
        # one gemv per row: every row equals dense @ row bit for bit
        return np.matmul(stage.dense, v[..., None])[..., 0]
    if v.ndim == 2:
        return np.stack([_apply_values(stage, row) for row in v])
    lo = v[stage.branch_index]
    hi = v[stage._next_index]
    vals = stage.branch_weight * ((1.0 - stage.branch_frac) * lo + stage.branch_frac * hi)
    return vals.sum(axis=0)


def _dual_weights(stage: Stage, s: np.ndarray) -> np.ndarray:
    """apply_L_dual on a raw weight vector, or on each row of an (R, n)
    stack (exact transpose of _apply_values)."""
    if stage.dense is not None:
        return np.matmul(stage.dense.T, s[..., None])[..., 0]
    if s.ndim == 2:
        return np.stack([_dual_weights(stage, row) for row in s])
    n_dom = stage.domain.n_points
    out = np.zeros(n_dom)
    for b in range(stage.n_branches):
        contrib = stage.branch_weight[b] * s
        out += np.bincount(stage.branch_index[b],
                           weights=contrib * (1.0 - stage.branch_frac[b]), minlength=n_dom)
        out += np.bincount(stage._next_index[b],
                           weights=contrib * stage.branch_frac[b], minlength=n_dom)
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
        if len(self.stages) != self.n_max - self.n_min:
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
        if k < 0 or n < self.n_min or n + k > self.n_max:
            raise StructuralError(
                f"window [{n}, {n + k}] not contained in [{self.n_min}, {self.n_max}]")


def compose_L(seq: StageSeq, n: int, k: int, f: Field) -> Field:
    """k-fold composition applied to f on X_n; k = 0 is the identity."""
    seq.check_window(n, k)
    if f.space is not seq.space(n):
        raise StructuralError("field must live on the start space of the window")
    out = f
    for j in range(n, n + k):
        out = apply_L(seq.stage(j), out)
    return out


def compose_L_dual(seq: StageSeq, n: int, k: int, sigma: MeasureVec) -> MeasureVec:
    """Dual of the k-fold composition: duals applied from index n+k-1 down to n."""
    seq.check_window(n, k)
    if sigma.space is not seq.space(n + k):
        raise StructuralError("measure must live on the end space of the window")
    out = sigma
    for j in range(n + k - 1, n - 1, -1):
        out = apply_L_dual(seq.stage(j), out)
    return out


def birkhoff_sum(seq: StageSeq, n: int, k: int) -> Field:
    """Accumulated potential along forward orbits: sum_{j<k} phi_{n+j} at the
    j-step image of each point of X_n.  Requires map stages."""
    seq.check_window(n, k)
    space = seq.space(n)
    acc = np.zeros(space.n_points)
    if k == 0:
        return Field(space, acc)
    circle = space.kind == "circle-grid"
    if circle:
        pos = space.positions.copy()
    else:
        idx = np.arange(space.n_points)
    for j in range(n, n + k):
        st = seq.stage(j)
        if not st.has_map:
            raise StructuralError("Birkhoff sums need stages with a forward map")
        if circle:
            if st.potential_fn is None or st.map_fn is None:
                raise StructuralError("circle stages need exact map and potential callables")
            acc += st.potential_fn(pos)
            pos = st.map_fn(pos) % 1.0
        else:
            acc += st.potential.values[idx]
            idx = st.forward_index[idx]
    return Field(space, acc)


def normalize_stage(stage: Stage, h_dom: Field, h_cod: Field, lam: float) -> Stage:
    """The stage with potential  phi + log h_dom - log h_cod(T .) - log lambda.

    Branch weights become w * h_dom(y) / (lambda * h_cod(x)), evaluating
    h_dom at the preimages exactly like apply_L does, so the normalized
    operator satisfies  L~ 1 = L(h_dom)/(lambda h_cod)  identically.
    Normalizing changes the weights, not the map: the forward images and the
    exact lift are kept.
    """
    if h_dom.space is not stage.domain or h_cod.space is not stage.codomain:
        raise StructuralError("h fields must live on the stage's spaces")
    if lam <= 0.0 or h_dom.inf() <= 0.0 or h_cod.inf() <= 0.0:
        raise DomainError("normalization needs positive h and lambda")
    hv = h_dom.values
    h_at_pre = ((1.0 - stage.branch_frac) * hv[stage.branch_index]
                + stage.branch_frac * hv[stage._next_index])
    new_weight = stage.branch_weight * h_at_pre / (lam * h_cod.values[None, :])
    new_dense = None
    if stage.dense is not None:
        new_dense = stage.dense * hv[None, :] / (lam * h_cod.values[:, None])
    new_potential = None
    if stage.potential is not None and stage.has_map:
        if stage.forward_pos is not None:
            # interpolate h_cod at the exact forward positions
            p = stage.forward_pos * stage.codomain.n_points
            base = np.floor(p).astype(np.int64) % stage.codomain.n_points
            frac = p - np.floor(p)
            hc = ((1.0 - frac) * h_cod.values[base]
                  + frac * h_cod.values[(base + 1) % stage.codomain.n_points])
        else:
            hc = h_cod.values[stage.forward_index]
        new_potential = Field(stage.domain,
                              stage.potential.values + np.log(hv) - np.log(hc) - np.log(lam))
    return Stage(domain=stage.domain, codomain=stage.codomain,
                 branch_index=stage.branch_index, branch_frac=stage.branch_frac,
                 branch_weight=new_weight, forward_index=stage.forward_index,
                 forward_pos=stage.forward_pos, potential=new_potential,
                 map_fn=stage.map_fn, dense=new_dense)
