"""Convex cones of functions and their Hilbert projective metrics.

Two cones appear throughout: the positive cone

    C+ = { f >= 0, f not identically 0 },

whose partial order is pointwise comparison, and the log-Holder cone

    Lambda(Q) = { f in C+ : f(x) <= exp(Q d(x,x')^beta) f(x')
                  whenever d(x,x') <= delta },

whose order is membership of differences in the same cone.  For both, the
Hilbert metric is Theta(f, g) = log(B/A) with

    A(f, g) = sup { t > 0 : t f <= g },   B(f, g) = inf { t > 0 : g <= t f },

and A, B reduce to extrema of finite ratio sets on a finite point sample.
For C+ the ratio set is { g(x)/f(x) }.  For Lambda(Q) membership is cut out
by the linear functionals

    l_{x,y}(f) = exp(Q d(x,y)^beta) f(x) - f(y),   d(x,y) <= delta,

so the ratio set gains { l_{x,y}(g) / l_{x,y}(f) } over the stored pair set.
One reduction, _ratio_gap, takes both sets to (A, B), with one boundary
rule: a denominator <= 0 under a positive numerator makes B infinite and
under a negative one makes A zero.

The stored pairs need only generate the constraint cone: a functional that
is a nonnegative combination of stored ones cuts out nothing new, and its
ratio is a mediant of theirs, so A, B and Theta are unchanged without it.
On a circle grid with beta = 1 arc length is additive along the shorter
arc, so for y between x and z

    l_{x,z} = exp(Q d(y,z)) l_{x,y} + l_{y,z},

and the 2N nearest-neighbour pairs generate every pair within delta.  For
beta < 1, d^beta is strictly subadditive and no pair is implied by others;
on finite spaces every pair within delta is stored as well.

Distance +infinity is a first-class value (incomparable directions), never
an exception: a positive map with image of finite diameter Delta contracts
Theta by tanh(Delta/4), and tanh(inf) = 1 is a meaningful rate.

Stacks of fields are evaluated one row block at a time, and one budget,
_BLOCK_CELLS = 2^15 float64 cells, bounds what a block holds at once,
temporaries included, so peak memory is set by the block and not by the
stack.  The gap and membership kernels (_gaps, _inside) count _KERNEL_ROWS
= 4 live rows per field row, each as wide as the pair set or the space,
whichever is wider: one pair gather, l(f), l(g) and the ratios.  The sampled
pairs of the contraction verifier (_runs) count the fields they keep per
sample on the widest space of their path; the gap blocks they call hold a
budget of their own.

The cone certificate and the verifiers sample from one enumerated family,
family_rows: member k is a named field (the unit function, an extremal
exp(+-q d(x, c)^beta), or an interior log-field whose coefficients are the
Kronecker point of k), computed with integer and float arithmetic and no
random generator, and each consumer draws from a range of ids of its own
(member_range).  sample_log_holder_field draws interior fields from a
numpy Generator instead, for callers that bring one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .spaces import KIND_CIRCLE, Field, _check_same_space, MeasureVec, holder_seminorm, pair

#: relative spread below which two cone directions count as proportional
PROPORTIONAL_TOL = 1e-12

#: relative slack absorbed by cone-membership checks (roundoff floor)
MEMBERSHIP_SLACK = 1e-12


@dataclass(frozen=True)
class ConeParams:
    """Parameters of the log-Holder cone Lambda(Q) at locality radius delta."""

    Q: float
    delta: float
    beta: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.Q < math.inf and 0.0 < self.delta < math.inf):
            raise DomainError("Q and delta must be positive and finite")
        if not (0.0 < self.beta <= 1.0):
            raise DomainError("beta must lie in (0, 1]")


# The cone used where none is certified (operator chains): on a simplex space
# every distance is 1 > delta, so its pair set is empty and it is C+.
DEFAULT_CONE = ConeParams(Q=1.0, delta=0.5, beta=1.0)


@dataclass(eq=False)
class PairSet:
    """A generating set of ordered point pairs (i, j), i != j, with
    d(x_i, x_j) <= delta.

    Complete for beta < 1 and on finite spaces; on a circle grid with
    beta = 1 only the offset +-1 pairs are kept, since additivity of arc
    length makes them imply every other pair within delta (see the module
    docstring).  Closed under swap: both orientations of every pair are
    stored, so the one-sided functional inequalities l_{i,j} >= 0 encode the
    symmetric cone condition.  Exponential weights exp(Q d^beta) are cached
    per (Q, beta) since they dominate the cost of repeated metric queries.
    """

    space: object
    i: np.ndarray
    j: np.ndarray
    d: np.ndarray
    _exp_cache: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return self.i.shape[0]

    def exp_weights(self, Q: float, beta: float) -> np.ndarray:
        key = (float(Q), float(beta))
        w = self._exp_cache.get(key)
        if w is None:
            w = np.exp(Q * self.d ** beta)
            w.setflags(write=False)
            self._exp_cache[key] = w
        return w


def pair_set(space, p: ConeParams) -> PairSet:
    """The generating pair set of Lambda(Q) on a space, built once per
    (delta, reduction) and cached on the space itself."""
    delta = float(p.delta)
    nearest = space.kind == KIND_CIRCLE and p.beta == 1.0
    key = ("pair_set", delta, nearest)
    cached = space._caches.get(key)
    if cached is not None:
        return cached
    n = space.n_points
    if space.kind == KIND_CIRCLE:
        offsets, dists = space.circle_offsets(delta)
        if nearest:
            offsets, dists = offsets[:1], dists[:1]
        iis, jjs, dds = [], [], []
        base = np.arange(n)
        for o, d in zip(offsets.tolist(), dists.tolist()):
            nxt = (base + o) % n
            iis.append(base); jjs.append(nxt); dds.append(np.full(n, d))
            if 2 * o != n:   # offset N/2 already holds both orders
                iis.append(nxt); jjs.append(base); dds.append(np.full(n, d))
        if iis:
            i = np.concatenate(iis); j = np.concatenate(jjs); d = np.concatenate(dds)
        else:
            i = np.empty(0, dtype=np.int64); j = i.copy(); d = np.empty(0)
    else:
        ii, jj = np.nonzero((space.dist_table <= delta) & ~np.eye(n, dtype=bool))
        i, j, d = ii, jj, space.dist_table[ii, jj]
    ps = PairSet(space=space, i=np.ascontiguousarray(i, dtype=np.int64),
                 j=np.ascontiguousarray(j, dtype=np.int64), d=np.asarray(d, dtype=np.float64))
    space._caches[key] = ps
    return ps


def in_positive_cone(f: Field) -> bool:
    """Membership in C+: nonnegative and not identically zero."""
    v = f.values
    return bool(v.min() >= 0.0 and v.max() > 0.0)


def _cone_violation(values: np.ndarray, ps: PairSet, E: np.ndarray):
    """Largest relative violation of the functional inequalities (0 = inside)
    of each row of a stack of fields (a single field is a stack without
    rows)."""
    if len(ps) == 0:
        return np.zeros(values.shape[:-1])
    lhs = np.take(values, ps.j, axis=-1)   # np.take gathers rows faster than [..., j]
    rhs = np.take(values, ps.i, axis=-1)
    rhs *= E
    scale = np.abs(lhs)
    np.maximum(scale, np.abs(rhs), out=scale)
    scale[scale == 0.0] = 1.0
    lhs -= rhs
    lhs /= scale
    return lhs.max(axis=-1)


_BLOCK_CELLS = 2 ** 15   # cells one row block may hold, its temporaries included

# live rows per field row of the gap and membership kernels, each as wide as
# the pair set or the space: a gather, l(f), l(g) and the ratios
_KERNEL_ROWS = 4


def _block_rows(width: int, rows: int) -> int:
    """Items per block: _BLOCK_CELLS over ``rows`` live rows of ``width``
    cells per item; at least one."""
    return max(1, _BLOCK_CELLS // (rows * width))


def _kernel_block(space, p: ConeParams):
    """The Lambda(Q) pair set of ``space``, its weights exp(Q d^beta) and
    the rows per block of the gap and membership kernels there."""
    ps = pair_set(space, p)
    return (ps, ps.exp_weights(p.Q, p.beta),
            _block_rows(max(space.n_points, len(ps)), _KERNEL_ROWS))


def _runs(items, spaces, rows: int) -> list:
    """``items`` cut into runs of consecutive items that share the tuple of
    spaces ``spaces(item)``, each run at most one block of ``rows`` live
    fields per item on the widest of those spaces: the row blocks of the
    sampled cone pairs."""
    runs = []
    for sps, run in itertools.groupby(items, spaces):
        run = list(run)
        cap = _block_rows(max(sp.n_points for sp in sps), rows)
        runs += [run[i:i + cap] for i in range(0, len(run), cap)]
    return runs


def _inside(values: np.ndarray, space, p: ConeParams) -> np.ndarray:
    """in_log_holder_cone of each row of an (R, n) stack of fields, one
    block of rows at a time."""
    ps, E, step = _kernel_block(space, p)
    viol = np.concatenate([_cone_violation(values[r:r + step], ps, E)
                           for r in range(0, len(values), step)])
    return (values.min(axis=1) >= 0.0) & (values.max(axis=1) > 0.0) & (viol <= MEMBERSHIP_SLACK)


def in_log_holder_cone(f: Field, p: ConeParams) -> bool:
    """Membership in Lambda(Q), with a relative slack of 1e-12 for roundoff."""
    return bool(_inside(f.values[None], f.space, p)[0])


def _ratio_gap(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) = (min, max) of the ratio set { num/den : den > 0 } of each row
    pair of num and den (the last axis holds the ratios).

    Where den <= 0 no ratio is taken: num > 0 there gives B = +inf and
    num < 0 gives A = 0 (incomparable, reported as a value rather than
    raised), and num = 0 imposes no constraint.  A row with no constraint
    gives (inf, -inf), the identities of min and max.
    """
    pos = den > 0.0
    if pos.all():
        r = num / den
        return r.min(axis=-1), r.max(axis=-1)
    off = ~pos
    r = np.divide(num, den, out=np.full_like(num, math.inf), where=pos)
    A = np.where((off & (num < 0.0)).any(axis=-1), 0.0, r.min(axis=-1))
    r[off] = -math.inf
    B = np.where((off & (num > 0.0)).any(axis=-1), math.inf, r.max(axis=-1))
    return A, B


def hilbert_gap_positive(f: Field, g: Field) -> tuple[float, float]:
    """(A, B) for the pointwise order on C+: _ratio_gap over { g(x)/f(x) }."""
    _check_same_space(f, g)
    if not np.any(f.values > 0.0):
        raise DomainError("f must be a nonzero element of the positive cone")
    A, B = _ratio_gap(g.values, f.values)
    return float(A), float(B)


def theta_positive(f: Field, g: Field) -> float:
    """Hilbert distance on C+:  log sup_{x,y} [g(x) f(y)] / [g(y) f(x)]."""
    A, B = hilbert_gap_positive(f, g)
    return _theta_from_gap(A, B)


def _theta_from_gap(A: float, B: float) -> float:
    if not (A > 0.0) or math.isinf(B):
        return math.inf
    if B - A <= PROPORTIONAL_TOL * B:
        return 0.0
    return math.log(B / A)


def _gap_log_holder_raw(F: np.ndarray, G: np.ndarray, ps: PairSet,
                        E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) for the Lambda(Q) order, via the functional ratio set, for each
    row pair of the stacks F and G (one field per row; a single field is a
    stack without rows): _ratio_gap over the point values and over the
    functionals l(g) / l(f), combined.

    Assumes f, g lie in the cone up to roundoff; the boundary rules of
    _ratio_gap match the feasibility logic of sup{t : g - t f in cone}.
    Each row gets the bits a call on that row alone would give.
    """
    A, B = _ratio_gap(G, F)
    if len(ps) > 0:
        A_l, B_l = _ratio_gap(_functionals(G, ps, E), _functionals(F, ps, E))
        A, B = np.minimum(A, A_l), np.maximum(B, B_l)
    return A, B


def _functionals(values: np.ndarray, ps: PairSet, E: np.ndarray) -> np.ndarray:
    """l_{x,y}(f) = E f(x) - f(y) over the pair set for each row f of
    ``values``, holding one gather besides the result."""
    lf = np.take(values, ps.i, axis=-1)
    lf *= E
    lf -= np.take(values, ps.j, axis=-1)
    return lf


def _gaps(F: np.ndarray, G: np.ndarray, space, p: ConeParams):
    """(A, B) arrays of the Lambda(Q) gaps of the row pairs of the (R, n)
    stacks F and G, and the list of theta_log_holder(f, g, p, checked=False)
    of each pair, one block of rows at a time."""
    ps, E, step = _kernel_block(space, p)
    A, B = (np.concatenate(x) for x in zip(*[
        _gap_log_holder_raw(F[r:r + step], G[r:r + step], ps, E)
        for r in range(0, len(F), step)]))
    return A, B, [_theta_from_gap(a, b) for a, b in zip(A.tolist(), B.tolist())]


def theta_log_holder(f: Field, g: Field, p: ConeParams, *, checked: bool = True) -> float:
    """Hilbert distance on Lambda(Q).

    At least as large as theta_positive(f, g) since Lambda(Q) is nested
    inside C+.  With ``checked`` the arguments must pass the membership
    test; the raw formula is still well defined on the cone boundary and
    is used internally for difference directions.
    """
    _check_same_space(f, g)
    if checked:
        if not in_log_holder_cone(f, p) or not in_log_holder_cone(g, p):
            raise DomainError("theta_log_holder needs both fields inside the cone")
    return _theta_from_gap(*hilbert_gap_log_holder(f, g, p))


def hilbert_gap_log_holder(f: Field, g: Field, p: ConeParams) -> tuple[float, float]:
    """(A, B) in the Lambda(Q) order (unchecked boundary-tolerant form)."""
    _check_same_space(f, g)
    ps = pair_set(f.space, p)
    A, B = _gap_log_holder_raw(f.values, g.values, ps, ps.exp_weights(p.Q, p.beta))
    return float(A), float(B)


def birkhoff_rate(delta: float) -> float:
    """Contraction factor tanh(Delta/4) of a cone map with image diameter Delta.

    tanh(inf) = 1: an infinite-diameter image still never expands.
    """
    if delta < 0.0:
        raise DomainError("a projective diameter cannot be negative")
    if math.isinf(delta):
        return 1.0
    return math.tanh(delta / 4.0)


def norm_theta_bound(f: Field, g: Field, m: MeasureVec) -> tuple[float, float]:
    """Both sides of  ||f - g|| <= (e^{Theta+(f,g)} - 1) min(||f||, ||g||)
    for fields normalized against the probability measure m.

    Returns (lhs, rhs); the inequality itself is the caller's assertion.
    """
    pf, pg = pair(f, m), pair(g, m)
    if abs(pf - 1.0) > 1e-10 or abs(pg - 1.0) > 1e-10:
        raise DomainError("both fields must integrate to 1 against m")
    if not (in_positive_cone(f) and in_positive_cone(g)):
        raise DomainError("both fields must lie in the positive cone")
    lhs = float(np.abs(f.values - g.values).max())
    theta = theta_positive(f, g)
    rhs = (math.expm1(theta) if not math.isinf(theta) else math.inf)
    rhs *= min(f.norm_inf(), g.norm_inf())
    return lhs, rhs


_MODES = np.arange(1, 7)   # the modes m of the trigonometric log-fields


def _trig_logs(space, a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The (k, N) rows scale sum_m (a_m cos 2 pi m x + b_m sin 2 pi m x) of
    the (k, 6) coefficients a, b and the (k, 1) scales, summed over the
    modes on the grid's cos and sin rows, which are built once and cached on
    the space.  Every operation is row-wise, so a row has the same bits in
    any stack."""
    basis = space._caches.get("log_holder_basis")
    if basis is None:   # the (6, N) rows cos(2 pi m x) and sin(2 pi m x)
        basis = space._caches["log_holder_basis"] = tuple(
            np.stack([fn(2 * np.pi * m * space.positions) for m in _MODES])
            for fn in (np.cos, np.sin))
    logf = np.zeros((len(a), space.n_points))
    for m in range(6):
        logf += scale * (a[:, m, None] * basis[0][m] + b[:, m, None] * basis[1][m])
    return logf


def _log_holder_rows(space, p: ConeParams, rng: np.random.Generator, k: int) -> np.ndarray:
    """k draws of sample_log_holder_field as the rows of one (k, N) array.

    The generator is consumed as by k single calls, so each row has the bits
    of its single draw and the generator ends in the same state.
    """
    if space.kind != KIND_CIRCLE:
        return np.stack([sample_log_holder_field(space, p, rng).values for _ in range(k)])
    a, b, scale = np.empty((k, 6)), np.empty((k, 6)), np.empty((k, 1))
    for r in range(k):
        a[r], b[r] = rng.normal(size=6), rng.normal(size=6)
        lip = float(np.sum(2.0 * np.pi * _MODES * (np.abs(a[r]) + np.abs(b[r]))))
        target = 0.9 * p.Q * rng.uniform(0.2, 1.0)
        scale[r] = 0.0 if lip == 0.0 else target / lip
    return np.exp(_trig_logs(space, a, b, scale))


def sample_log_holder_field(space, p: ConeParams, rng: np.random.Generator) -> Field:
    """A random field strictly inside Lambda(Q), drawn from ``rng``: the
    interior members of the sample family with Gaussian coefficients and a
    uniform Lipschitz target in place of its Kronecker points.

    On a circle grid, log f is a random trigonometric polynomial of six
    modes whose Lipschitz constant is held below 0.9 Q (beta = 1 samples
    remain valid for any beta <= 1 on subunit distances).  On a discrete
    space whose pair set is empty, the cone is all of C+ and any positive
    vector works.
    """
    if space.kind == KIND_CIRCLE:
        return Field(space, _log_holder_rows(space, p, rng, 1)[0])
    if len(pair_set(space, p)) == 0:
        return Field(space, rng.uniform(0.5, 2.0, size=space.n_points))
    # generic finite metric space: rescale a random field's log-oscillation
    v = rng.normal(size=space.n_points)
    s = holder_seminorm(Field(space, v), p.beta)
    if s > 0.0:
        v = v * (0.9 * p.Q * rng.uniform(0.2, 1.0) / s)
    return Field(space, np.exp(v))


# ---------------------------------------------------------------------------
# the enumerated sample family
# ---------------------------------------------------------------------------

#: ids per slot of the sample family: each consumer draws from a slot of its own
MEMBER_SLOT = 2 ** 24

# the slots in order: slot 0 holds the unit function (member 0), and the
# contraction verifier's slot is the last one plus its seed
_CONSUMERS = ("unit", "certificate", "independence tails", "independence seeds",
              "uniqueness seeds", "uniqueness scales", "contraction")


def member_range(consumer: str, count: int, seed: int = 0) -> range:
    """The ``count`` member ids that ``consumer`` draws, the first ids of its
    slot: [s 2^24, s 2^24 + count) for the consumer's slot s in _CONSUMERS,
    shifted by ``seed`` slots for the contraction verifier.  So no two
    consumers, and no two verifier seeds, share a member, and every range
    starts with an interior pair."""
    if consumer not in _CONSUMERS[1:]:
        raise DomainError(f"no member range for {consumer!r}")
    if seed and consumer != "contraction":
        raise DomainError("only the contraction verifier's range takes a seed")
    slot = _CONSUMERS.index(consumer) + seed
    if not (0 <= count <= MEMBER_SLOT and 0 <= seed and (slot + 1) * MEMBER_SLOT <= 2 ** 64):
        raise DomainError(f"{count} members at seed {seed} do not fit one 64-bit slot")
    return range(slot * MEMBER_SLOT, slot * MEMBER_SLOT + count)


def _kronecker(ids: np.ndarray, d: int) -> np.ndarray:
    """Rows frac(1/2 + k alpha) in [0, 1)^d of the Kronecker sequence R_d,
    alpha_j = phi^-j with phi the positive root of x^(d+1) = x + 1, for the
    uint64 ids k: (k A_j + 2^63) mod 2^64 in 64-bit fixed point, with the
    odd steps A_j = floor(2^64 alpha_j) | 1, so k != 0 never lands on 1/2."""
    phi = 2.0
    for _ in range(64):   # a contraction with rate below 1/3
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    steps = np.array([int(phi ** -j * 2.0 ** 64) | 1 for j in range(1, d + 1)], dtype=np.uint64)
    x = ids[:, None] * steps + np.uint64(2 ** 63)   # wraps mod 2^64
    return (x >> 11).astype(np.float64) * 2.0 ** -53


def family_rows(space, p: ConeParams, ids) -> np.ndarray:
    """Members ``ids`` of the enumerated sample family of Lambda(Q) on
    ``space``, as the rows of one (len(ids), N) array.

    Member k is a named field, the same whatever else is drawn with it:

    * k = 0 is the unit function;
    * on a finite space whose pair set is empty the cone is C+, and every
      k >= 1 is the positive vector 0.5 + 1.5 u, u the Kronecker point of k
      in [0, 1)^N;
    * otherwise the ids come in pairs (2i, 2i + 1), interior for even i and
      extremal for odd i:

      - an extremal k is exp(+-q d(x, c)^beta), q = 0.98 Q, + for even k,
        around the grid point c = floor(N v) for v the one-dimensional
        Kronecker point of k // 4 (so both members of a pair share c, and
        every id bit moves it); it saturates the cone's inequalities between
        c and every point within delta up to the factor 0.98, the way
        coordinate directions are extremal for C+;
      - an interior k is exp of a log-field with Holder constant
        0.9 Q (0.2 + 0.8 u_last) in [0.18 Q, 0.9 Q] (the last coordinate of
        its Kronecker point u): on a circle grid the six trigonometric modes
        of sample_log_holder_field with coefficients 2 u - 1 and that
        target over their Lipschitz bound (u in [0, 1)^13); on a finite
        space the field 2 u - 1 (u in [0, 1)^(N + 1)) rescaled by its
        holder_seminorm.

    Plain integer and float arithmetic, row-wise, with no generator.
    """
    k = np.asarray(ids, dtype=np.uint64).reshape(-1)
    n = space.n_points
    circle = space.kind == KIND_CIRCLE
    if not circle and len(pair_set(space, p)) == 0:
        rows = np.ones((k.size, n))
        rows[k > 0] = 0.5 + 1.5 * _kronecker(k[k > 0], n)
        return rows
    logf = np.zeros((k.size, n))
    extremal = ((k >> 1) & 1) == 1
    ke = k[extremal]
    if ke.size:
        q = 0.98 * p.Q * np.where((ke & 1) == 0, 1.0, -1.0)
        centre = (_kronecker(ke >> 2, 1)[:, 0] * n).astype(np.int64)
        d = space.distance(np.arange(n)[None, :], centre[:, None])
        logf[extremal] = q[:, None] * d ** p.beta
    interior = (k > 0) & ~extremal
    ki = k[interior]
    if ki.size and circle:
        u = _kronecker(ki, 13)
        a, b = 2.0 * u[:, :6] - 1.0, 2.0 * u[:, 6:12] - 1.0
        lip = np.sum(2.0 * np.pi * _MODES * (np.abs(a) + np.abs(b)), axis=1)
        logf[interior] = _trig_logs(space, a, b, (0.9 * p.Q * (0.2 + 0.8 * u[:, 12]) / lip)[:, None])
    elif ki.size:
        u = _kronecker(ki, n + 1)
        v = 2.0 * u[:, :n] - 1.0
        for r in range(ki.size):
            s = holder_seminorm(Field(space, v[r]), p.beta)
            if s > 0.0:
                v[r] *= 0.9 * p.Q * (0.2 + 0.8 * u[r, n]) / s
        logf[interior] = v
    return np.exp(logf)
