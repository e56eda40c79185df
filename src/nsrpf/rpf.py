"""Solvers and verifiers for the chain eigendata (lambda_n, m_n, h_n, mu_n).

Forward data.  For a tail seed sigma on X_t, one dual sweep down the window
produces the coherent family

    m_n = normalized (L_n^* m_{n+1}),    lambda_n = mass(L_n^* m_{n+1}),

so the eigenrelations L_n^* m_{n+1} = lambda_n m_n telescope exactly (to
roundoff) by construction, while the distance to the bi-infinite limit is
controlled by cone contraction: it decays like C1 gamma^k in the available
tail depth k = t - n.  Each measure is renormalized to unit mass at every
step and the growth factor is kept separately, so nothing overflows no
matter how deep the window is.  The frozen solves iterate the sweep
generators _pullbacks (dual, from a tail) and _pushforwards (forward, from
the bottom) on one row; the re-solve verifiers iterate them on several.

Diagnostics.  An incremental sweep advances every index by one dual
application per iteration, which realizes the quotient at depth k for each
index with tail seeds supplied per level.  Successive-iterate gaps (in the
growth logs and in pairings against a separating dictionary) give the
stopping index k*; distances to the frozen solution give the error
histories that the exponential-rate verifier replays against the C1 gamma^k
and C3 gamma^k envelopes.  A solution keeps them as one record array, read
as it is by the stopping rule and the rates replay.  The sweeps are
index-major: all depths of one index are the rows of one array, advanced by
one stacked call of its stage from the previous index's rows.  Gaps and
errors are row-wise array operations, and every record equals the one a
per-index loop of apply_L_dual / apply_L would record, bit for bit.

Schedule.  The forward solution is the one holder of the solve schedule,
(tol, tau, block_factor, headroom); the backward solver and every verifier
read it from there.  Stopping rule (both solvers): with
gamma = block_factor^(1/tau) the per-step contraction rate and
s_tol = tol (1 - gamma) / 2, the stopping depth k* of a reported index is
the first recorded depth k >= tau at which its successive gap falls below
s_tol.  Both sweeps run to depth headroom + 2 tau + 2 (_sweep_depth), or to
the window edge if that is nearer; an index that never meets the rule
raises ConvergenceError with its records, naming the depth it reached and
whether the window edge cut it short of the sweep's depth.

Backward data.  With lambda fixed, one forward sweep of the normalized
operators from the bottom of the window yields h_n with
L_n h_n = lambda_n h_{n+1} exact by construction and <h_n, m_n> = 1
telescoping through the dual relations.  Reported indices keep a headroom of
tau * (max(ceil(log(1/tol)/log(1/block_factor)), 0) + 2) >= 2 tau steps to
the window edge on the relevant side, so truncation of the (bi-)infinite
chain stays below tolerance at every reported index, and every reported
index n has n + 1 inside the window.

Verifiers.  The eigen, independence and uniqueness checks return a
Verdict, and the invariant chain grades as one: per-index values of each
criterion, {name: {n: value}}, passed when every criterion's largest value
is below the one tol.  One rule decides where rows are stacked: only where
a single call serves every row of the stack.  The eigenrelations, the xi
check of the uniqueness verifier and the unit-image diameters of the
contraction verifier are per-index loops over the kernels _apply_values and
_dual_weights, since every index has a stage of its own.  Rows stay stacked
where they share work: the re-solve seeds of one tail are the rows of one
frozen sweep, compared index by index as it goes; the sampled cone pairs of
a block are drawn in one call (cones.family_rows), pushed through their own
stages as one stack per start and written once into the stack that the cone
gaps read (cones._gaps); the rate envelopes run on the record columns, and
each index's slope is fitted from its own history.  One budget of 2^15
cells, cones._BLOCK_CELLS, caps what a block of sampled pairs or of pair
constraints holds, temporaries included, so peak memory is set by the block
size and not by the window: cones._runs cuts the sampled
pairs at the eight fields a sample keeps (f, g, the derived pair u, v and
their tau-step images) on the widest space of the block's path, and
cones._gaps cuts each stack by its kernel's live rows, as for the cone
certificate.  The invariant-chain check walks its window holding indices n
and n + 1 only.
Every row gets the bits its own per-index call would, so every reported
number equals that of the per-index loop; the slope fits, closed-form per
history, feed a verdict and no number.
Logarithms that reach a report keep math.log per element, since np.log
differs from it in the last bit on some inputs.

Samples.  Every seed, tail weight, scale and cone pair a verifier samples
is a member of the enumerated sample family (cones.family_rows), named by
its id, and each verifier draws from member ranges of its own
(cones.member_range): the same run samples the same fields, with no random
generator, and no verifier reuses the cone certificate's pairs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import (DEFAULT_CONE, ConeParams, _gaps, _runs, birkhoff_rate, family_rows,
                    member_range)
from .dictionaries import cone_dictionary, pairing_vector, weak_dictionary
from .errors import ConvergenceError, DomainError, StructuralError
from .hypotheses import RateConstants
from .spaces import Field, MeasureVec, PointSpace, normalize, pair, unit_field
from .transfer import Stage, StageSeq, _apply_values, _dual_weights, normalize_stage

_ZERO_FLOOR = 1e-13   # error values below this count as converged noise


# ---------------------------------------------------------------------------
# the solve schedule
# ---------------------------------------------------------------------------

def headroom_steps(tol: float, block_factor: float, tau: int) -> int:
    """Window steps needed before an index may be reported."""
    if not (0.0 < block_factor < 1.0):
        raise DomainError("block contraction factor must lie in (0, 1)")
    if not (0.0 < tol < math.inf and isinstance(tau, (int, np.integer)) and tau >= 1):
        raise DomainError("need a positive tolerance and tau >= 1, a finite tol and an "
                          f"integer tau; got tol = {tol!r}, tau = {tau!r}")
    # at least two blocks, also when tol >= 1 makes the logarithm negative
    blocks = max(math.ceil(math.log(1.0 / tol) / math.log(1.0 / block_factor)), 0) + 2
    return tau * blocks


def _sweep_depth(fwd: ForwardSolution) -> int:
    """Depth headroom + 2 tau + 2 of both diagnostic sweeps."""
    return fwd.headroom + 2 * fwd.tau + 2


def _histories(records: np.ndarray) -> dict:
    """A solver's records as {n: the records of index n (a view)}, in
    ascending n: the records cut at their k = 1 rows."""
    cut = np.flatnonzero(records["k"] == 1).tolist()
    return {int(records["n"][a]): records[a:b] for a, b in zip(cut, cut[1:] + [records.size])}


def _stopping_rule(side: str, fwd: ForwardSolution, records: np.ndarray) -> dict:
    """The stopping depths k* of both solvers (see the module docstring),
    read index by index from the k and succ columns of a solver's records on
    the schedule of the forward solution.  Raises ConvergenceError carrying
    the records of the first reported index that never meets the rule.
    """
    s_tol = fwd.tol * (1.0 - fwd.block_factor ** (1.0 / fwd.tau)) / 2.0
    k_star = {}
    for n, rec in _histories(records).items():
        hits = np.nonzero((rec["k"] >= fwd.tau) & (rec["succ"] < s_tol))[0]
        if hits.size == 0:
            depth, cap = rec.size, _sweep_depth(fwd)
            edge = (f"; the window edge, not the tolerance, limited this index to "
                    f"{depth} of the sweep's {cap}" if depth < cap else "")
            raise ConvergenceError(
                f"{side} index {n}: successive gaps never fell below {s_tol} "
                f"within {depth} iterations{edge}", history=rec.copy())
        k_star[n] = int(rec["k"][hits[0]])
    return k_star


# ---------------------------------------------------------------------------
# forward solver
# ---------------------------------------------------------------------------

# per index n (ascending) and depth k = 1..d: the max successive gap (growth log
# and weak pairings), |r_{n,k} - log lambda_n|, the max normalized cone-pairing gap to m_n
_FORWARD_RECORD = np.dtype([("n", np.int64), ("k", np.int64), ("succ", np.float64),
                            ("err_lambda", np.float64), ("err_m", np.float64)])


@dataclass
class ForwardSolution:
    seq: StageSeq
    tol: float
    tau: int
    block_factor: float
    headroom: int
    cone: ConeParams        # seeds the cone-dictionary errors and the seed verifiers
    lam: dict
    m: dict
    reported_m: list
    reported_lam: list
    k_star: dict
    records: np.ndarray     # _FORWARD_RECORD per reported index; empty without diagnostics


def _pullbacks(seq: StageSeq, tail: int, seeds: np.ndarray):
    """The frozen dual sweep of every row of ``seeds`` (normalized measures
    on X_tail): yields (n, mass, nu) for n = tail - 1 down to n_min, where
    row r of nu is L_n^* nu_{n+1} over its mass, mass[r]."""
    nu = seeds
    for n in range(tail - 1, seq.n_min - 1, -1):
        raw = _dual_weights(seq.stage(n), nu)
        mass = raw.sum(axis=1)
        nu = raw / mass[:, None]
        yield n, mass, nu


def _forward_sweep(sol: ForwardSolution) -> np.ndarray:
    """The records of the incremental dual sweep at the reported indices.

    Walks the window down from its top.  Index n is live at depths
    1..min(n_max - n, k_cap), and all of them are one dual call of stage n
    on the stack [depth-0 seed on X_{n+1}; depths 1.. of index n + 1], so
    only the previous index's iterates are kept; records fill from the end.
    """
    seq, top, k_cap = sol.seq, sol.seq.n_max, _sweep_depth(sol)
    # per space: depth-0 seed, dictionaries and the seed's weak pairings
    seed, weak, coned, seed_weak = {}, {}, {}, {}
    for sp in {seq.space(n) for n in seq.space_indices}:
        seed[sp] = normalize(MeasureVec.uniform(sp)).weights
        weak[sp] = weak_dictionary(sp)
        coned[sp] = cone_dictionary(sp, sol.cone)
        seed_weak[sp] = pairing_vector(weak[sp], seed[sp])
    rec = np.empty(sum(min(top - n, k_cap) for n in sol.reported_m), _FORWARD_RECORD)
    end = rec.size
    prev = np.empty((0, seq.space(top).n_points))
    for n in range(top - 1, seq.n_min - 1, -1):
        sp, up, d = seq.space(n), seq.space(n + 1), min(top - n, k_cap)
        nu = _dual_weights(seq.stage(n), np.concatenate((seed[up][None], prev[:d - 1])))
        mass = nu.sum(axis=1)
        nu /= mass[:, None]
        prev = nu
        if n > sol.reported_m[-1]:
            continue
        r = np.array([math.log(x) for x in mass.tolist()])
        wp = pairing_vector(weak[sp], nu)
        succ_w = (np.abs(wp - np.concatenate((seed_weak[sp][None], wp[:-1])))
                  / weak[sp].norms).max(axis=1)
        succ_r = np.concatenate(([math.inf], np.abs(r[1:] - r[:-1])))
        m_pair = pairing_vector(coned[sp], sol.m[n].weights)
        em = np.abs(pairing_vector(coned[sp], nu) - m_pair) / coned[sp].norms
        at, end = rec[end - d:end], end - d
        at["n"], at["k"] = n, np.arange(1, d + 1)
        at["succ"] = np.maximum(succ_r, succ_w)
        at["err_lambda"] = np.abs(r - math.log(sol.lam[n]))
        at["err_m"] = em.max(axis=1)
    return rec


def solve_forward(seq: StageSeq, *, tol: float, tau: int, block_factor: float,
                  cone_params: Optional[ConeParams] = None,
                  with_diagnostics: bool = True) -> ForwardSolution:
    """Growth factors and eigenmeasures over the window.

    The returned solution is frozen from the deepest available tail (the
    window top), so its eigenrelations telescope exactly; per-index stopping
    depths k* and the error records come from the incremental sweep.
    Raises ConvergenceError when a reportable index fails to meet the
    stopping rule within its available depth.
    """
    hr = headroom_steps(tol, block_factor, tau)
    tail = seq.n_max
    # one coherent dual sweep from the tail: the exact eigenchain of the window
    seed = normalize(MeasureVec.uniform(seq.space(tail)))
    lam, nu = {}, {tail: seed}
    for n, mass, rows in _pullbacks(seq, tail, seed.weights[None]):
        lam[n] = float(mass[0])
        nu[n] = MeasureVec(seq.space(n), rows[0])
    hi_m = tail - hr
    if hi_m < seq.n_min:
        raise ConvergenceError(
            f"window of {seq.n_max - seq.n_min} steps is shorter than the "
            f"required headroom {hr}; enlarge the window")
    reported_m = list(range(seq.n_min, hi_m + 1))
    reported_lam = list(range(seq.n_min, hi_m))
    sol = ForwardSolution(seq=seq, tol=tol, tau=tau, block_factor=block_factor,
                          headroom=hr, cone=cone_params or DEFAULT_CONE, lam=lam,
                          m=nu, reported_m=reported_m, reported_lam=reported_lam,
                          k_star={}, records=np.empty(0, _FORWARD_RECORD))
    if with_diagnostics:
        sol.records = _forward_sweep(sol)
        sol.k_star = _stopping_rule("forward", sol, sol.records)
    return sol


# ---------------------------------------------------------------------------
# backward solver
# ---------------------------------------------------------------------------

# as _FORWARD_RECORD: the sup successive gap, the sup gap to the frozen h_n
_BACKWARD_RECORD = np.dtype([("n", np.int64), ("k", np.int64), ("succ", np.float64),
                             ("err_h", np.float64)])


@dataclass
class BackwardSolution:
    seq: StageSeq
    h: dict
    reported_h: list
    k_star: dict
    records: np.ndarray     # _BACKWARD_RECORD per reported index; empty without diagnostics


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_r, b> for every row r of a and one vector b: one dot per row,
    equal to ``a[r] @ b`` bit for bit (a gemv ``a @ b`` is not)."""
    return np.matmul(a[:, None, :], b[:, None])[:, 0, 0]


def _pushforwards(fwd: ForwardSolution, seeds: np.ndarray):
    """The frozen forward sweep of every row of ``seeds`` (fields on the
    bottom of the window): yields (n, h) for n = n_min .. n_max, where row r
    of h is L_{n-1} h_{n-1} / lambda_{n-1}, from the seed over its pairing
    with m_{n_min}."""
    seq, bottom = fwd.seq, fwd.seq.n_min
    g0 = _row_dots(seeds, fwd.m[bottom].weights)
    if np.any(g0 <= 0.0):
        raise DomainError("backward seed must have positive mass against m")
    h = seeds / g0[:, None]
    yield bottom, h
    for n in range(bottom, seq.n_max):
        h = _apply_values(seq.stage(n), h) / fwd.lam[n]
        yield n + 1, h


def _row_sup_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| over each row, with one temporary of a's size."""
    d = a - b
    return np.abs(d, out=d).max(axis=1)


def _backward_sweep(sol: BackwardSolution, fwd: ForwardSolution) -> np.ndarray:
    """The records of the incremental forward sweep at the reported indices.

    Walks the window up from its bottom.  Index n is live at depths
    1..min(n - n_min, k_cap), and all of them are one call of stage n - 1 on
    the stack [depth-0 seed on X_{n-1}; depths 1.. of index n - 1], so only
    the previous index's iterates are kept.
    """
    seq, bottom, k_cap = sol.seq, sol.seq.n_min, _sweep_depth(fwd)

    def seed(n):
        """Depth 0 on X_n: the unit field over its pairing with m_n."""
        one = unit_field(seq.space(n))
        return np.full((1, one.values.size), 1.0 / pair(one, fwd.m[n]))

    rec = np.empty(sum(min(n - bottom, k_cap) for n in sol.reported_h), _BACKWARD_RECORD)
    start = 0
    below, prev = seed(bottom), np.empty((0, seq.space(bottom).n_points))
    for n in range(bottom + 1, sol.reported_h[-1] + 1):
        here, d = seed(n), min(n - bottom, k_cap)
        it = _apply_values(seq.stage(n - 1), np.concatenate((below, prev[:d - 1])))
        it /= fwd.lam[n - 1]
        if n >= sol.reported_h[0]:
            at, start = rec[start:start + d], start + d
            at["n"], at["k"] = n, np.arange(1, d + 1)
            at["succ"] = _row_sup_gap(it, np.concatenate((here, it[:-1])))
            at["err_h"] = _row_sup_gap(it, sol.h[n].values)
        below, prev = here, it
    return rec


def solve_backward(fwd: ForwardSolution, *, with_diagnostics: bool = True) -> BackwardSolution:
    """Eigenfunctions h_n as uniform limits of normalized forward iterates.

    Solves the forward solution's chain at its tolerance and headroom: reuses
    its growth factors for the normalized operators and freezes the chain
    from the bottom of the window, making L_n h_n = lambda_n h_{n+1} exact by
    construction.
    """
    seq = fwd.seq
    if not seq.two_sided:
        raise StructuralError("backward limits need a two-sided sequence")
    # one coherent forward sweep from the unit field on the bottom of the window
    h = {n: Field(seq.space(n), rows[0])
         for n, rows in _pushforwards(fwd, unit_field(seq.space(seq.n_min)).values[None])}
    lo_h = seq.n_min + fwd.headroom
    hi_h = max(fwd.reported_m)
    if lo_h > hi_h:
        raise ConvergenceError("window too short to report any backward index")
    reported_h = list(range(lo_h, hi_h + 1))
    sol = BackwardSolution(seq=seq, h=h, reported_h=reported_h, k_star={},
                           records=np.empty(0, _BACKWARD_RECORD))
    if with_diagnostics:
        sol.records = _backward_sweep(sol, fwd)
        sol.k_star = _stopping_rule("backward", fwd, sol.records)
    return sol


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

def _check_chain(fwd: ForwardSolution, bwd: Optional[BackwardSolution]) -> None:
    """Refuse a backward solution that was solved on another chain."""
    if bwd is not None and bwd.seq is not fwd.seq:
        raise StructuralError("the backward solution belongs to another chain "
                              "than the forward one")


@dataclass
class Verdict:
    """A check graded at one tolerance: ``criteria`` maps each criterion's
    name to its values {n: value} in index order, and the check passes when
    every criterion's largest value (0.0 with no index) is below ``tol``."""
    criteria: dict
    tol: float

    def worst(self, name: str) -> float:
        """The largest value of criterion ``name``, 0.0 when it has none."""
        return max(self.criteria[name].values(), default=0.0)

    @property
    def passed(self) -> bool:
        return all(self.worst(name) < self.tol for name in self.criteria)


def verify_eigen_relations(fwd: ForwardSolution, bwd: Optional[BackwardSolution],
                           tol: float) -> Verdict:
    """Residuals of L_n^* m_{n+1} = lambda_n m_n ("dual residual", at every
    reported index, at least one) and, where h is reported, of <h_n, m_n> = 1
    ("|<h,m>-1|") and L_n h_n = lambda_n h_{n+1} ("h residual"), graded at tol."""
    _check_chain(fwd, bwd)
    seq = fwd.seq
    if not fwd.reported_lam:
        raise ConvergenceError(f"window {seq.n_min}..{seq.n_max} reports no eigenvalue "
                               f"index below its headroom of {fwd.headroom} steps")
    h_idx = set(bwd.reported_h) if bwd is not None else set()
    dual, pair_h, resid_h = {}, {}, {}
    for n in fwd.reported_lam:
        lam, m = fwd.lam[n], fwd.m[n].weights
        back = _dual_weights(seq.stage(n), fwd.m[n + 1].weights)
        dual[n] = float(np.abs(back - lam * m).sum())
        if n in h_idx:
            h = bwd.h[n].values
            pair_h[n] = abs(float(h @ m) - 1.0)
            img = _apply_values(seq.stage(n), h)
            resid_h[n] = float(np.abs(img - lam * bwd.h[n + 1].values).max())
    return Verdict({"dual residual": dual, "|<h,m>-1|": pair_h, "h residual": resid_h}, tol)


def _cone_seeds(fwd: ForwardSolution, consumer: str, count: int) -> np.ndarray:
    """The first ``count`` members of ``consumer``'s range of the sample
    family in the forward solution's cone on the window bottom: the rows of
    a backward re-solve."""
    return family_rows(fwd.seq.space(fwd.seq.n_min), fwd.cone, member_range(consumer, count))


def _reseed_gaps(fwd: ForwardSolution, bwd: Optional[BackwardSolution], tails: dict,
                 h_seeds: np.ndarray) -> tuple[dict, dict, dict]:
    """Largest gaps between the reported data and re-solves from other seeds.

    Forward: the rows of ``tails[tail]``, positive weights on X_tail, are
    normalized and re-solved by one frozen sweep from that tail, compared as
    the sweep goes in log lambda and, against each index's own weak*
    dictionary, in m, over the reported indices below that tail's headroom.
    Backward: the rows of ``h_seeds``, fields on the bottom of the window,
    are re-solved by one sweep from there, compared in h.  Returns the
    largest |d log lambda|, norm-scaled dm and |dh| at each compared index,
    as three dicts {n: gap} in index order.  Raises
    ConvergenceError when no re-solve reaches a reported index, since gaps
    over no index would read 0 and pass.
    """
    _check_chain(fwd, bwd)
    seq = fwd.seq
    dlam, dm, dh = {}, {}, {}
    lam_idx, m_idx = set(fwd.reported_lam), set(fwd.reported_m)
    compared = 0
    for tail, seeds in tails.items():
        hi = tail - fwd.headroom
        seeds = seeds / seeds.sum(axis=1)[:, None]
        for n, mass, nu in _pullbacks(seq, tail, seeds):
            if n < hi and n in lam_idx:
                log_lam = math.log(fwd.lam[n])
                dlam[n] = max(dlam.get(n, 0.0),
                              *(abs(math.log(x) - log_lam) for x in mass.tolist()))
            if n <= hi and n in m_idx:
                d = weak_dictionary(seq.space(n))
                gap = np.abs(pairing_vector(d, fwd.m[n].weights)
                             - pairing_vector(d, nu)) / d.norms
                dm[n] = max(dm.get(n, 0.0), float(gap.max()))
                compared += 1
    if not compared:
        raise ConvergenceError(
            f"no re-solve reaches a reported index: tails {list(tails)} "
            f"leave none {fwd.headroom} steps below them")
    if bwd is not None:
        h_idx, top = set(bwd.reported_h), max(bwd.reported_h)
        for n, h in _pushforwards(fwd, h_seeds):
            if n in h_idx:
                dh[n] = float(_row_sup_gap(h, bwd.h[n].values).max())
            if n == top:
                break
    return tuple(dict(sorted(g.items())) for g in (dlam, dm, dh))


def verify_independence(fwd: ForwardSolution, bwd: Optional[BackwardSolution], *,
                        tol: float) -> Verdict:
    """Re-solve with different tail seeds and compare the reported data.

    The limits do not depend on the seed sequence; at finite depth the
    difference is bounded by the same contraction envelope as the
    convergence error, so reported indices must agree to within 10 tol:
    the criteria "dlam", "dm" and "dh" of _reseed_gaps, graded at 10 tol.
    The two tail seeds sigma are the weights of the first two members of
    the sample family's "independence tails" range on the window top, in
    the forward solution's cone, and the two backward seeds the first two
    of its "independence seeds" range on the window bottom.
    """
    top = fwd.seq.n_max
    sigma = family_rows(fwd.seq.space(top), fwd.cone, member_range("independence tails", 2))
    gaps = _reseed_gaps(fwd, bwd, {top: sigma}, _cone_seeds(fwd, "independence seeds", 2))
    return Verdict(dict(zip(("dlam", "dm", "dh"), gaps)), 10.0 * tol)


def verify_uniqueness(fwd: ForwardSolution, bwd: Optional[BackwardSolution], *,
                      tol: float) -> Verdict:
    """Collapse checks for the uniqueness statements, graded at 10 tol.

    Re-solves from tails 3 and 5 steps below the window top must reproduce
    (lambda, m) ("dlam", "dm"); any normalized candidate chain satisfying
    the eigenrelations recovers its scalars as exactly lambda_n ("xi gap",
    relative, at every reported h index); and backward re-solves from
    fresh cone seeds must reproduce h ("dh").  The four backward seeds are
    the first members of the sample family's "uniqueness seeds" range in
    the forward solution's cone (an interior and an extremal pair), and the
    candidate scale c of the r-th reported h is its "uniqueness scales"
    member r on a one-point space, a number in [0.5, 2].  Raises
    ConvergenceError when neither tail leaves a reported index a full
    headroom below it.
    """
    seq = fwd.seq
    tails = {t: MeasureVec.uniform(seq.space(t)).weights[None]
             for t in (seq.n_max - 3, seq.n_max - 5)}
    dlam, dm, dh = _reseed_gaps(fwd, bwd, tails, _cone_seeds(fwd, "uniqueness seeds", 4))
    xi = {}
    if bwd is not None:
        # candidate g = c h_n normalized against m_n, one index at a time
        scale = family_rows(PointSpace.simplex(1), DEFAULT_CONE,
                            member_range("uniqueness scales", len(bwd.reported_h)))[:, 0]
        for n, c in zip(bwd.reported_h, scale.tolist()):
            g = bwd.h[n].values * c
            g *= 1.0 / float(g @ fwd.m[n].weights)
            xi_n = float(_apply_values(seq.stage(n), g) @ fwd.m[n + 1].weights)
            xi[n] = abs(xi_n - fwd.lam[n]) / fwd.lam[n]
    return Verdict({"dlam": dlam, "dm": dm, "xi gap": xi, "dh": dh}, 10.0 * tol)


_RATE_RECORD = np.dtype([("n", np.int64), ("k", np.int64), ("err_lambda", np.float64),
                         ("err_m", np.float64), ("err_h", np.float64)])


@dataclass
class RatesReport:
    """The replayed error records and the envelope verdict.

    ``rows`` holds one record per forward record, index by index in the
    window's order and depth by depth within an index, as five array
    columns of one structured array: ``n`` and ``k`` (int64), and
    ``err_lambda``, ``err_m`` and ``err_h`` (float64), ``err_h`` nan where
    the backward records have no entry with the same (n, k).  A record
    takes 40 bytes; ``len(rows)`` counts them."""

    rows: np.ndarray
    violations: int
    slopes: dict          # n -> (slope_lambda, slope_h)
    passed: bool


def _slope(errs: list, k_lo: int) -> float:
    """Least-squares slope of log error on depth over the decaying prefix of
    one history, ``errs`` at depths k = 1, 2, ..., fitted from depth ``k_lo``.

    Histories bottom out on a noise floor once the iterates agree to
    roundoff; the fit stops at the first error within 10x of the history's
    minimum so the floor does not wash out the decay.  Fewer than three
    usable points means the history was flat at noise level from the start
    (slope -inf, degenerate pass).
    """
    floor = max(min(errs) * 10.0, _ZERO_FLOOR)
    for stop, e in enumerate(errs):
        if e <= floor:
            break
    pts = [(k, math.log(e)) for k, e in enumerate(errs[k_lo - 1:stop + 1], k_lo)
           if e > _ZERO_FLOOR]
    if len(pts) < 3:
        return -math.inf
    ks, ys = zip(*pts)
    mk, my = sum(ks) / len(pts), sum(ys) / len(pts)
    return sum((k - mk) * (y - my) for k, y in pts) / sum((k - mk) ** 2 for k in ks)


def verify_exponential_rates(fwd: ForwardSolution, bwd: Optional[BackwardSolution],
                             rc: RateConstants, *, slack: float = 1e-9) -> RatesReport:
    """Replay recorded error histories against the contraction envelopes.

    Growth-log errors are held to C1 gamma^k for k >= tau + 1 (one dual step
    is spent relating consecutive quotients), measure-pairing errors to
    C1 gamma^k for k >= tau, and eigenfunction errors to C3 gamma^k for
    k >= tau.  The envelope comparison at absolute slack is the quantitative
    assertion; the log-error slope of each index's own growth-log and
    eigenfunction history (_slope) additionally must be strictly negative
    and within one e-fold per step of log(gamma), a smell test that
    tolerates histories whose fast transient bottoms out onto a tiny slow
    regime.  Indices whose history is flat at roundoff, or missing, pass as
    degenerate (slope -inf).  Raises StructuralError when a given solution
    has no records to replay (solved with with_diagnostics=False), since no
    records would read as a pass.
    """
    _check_chain(fwd, bwd)
    fr = fwd.records
    if not fr.size or (bwd is not None and not bwd.records.size):
        raise StructuralError("rates need error histories: solve with with_diagnostics=True")
    br = bwd.records if bwd is not None else np.empty(0, _BACKWARD_RECORD)
    br = br[:np.searchsorted(br["n"], fwd.reported_m[-1], "right")]   # at forward indices
    k_f, err_l, k_b, err_hb = fr["k"], fr["err_lambda"], br["k"], br["err_h"]
    env = rc.C1 * rc.gamma ** k_f
    envh = rc.C3 * rc.gamma ** k_b
    viol = (int(np.sum((err_l > env + slack) & (k_f >= rc.tau + 1)))
            + int(np.sum((fr["err_m"] > env + slack) & (k_f >= rc.tau)))
            + int(np.sum((err_hb > envh + slack) & (k_b >= rc.tau))))
    rows = np.empty(fr.size, _RATE_RECORD)
    rows[list(_RATE_RECORD.names[:4])] = fr[list(_RATE_RECORD.names[:4])]
    rows["err_h"] = math.nan
    # each backward error lands on the forward record with the same (n, k)
    at = np.minimum(np.searchsorted(fr["n"], br["n"]) + k_b - 1, fr.size - 1)
    hit = (fr["n"][at] == br["n"]) & (k_f[at] == k_b)
    rows["err_h"][at[hit]] = err_hb[hit]
    sh = {n: _slope(h["err_h"].tolist(), rc.tau) for n, h in _histories(br).items()}
    slopes = {n: (_slope(h["err_lambda"].tolist(), rc.tau + 1), sh.get(n, -math.inf))
              for n, h in _histories(fr).items()}
    bound = math.log(rc.gamma) + 1.0
    slope_ok = all(s[0] < 0.0 and s[0] <= bound and s[1] < 0.0 and s[1] <= bound
                   for s in slopes.values())
    return RatesReport(rows=rows, violations=viol, slopes=slopes,
                       passed=(viol == 0 and slope_ok))


def _compose_rows(seq: StageSeq, starts: list, k: int, X) -> np.ndarray:
    """Row r of X (a sequence of fields on one space) through the k stages
    from index starts[r], one _apply_values call per start and step on the
    stack of that start's rows, each image written once into the stack that
    the cone gaps read.  The rows' paths pass through the same spaces."""
    out = np.empty((len(starts), seq.space(starts[0] + k).n_points))
    rows = {}
    for r, n in enumerate(starts):
        rows.setdefault(n, []).append(r)
    for n, rs in rows.items():
        x = np.stack([X[r] for r in rs])
        for j in range(n, n + k):
            x = _apply_values(seq.stage(j), x)
        out[rs] = x
    return out


def _pair_images(seq: StageSeq, tau: int, starts: list, f: np.ndarray, g: np.ndarray,
                 A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, int]:
    """The tau-step images of the sampled pairs (f, g) (rows of f and g,
    with their Lambda(Q) gaps A, B) and of the extremal difference
    directions u = g - A f and v = B f - g of each pair where both are
    nonzero (above 1e-13 of max |g|): one stack with rows [f; u; g; v], and
    the number of derived pairs.  The block holds f, g, u, v and the images."""
    u = g - A[:, None] * f
    v = B[:, None] * f - g
    gn = 1e-13 * np.abs(g).max(axis=1)
    der = np.nonzero((np.abs(u).max(axis=1) > gn) & (np.abs(v).max(axis=1) > gn))[0]
    half = starts + [starts[i] for i in der]
    rows = [*f, *(u[i] for i in der), *g, *(v[i] for i in der)]
    return _compose_rows(seq, half * 2, tau, rows), der.size


@dataclass
class ContractionReport:
    Delta_measured: float
    ratios: np.ndarray
    monotone_violations: int
    passed: bool
    members: range   # the family ids drawn

    @property
    def block_factor(self) -> float:
        """tanh(Delta_measured/4), the factor every ratio is held to."""
        return birkhoff_rate(self.Delta_measured)

    @property
    def n_pairs(self) -> int:
        return len(self.ratios)


def verify_cone_contraction(seq: StageSeq, p: ConeParams, *, tau: int,
                            n_samples: int = 100, seed: int = 0,
                            extra_delta: float = 0.0,
                            monotone_every: int = 1) -> ContractionReport:
    """Sampled tau-block contraction factors against tanh(Delta_measured/4).

    For each sampled cone pair (f, g) the block ratio
    Theta(L^tau f, L^tau g) / Theta(f, g) is recorded.  Delta_measured is
    the largest image distance seen, including the image distance of the
    extremal difference directions g - A f and B f - g of every pair; the
    contraction factor of a pair is governed by the image distance of
    exactly that derived pair, which makes the asserted bound sound on the
    sample rather than merely plausible.

    Sample s is the pair of members 2 s and 2 s + 1 of the sample family's
    contraction range at ``seed`` (cones.member_range), which no other
    consumer draws from, so the pairs are never the certificate's.
    Sample s sits at index s modulo the indices with a full tau-block.

    Consecutive samples whose blocks pass through the same spaces are
    processed together, at most 2^15 cells per block counted as the eight
    fields a sample keeps (f, g, the derived pair u, v and their tau-step
    images) on the widest of those spaces: the fields are drawn in sample
    order and pushed through their own stages row by row, and the gaps, the
    derived pairs and the monotone check are row-wise array operations.  The
    unit-image diameters are taken index by index.
    """
    if not all(isinstance(v, (int, np.integer)) and v >= 1
               for v in (tau, n_samples, monotone_every)):
        raise DomainError("tau, n_samples and monotone_every must be integers of at least 1")
    members = member_range("contraction", 2 * n_samples, seed)
    slack = 1e-9
    indices = [n for n in seq.stage_indices if n + tau <= seq.n_max]
    if not indices:
        raise StructuralError("window too short for one tau-block")

    def path(n):
        return tuple(seq.space(j) for j in range(n, min(n + 2 * tau, seq.n_max) + 1))

    delta_m = extra_delta
    for n in indices:
        img1 = np.ones(seq.space(n).n_points)
        for j in range(n, n + tau):
            img1 = _apply_values(seq.stage(j), img1)
        delta_m = max(delta_m, math.log(float(img1.max()) / float(img1.min())))
    at = [indices[s % len(indices)] for s in range(n_samples)]
    ratios = []
    mono_viol = 0
    for run in _runs(range(n_samples), lambda s: path(at[s]), rows=8):
        sp = seq.space(at[run[0]])
        # rows 2i and 2i + 1 of the draws are the pair (f_i, g_i)
        f, g = family_rows(sp, p, members[2 * run[0]:2 * run[-1] + 2]   # runs are consecutive
                           ).reshape(len(run), 2, -1).swapaxes(0, 1)
        A, B, thetas = _gaps(f, g, sp, p)
        keep = [i for i, t in enumerate(thetas) if 0.0 < t < math.inf]
        if not keep:
            continue
        k = len(keep)
        theta_in = [thetas[i] for i in keep]
        starts = [at[run[i]] for i in keep]
        f, g = f[keep], g[keep]   # copies of the kept pairs: the draws are freed
        out, nd = _pair_images(seq, tau, starts, f, g, A[keep], B[keep])
        thetas = _gaps(out[:k + nd], out[k + nd:], seq.space(starts[0] + tau), p)[2]
        theta_out = thetas[:k]
        delta_m = max(delta_m, *thetas)
        ratios += [o / t for o, t in zip(theta_out, theta_in)]
        mono = [i for i in range(k)
                if starts[i] + 2 * tau <= seq.n_max and run[keep[i]] % monotone_every == 0]
        if mono:
            out2 = _compose_rows(seq, [starts[i] + tau for i in mono] * 2, tau,
                                 [out[i] for i in mono] + [out[k + nd + i] for i in mono])
            theta_out2 = _gaps(out2[:len(mono)], out2[len(mono):],
                               seq.space(starts[0] + 2 * tau), p)[2]
            delta_m = max(delta_m, *theta_out2)
            mono_viol += sum(t2 > theta_out[i] + slack for i, t2 in zip(mono, theta_out2))
    ratios = np.array(ratios)
    passed = bool(np.all(ratios <= birkhoff_rate(delta_m) + slack)) and mono_viol == 0
    return ContractionReport(Delta_measured=delta_m, ratios=ratios,
                             monotone_violations=mono_viol, passed=passed, members=members)


# ---------------------------------------------------------------------------
# pseudo-invariant chain
# ---------------------------------------------------------------------------

@dataclass
class InvariantChain:
    """The checked pseudo-invariant chain: per-index gaps over ``window``,
    graded at ``tol`` as a Verdict of its ``criteria``.

    mu(n) and normalized_stage(n) rebuild mu_n and L~_n from the solutions
    with the calls the check made, so they have its bits; the chain keeps
    neither, so its memory does not grow with the window.
    """
    fwd: ForwardSolution = field(repr=False)
    bwd: BackwardSolution = field(repr=False)
    window: list
    push_gap: dict        # n -> max dictionary pushforward gap
    tilde_one_err: dict   # n -> ||L~ 1 - 1||_inf
    tilde_dual_gap: dict  # n -> max dictionary gap of L~* mu_{n+1} vs mu_n
    tol: float

    @property
    def criteria(self) -> dict:
        return {"push gap": self.push_gap, "||L~1 - 1||": self.tilde_one_err,
                "dual gap": self.tilde_dual_gap}

    worst, passed = Verdict.worst, Verdict.passed

    def _index(self, n: int, past: int) -> int:
        if not self.window[0] <= n <= self.window[-1] + past:
            raise DomainError(f"index {n} is outside the invariant chain's window "
                              f"{self.window[0]}..{self.window[-1] + past}")
        return n

    def mu(self, n: int) -> MeasureVec:
        """mu_n, d mu_n = h_n d m_n normalized, for n in the window or one past it."""
        return _invariant_measure(self.fwd, self.bwd, self._index(n, 1))

    def normalized_stage(self, n: int) -> Stage:
        """The normalized stage L~_n for n in the window."""
        return _normalized(self.fwd, self.bwd, self._index(n, 0))


def _invariant_measure(fwd: ForwardSolution, bwd: BackwardSolution, n: int) -> MeasureVec:
    return normalize(MeasureVec(fwd.seq.space(n), bwd.h[n].values * fwd.m[n].weights))


def _normalized(fwd: ForwardSolution, bwd: BackwardSolution, n: int) -> Stage:
    return normalize_stage(fwd.seq.stage(n), bwd.h[n], bwd.h[n + 1], fwd.lam[n])


def build_invariant_chain(fwd: ForwardSolution, bwd: BackwardSolution, *,
                          tol: float, eigen: Optional[Verdict] = None) -> InvariantChain:
    """Measures mu_n with d mu_n = h_n d m_n, plus the normalized stages.

    Verifies the pushforward identity through dictionary pairings, the
    stochasticity of the normalized operators, and the dual transport of mu.
    For operator stages (no underlying map) the pushforward of mu is the
    mass transport induced by the normalized weights, whose defect against
    mu_{n+1} reduces exactly to the stochasticity defect of the normalized
    operator; the map-based families get the genuine composition test with
    test functions evaluated at the image points: exact images of a lift,
    once per distinct lift, or the image indices of a finite map.  Each
    check is one row dot per dictionary entry.

    The walk up the window holds indices n and n + 1 only: mu_n, its weak*
    pairings and L~_n are built, checked and dropped one index at a time,
    and a lift's rows at its exact images are kept until the last index
    whose stage uses that lift.  The chain keeps the gaps; mu_n and L~_n
    are rebuilt on demand (InvariantChain.mu, .normalized_stage).

    Refused unless every eigenrelation residual is below ``tol``, read from
    ``eigen`` when the caller has verify_eigen_relations(fwd, bwd, .) already
    (its verdict, graded at another tolerance, is not read).
    """
    _check_chain(fwd, bwd)
    seq = fwd.seq
    eig = verify_eigen_relations(fwd, bwd, tol) if eigen is None else eigen
    if not max(map(eig.worst, eig.criteria)) < tol:
        worst = ", ".join(f"{name} {eig.worst(name)}" for name in eig.criteria)
        raise DomainError(f"eigenrelation residuals ({worst}) exceed {tol}; "
                          "refusing to build the invariant chain")
    window = bwd.reported_h[:-1]
    if not window:
        raise ConvergenceError("window too short to report any invariant-chain index")

    def lift(st):
        return (st.map_fn, st.domain, st.codomain) if st.map_fn is not None else None

    def measure(n):   # mu_n and the weak* dictionary of X_n against it
        mu = _invariant_measure(fwd, bwd, n)
        return mu, _row_dots(weak_dictionary(seq.space(n)).matrix, mu.weights)

    last = {lift(seq.stage(n)): n for n in window}   # the last index of each lift
    images = {}   # lift -> dictionary rows at its exact image points, until its last index
    push_gap, one_err, dual_gap = {}, {}, {}
    mu, pairing = measure(window[0])
    for n in window:
        st, nst = seq.stage(n), _normalized(fwd, bwd, n)
        mu_up, pairing_up = measure(n + 1)
        d, d_dom = weak_dictionary(seq.space(n + 1)), weak_dictionary(seq.space(n))
        tilde_one = _apply_values(nst, np.ones(seq.space(n).n_points))
        one_err[n] = float(np.abs(tilde_one - 1.0).max())
        if not st.has_map:
            # no map: transport along the normalized weights; the defect
            # is exactly <f, mu_{n+1} (L~1 - 1)>
            push = _row_dots(d.matrix, mu_up.weights * tilde_one)
        elif st.map_fn is not None:
            key = lift(st)
            rows = images.pop(key, None)
            if rows is None:
                y = st.map_fn(st.domain.positions) % 1.0
                rows = np.stack([fn(y) for fn in d.fns])
            if last[key] > n:
                images[key] = rows
            push = _row_dots(rows, mu.weights)
        else:   # take keeps the rows C-ordered, so each dot has the bits of a pairing
            push = _row_dots(d.matrix.take(st.forward_index, axis=1), mu.weights)
        push_gap[n] = float((np.abs(push - pairing_up) / d.norms).max())
        # the dual transport <L~ f, mu_{n+1}> = <f, mu_n> tests f on X_n
        back = _row_dots(_apply_values(nst, d_dom.matrix), mu_up.weights)
        dual_gap[n] = float((np.abs(back - pairing) / d_dom.norms).max())
        mu, pairing = mu_up, pairing_up
    return InvariantChain(fwd=fwd, bwd=bwd, window=window, push_gap=push_gap,
                          tilde_one_err=one_err, tilde_dual_gap=dual_gap, tol=tol)
