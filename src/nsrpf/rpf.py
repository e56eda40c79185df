"""Solvers and verifiers for the chain eigendata (lambda_n, m_n, h_n, mu_n).

Forward data.  For a tail seed sigma on X_t, one dual sweep down the window
produces the coherent family

    m_n = normalized (L_n^* m_{n+1}),    lambda_n = mass(L_n^* m_{n+1}),

so the eigenrelations L_n^* m_{n+1} = lambda_n m_n telescope exactly (to
roundoff) by construction, while the distance to the bi-infinite limit is
controlled by cone contraction: it decays like C1 gamma^k in the available
tail depth k = t - n.  Each measure is renormalized to unit mass at every
step and the growth factor is kept separately, so nothing overflows no
matter how deep the window is.

Diagnostics.  An incremental sweep advances every index by one dual
application per iteration, which realizes the quotient at depth k for each
index with tail seeds supplied per level.  Successive-iterate gaps (in the
growth logs and in pairings against a separating dictionary) give the
stopping index k*; distances to the frozen solution give the error
histories that the exponential-rate verifier replays against the C1 gamma^k
and C3 gamma^k envelopes.  The sweeps are index-major: all depths of one
index are the rows of one array, advanced by one stacked call of its stage
from the previous index's rows.  Gaps and errors are row-wise array
operations, and every history equals the one a per-index loop of
apply_L_dual / apply_L would record, bit for bit.

Stopping rule (both solvers).  With gamma = block_factor^(1/tau) the
per-step contraction rate and s_tol = tol (1 - gamma) / 2, the stopping
depth k* of a reported index is the first recorded depth k >= tau at which
its successive gap falls below s_tol.  The sweep runs to depth
headroom + 2 tau + 2; an index that never meets the rule raises
ConvergenceError with its history.

Backward data.  With lambda fixed, one forward sweep of the normalized
operators from the bottom of the window yields h_n with
L_n h_n = lambda_n h_{n+1} exact by construction and <h_n, m_n> = 1
telescoping through the dual relations.  Reported indices keep a headroom of
tau * (max(ceil(log(1/tol)/log(1/block_factor)), 0) + 2) >= 2 tau steps to
the window edge on the relevant side, so truncation of the (bi-)infinite
chain stays below tolerance at every reported index, and every reported
index n has n + 1 inside the window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cones import (DEFAULT_CONE, ConeParams, birkhoff_rate, hilbert_gap_log_holder,
                    sample_log_holder_field, theta_log_holder)
from .dictionaries import cone_dictionary, pairing_vector, weak_dictionary
from .errors import ConvergenceError, DomainError, StructuralError
from .hypotheses import RateConstants
from .spaces import Field, MeasureVec, normalize, pair, unit_field
from .transfer import (StageSeq, _apply_values, _dual_weights, apply_L, apply_L_dual,
                       compose_L, normalize_stage)

_ZERO_FLOOR = 1e-13   # error values below this count as converged noise


# ---------------------------------------------------------------------------
# seed families
# ---------------------------------------------------------------------------

def _uniform_sigma(level: int, space) -> MeasureVec:
    return MeasureVec.uniform(space)


def _random_sigma(seed: int) -> Callable:
    def fam(level: int, space) -> MeasureVec:
        rng = np.random.default_rng((seed, level + 2 ** 20))
        return MeasureVec(space, rng.uniform(0.5, 1.5, size=space.n_points))
    return fam


def _random_cone_seed(seed: int, p: ConeParams) -> Callable:
    def fam(level: int, space) -> Field:
        rng = np.random.default_rng((seed, level + 2 ** 20))
        return sample_log_holder_field(space, p, rng)
    return fam


def headroom_steps(tol: float, block_factor: float, tau: int) -> int:
    """Window steps needed before an index may be reported."""
    if not (0.0 < block_factor < 1.0):
        raise DomainError("block contraction factor must lie in (0, 1)")
    if not tol > 0.0 or tau < 1:
        raise DomainError("need a positive tolerance and tau >= 1")
    # at least two blocks, also when tol >= 1 makes the logarithm negative
    blocks = max(math.ceil(math.log(1.0 / tol) / math.log(1.0 / block_factor)), 0) + 2
    return tau * blocks


def _stopping_rule(side: str, sol: ForwardSolution | BackwardSolution, sweep: Callable) -> None:
    """The stopping rule of both solvers (see the module docstring).

    Fills ``sol.histories`` with ``sweep(k_cap)``, the histories of the
    reported indices over depths 1..k_cap, and ``sol.k_star`` from them.
    Raises ConvergenceError carrying the history of the first reported index
    that never meets the rule.
    """
    gamma_step = sol.block_factor ** (1.0 / sol.tau)
    s_tol = sol.tol * (1.0 - gamma_step) / 2.0
    k_cap = sol.headroom + 2 * sol.tau + 2
    sol.histories = sweep(k_cap)
    for n, h in sol.histories.items():
        hits = np.nonzero((h.ks >= sol.tau) & (h.succ < s_tol))[0]
        if hits.size == 0:
            raise ConvergenceError(
                f"{side} index {n}: successive gaps never fell below {s_tol} "
                f"within {k_cap} iterations", history=h)
        sol.k_star[n] = int(h.ks[hits[0]])


# ---------------------------------------------------------------------------
# forward solver
# ---------------------------------------------------------------------------

@dataclass
class ForwardHistory:
    ks: np.ndarray
    succ: np.ndarray        # max successive gap (growth log and weak pairings)
    err_lambda: np.ndarray  # |r_{n,k} - log lambda_n|
    err_m: np.ndarray       # max normalized cone-dictionary pairing gap vs m_n


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
    histories: dict


def _frozen_forward(seq: StageSeq, tail: int, sigma_family) -> tuple[dict, dict]:
    """One coherent dual sweep from the tail: exact eigenchain of the window."""
    nu = {tail: normalize(sigma_family(tail, seq.space(tail)))}
    lam = {}
    for n in range(tail - 1, seq.n_min - 1, -1):
        raw = _dual_weights(seq.stage(n), nu[n + 1].weights)
        mass = float(raw.sum())
        lam[n] = mass
        nu[n] = MeasureVec(seq.space(n), raw / mass)
    return lam, nu


def _forward_sweep(sol: ForwardSolution, k_cap: int) -> dict:
    """Histories of the incremental dual sweep, one per reported index.

    Walks the window down from its top.  Index n is live at depths
    1..min(n_max - n, k_cap), and all of them are one dual call of stage n
    on the stack [depth-0 seed on X_{n+1}; depths 1.. of index n + 1], so
    only the previous index's iterates are kept.
    """
    seq, top = sol.seq, sol.seq.n_max
    # per space: depth-0 seed, dictionaries and the seed's weak pairings
    seed, weak, coned, seed_weak = {}, {}, {}, {}
    for sp in {seq.space(n) for n in seq.space_indices}:
        seed[sp] = normalize(MeasureVec.uniform(sp)).weights
        weak[sp] = weak_dictionary(sp)
        coned[sp] = cone_dictionary(sp, sol.cone)
        seed_weak[sp] = pairing_vector(weak[sp], seed[sp])
    hist = {}
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
        hist[n] = ForwardHistory(ks=np.arange(1, d + 1, dtype=np.int64),
                                 succ=np.maximum(succ_r, succ_w),
                                 err_lambda=np.abs(r - math.log(sol.lam[n])),
                                 err_m=em.max(axis=1))
    return {n: hist[n] for n in sol.reported_m}


def solve_forward(seq: StageSeq, *, tol: float, tau: int, block_factor: float,
                  cone_params: Optional[ConeParams] = None,
                  with_diagnostics: bool = True) -> ForwardSolution:
    """Growth factors and eigenmeasures over the window.

    The returned solution is frozen from the deepest available tail (the
    window top), so its eigenrelations telescope exactly; per-index stopping
    depths k* and full error histories come from the incremental sweep.
    Raises ConvergenceError when a reportable index fails to meet the
    stopping rule within its available depth.
    """
    hr = headroom_steps(tol, block_factor, tau)
    tail = seq.n_max
    lam, nu = _frozen_forward(seq, tail, _uniform_sigma)
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
                          k_star={}, histories={})
    if with_diagnostics:
        _stopping_rule("forward", sol, lambda k_cap: _forward_sweep(sol, k_cap))
    return sol


# ---------------------------------------------------------------------------
# backward solver
# ---------------------------------------------------------------------------

@dataclass
class BackwardHistory:
    ks: np.ndarray
    succ: np.ndarray
    err_h: np.ndarray


@dataclass
class BackwardSolution:
    seq: StageSeq
    tol: float
    tau: int
    block_factor: float
    headroom: int
    h: dict
    reported_h: list
    k_star: dict
    histories: dict


def _frozen_backward(fwd: ForwardSolution, seed: Field) -> dict:
    """One coherent forward sweep from a seed on the bottom of the window."""
    seq, bottom = fwd.seq, fwd.seq.n_min
    g0 = pair(seed, fwd.m[bottom])
    if g0 <= 0.0:
        raise DomainError("backward seed must have positive mass against m")
    h = {bottom: Field(seq.space(bottom), seed.values / g0)}
    for n in range(bottom, seq.n_max):
        h[n + 1] = Field(seq.space(n + 1),
                         _apply_values(seq.stage(n), h[n].values) / fwd.lam[n])
    return h


def _row_sup_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """max |a - b| over each row, with one temporary of a's size."""
    d = a - b
    return np.abs(d, out=d).max(axis=1)


def _backward_sweep(sol: BackwardSolution, fwd: ForwardSolution, k_cap: int) -> dict:
    """Histories of the incremental forward sweep, one per reported index.

    Walks the window up from its bottom.  Index n is live at depths
    1..min(n - n_min, k_cap), and all of them are one call of stage n - 1 on
    the stack [depth-0 seed on X_{n-1}; depths 1.. of index n - 1], so only
    the previous index's iterates are kept.
    """
    seq, bottom = sol.seq, sol.seq.n_min

    def seed(n):
        """Depth 0 on X_n: the unit field over its pairing with m_n."""
        one = unit_field(seq.space(n))
        return np.full((1, one.values.size), 1.0 / pair(one, fwd.m[n]))

    hist = {}
    below, prev = seed(bottom), np.empty((0, seq.space(bottom).n_points))
    for n in range(bottom + 1, sol.reported_h[-1] + 1):
        here, d = seed(n), min(n - bottom, k_cap)
        it = _apply_values(seq.stage(n - 1), np.concatenate((below, prev[:d - 1])))
        it /= fwd.lam[n - 1]
        if n >= sol.reported_h[0]:
            hist[n] = BackwardHistory(ks=np.arange(1, d + 1, dtype=np.int64),
                                      succ=_row_sup_gap(it, np.concatenate((here, it[:-1]))),
                                      err_h=_row_sup_gap(it, sol.h[n].values))
        below, prev = here, it
    return hist


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
    h = _frozen_backward(fwd, unit_field(seq.space(seq.n_min)))
    hr = fwd.headroom
    lo_h = seq.n_min + hr
    hi_h = max(fwd.reported_m)
    if lo_h > hi_h:
        raise ConvergenceError("window too short to report any backward index")
    reported_h = list(range(lo_h, hi_h + 1))
    sol = BackwardSolution(seq=seq, tol=fwd.tol, tau=fwd.tau, block_factor=fwd.block_factor,
                           headroom=hr, h=h, reported_h=reported_h, k_star={}, histories={})
    if with_diagnostics:
        _stopping_rule("backward", sol, lambda k_cap: _backward_sweep(sol, fwd, k_cap))
    return sol


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

@dataclass
class EigenReport:
    rows: list           # (n, resid_dual, pair_h, resid_h); nan where not applicable
    max_resid_dual: float
    max_pair_h: float
    max_resid_h: float
    passed: bool


def verify_eigen_relations(fwd: ForwardSolution, bwd: Optional[BackwardSolution],
                           tol: float) -> EigenReport:
    """Residuals of L_n^* m_{n+1} = lambda_n m_n, <h_n, m_n> = 1, and
    L_n h_n = lambda_n h_{n+1} at every reported index."""
    seq = fwd.seq
    rows = []
    md = mp = mh = 0.0
    h_idx = set(bwd.reported_h) if bwd is not None else set()
    for n in fwd.reported_lam:
        back = apply_L_dual(seq.stage(n), fwd.m[n + 1])
        resid = float(np.abs(back.weights - fwd.lam[n] * fwd.m[n].weights).sum())
        md = max(md, resid)
        ph = rh = math.nan
        if bwd is not None and n in h_idx:
            ph = abs(pair(bwd.h[n], fwd.m[n]) - 1.0)
            mp = max(mp, ph)
            img = apply_L(seq.stage(n), bwd.h[n])
            rh = float(np.abs(img.values - fwd.lam[n] * bwd.h[n + 1].values).max())
            mh = max(mh, rh)
        rows.append((n, resid, ph, rh))
    passed = md < tol and (bwd is None or (mp < tol and mh < tol))
    return EigenReport(rows=rows, max_resid_dual=md, max_pair_h=mp,
                       max_resid_h=mh, passed=passed)


@dataclass
class IndependenceReport:
    max_dlam: float
    max_dm: float
    max_dh: float
    threshold: float
    passed: bool


def _reseed_gaps(fwd: ForwardSolution, bwd: Optional[BackwardSolution], runs,
                 seed_families) -> tuple[float, float, float]:
    """Largest gaps between the reported data and re-solves from other seeds.

    Forward: each (tail, sigma_family) in ``runs`` is re-solved and compared
    in log lambda and, against each index's own weak* dictionary, in m, over
    the reported indices below that tail's headroom.  Backward: each of
    ``seed_families`` is re-solved from the bottom and compared in h.
    Returns (max |d log lambda|, max norm-scaled dm, max |dh|).  Raises
    ConvergenceError when no re-solve reaches a reported index, since gaps
    over no index would read 0 and pass.
    """
    seq = fwd.seq
    dlam = dm = dh = 0.0
    weak = {n: weak_dictionary(seq.space(n)) for n in fwd.reported_m}
    compared = 0
    for tail, fam in runs:
        lam2, nu2 = _frozen_forward(seq, tail, fam)
        hi = tail - fwd.headroom
        for n in (m for m in fwd.reported_lam if m < hi):
            dlam = max(dlam, abs(math.log(lam2[n]) - math.log(fwd.lam[n])))
        for n in (m for m in fwd.reported_m if m <= hi):
            d = weak[n]
            gap = np.abs(pairing_vector(d, fwd.m[n].weights)
                         - pairing_vector(d, nu2[n].weights)) / d.norms
            dm = max(dm, float(np.max(gap)))
            compared += 1
    if not compared:
        raise ConvergenceError(
            f"no re-solve reaches a reported index: tails {[t for t, _ in runs]} "
            f"leave none {fwd.headroom} steps below them")
    if bwd is not None:
        bottom = seq.n_min
        for fam in seed_families:
            h2 = _frozen_backward(fwd, fam(bottom, seq.space(bottom)))
            for n in bwd.reported_h:
                dh = max(dh, float(np.abs(h2[n].values - bwd.h[n].values).max()))
    return dlam, dm, dh


def verify_independence(fwd: ForwardSolution, bwd: Optional[BackwardSolution], *,
                        tol: float) -> IndependenceReport:
    """Re-solve with different tail seeds and compare the reported data.

    The limits do not depend on the seed sequence; at finite depth the
    difference is bounded by the same contraction envelope as the
    convergence error, so reported indices must agree to within 10 tol.
    Backward seeds are drawn from the forward solution's cone.
    """
    thr = 10.0 * tol
    dlam, dm, dh = _reseed_gaps(
        fwd, bwd, [(fwd.seq.n_max, _random_sigma(s)) for s in (7, 88)],
        [_random_cone_seed(s, fwd.cone) for s in (11, 23)])
    passed = dlam < thr and dm < thr and dh < thr
    return IndependenceReport(max_dlam=dlam, max_dm=dm, max_dh=dh,
                              threshold=thr, passed=passed)


@dataclass
class UniquenessReport:
    max_dlam_shift: float
    max_dm_shift: float
    max_xi_gap: float
    max_dh_seed: float
    threshold: float
    passed: bool


def verify_uniqueness(fwd: ForwardSolution, bwd: Optional[BackwardSolution], *,
                      tol: float) -> UniquenessReport:
    """Collapse checks for the uniqueness statements.

    Re-solves from tails 3 and 5 steps below the window top must reproduce
    (lambda, m); any normalized candidate chain satisfying the eigenrelations
    recovers its scalars as exactly lambda_n; and backward re-solves from
    fresh cone seeds must reproduce h (seeds drawn from the forward
    solution's cone).  Raises ConvergenceError when neither tail leaves a
    reported index a full headroom below it.
    """
    seq = fwd.seq
    thr = 10.0 * tol
    dlam, dm, dh = _reseed_gaps(
        fwd, bwd, [(seq.n_max - shift, _uniform_sigma) for shift in (3, 5)],
        [_random_cone_seed(100 + s, fwd.cone) for s in range(4)])
    xi = 0.0
    if bwd is not None:
        rng = np.random.default_rng(5)
        for n in bwd.reported_h:
            c = rng.uniform(0.5, 2.0)
            g = bwd.h[n] * c
            g = g * (1.0 / pair(g, fwd.m[n]))      # normalization pins the scale
            xi_n = pair(apply_L(seq.stage(n), g), fwd.m[n + 1])
            xi = max(xi, abs(xi_n - fwd.lam[n]) / fwd.lam[n])
    passed = dlam < thr and dm < thr and xi < thr and dh < thr
    return UniquenessReport(max_dlam_shift=dlam, max_dm_shift=dm, max_xi_gap=xi,
                            max_dh_seed=dh, threshold=thr, passed=passed)


@dataclass
class RatesReport:
    rows: list            # (n, k, err_lambda, err_m, err_h) with nan padding
    violations: int
    slopes: dict          # n -> (slope_lambda, slope_h)
    passed: bool


def _fit_slope(ks, errs, k_lo):
    """Least-squares slope of log error over the decaying prefix.

    Histories bottom out on a noise floor once the iterates agree to
    roundoff; the fit stops at the running minimum so the floor does not
    wash out the decay.  Fewer than three usable points means the history
    was flat at noise level from the start (slope -inf, degenerate pass).
    """
    if errs.size == 0:
        return -math.inf
    floor = max(float(errs.min()) * 10.0, _ZERO_FLOOR)
    below = np.nonzero(errs <= floor)[0]
    stop = int(below[0]) if below.size else errs.size - 1
    ks, errs = ks[:stop + 1], errs[:stop + 1]
    mask = (ks >= k_lo) & (errs > _ZERO_FLOOR)
    if mask.sum() < 3:
        return -math.inf
    x = ks[mask].astype(np.float64)
    y = np.log(errs[mask])
    return float(np.polyfit(x, y, 1)[0])


def verify_exponential_rates(fwd: ForwardSolution, bwd: Optional[BackwardSolution],
                             rc: RateConstants, *, slack: float = 1e-9) -> RatesReport:
    """Replay recorded error histories against the contraction envelopes.

    Growth-log errors are held to C1 gamma^k for k >= tau + 1 (one dual step
    is spent relating consecutive quotients), measure-pairing errors to
    C1 gamma^k for k >= tau, and eigenfunction errors to C3 gamma^k for
    k >= tau.  The envelope comparison at absolute slack is the quantitative
    assertion; fitted log-error slopes additionally must be strictly
    negative and within one e-fold per step of log(gamma), a smell test
    that tolerates histories whose fast transient bottoms out onto a tiny
    slow regime.  Indices whose history is flat at roundoff pass as
    degenerate (slope -inf).
    """
    rows = []
    viol = 0
    slopes = {}
    bound = math.log(rc.gamma) + 1.0
    for n, h in fwd.histories.items():
        env = rc.C1 * rc.gamma ** h.ks
        viol += int(np.sum((h.err_lambda > env + slack) & (h.ks >= rc.tau + 1)))
        viol += int(np.sum((h.err_m > env + slack) & (h.ks >= rc.tau)))
        hb = bwd.histories.get(n) if bwd is not None else None
        errh = {int(k): e for k, e in zip(hb.ks, hb.err_h)} if hb is not None else {}
        for k, el, em in zip(h.ks, h.err_lambda, h.err_m):
            rows.append((n, int(k), el, em, errh.get(int(k), math.nan)))
        sl = _fit_slope(h.ks, h.err_lambda, rc.tau + 1)
        sh = -math.inf
        if hb is not None:
            envh = rc.C3 * rc.gamma ** hb.ks
            viol += int(np.sum((hb.err_h > envh + slack) & (hb.ks >= rc.tau)))
            sh = _fit_slope(hb.ks, hb.err_h, rc.tau)
        slopes[n] = (sl, sh)
    slope_ok = all(s[0] < 0.0 and s[0] <= bound and s[1] < 0.0 and s[1] <= bound
                   for s in slopes.values())
    return RatesReport(rows=rows, violations=viol, slopes=slopes,
                       passed=(viol == 0 and slope_ok))


@dataclass
class ContractionReport:
    Delta_measured: float
    block_factor: float
    ratios: np.ndarray
    monotone_violations: int
    n_pairs: int
    passed: bool


def verify_cone_contraction(seq: StageSeq, p: ConeParams, *, tau: int,
                            n_samples: int = 100,
                            rng: Optional[np.random.Generator] = None,
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
    """
    if tau < 1 or n_samples < 1 or monotone_every < 1:
        raise DomainError("tau, n_samples and monotone_every must be at least 1")
    rng = rng or np.random.default_rng(20250811)
    slack = 1e-9
    indices = [n for n in seq.stage_indices if n + tau <= seq.n_max]
    if not indices:
        raise StructuralError("window too short for one tau-block")
    delta_m = extra_delta
    for n in indices:
        img1 = compose_L(seq, n, tau, unit_field(seq.space(n)))
        delta_m = max(delta_m, math.log(img1.sup() / img1.inf()))
    ratios = []
    mono_viol = 0
    for s in range(n_samples):
        n = indices[s % len(indices)]
        sp = seq.space(n)
        f = sample_log_holder_field(sp, p, rng)
        g = sample_log_holder_field(sp, p, rng)
        A, B = hilbert_gap_log_holder(f, g, p)
        if not (A > 0.0) or math.isinf(B):
            continue
        theta_in = math.log(B / A) if B > A else 0.0
        if theta_in <= 1e-12:
            continue
        fi = compose_L(seq, n, tau, f)
        gi = compose_L(seq, n, tau, g)
        theta_out = theta_log_holder(fi, gi, p, checked=False)
        delta_m = max(delta_m, theta_out)
        u = Field(sp, g.values - A * f.values)
        v = Field(sp, B * f.values - g.values)
        gn = float(np.abs(g.values).max())
        if np.abs(u.values).max() > 1e-13 * gn and np.abs(v.values).max() > 1e-13 * gn:
            ui = compose_L(seq, n, tau, u)
            vi = compose_L(seq, n, tau, v)
            delta_m = max(delta_m, theta_log_holder(ui, vi, p, checked=False))
        ratios.append(theta_out / theta_in)
        if n + 2 * tau <= seq.n_max and s % monotone_every == 0:
            fi2 = compose_L(seq, n + tau, tau, fi)
            gi2 = compose_L(seq, n + tau, tau, gi)
            theta_out2 = theta_log_holder(fi2, gi2, p, checked=False)
            delta_m = max(delta_m, theta_out2)
            if theta_out2 > theta_out + slack:
                mono_viol += 1
    ratios = np.array(ratios)
    bf = birkhoff_rate(delta_m)
    passed = bool(np.all(ratios <= bf + slack)) and mono_viol == 0
    return ContractionReport(Delta_measured=delta_m, block_factor=bf, ratios=ratios,
                             monotone_violations=mono_viol, n_pairs=len(ratios),
                             passed=passed)


# ---------------------------------------------------------------------------
# pseudo-invariant chain
# ---------------------------------------------------------------------------

@dataclass
class InvariantChain:
    window: list
    mu: dict
    normalized_stages: dict
    push_gap: dict        # n -> max dictionary pushforward gap
    tilde_one_err: dict   # n -> ||L~ 1 - 1||_inf
    tilde_dual_gap: dict  # n -> max dictionary gap of L~* mu_{n+1} vs mu_n
    passed: bool


def build_invariant_chain(fwd: ForwardSolution, bwd: BackwardSolution, *,
                          tol: float) -> InvariantChain:
    """Measures mu_n with d mu_n = h_n d m_n, plus the normalized stages.

    Verifies the pushforward identity through dictionary pairings, the
    stochasticity of the normalized operators, and the dual transport of mu.
    For operator stages (no underlying map) the pushforward of mu is the
    mass transport induced by the normalized weights, whose defect against
    mu_{n+1} reduces exactly to the stochasticity defect of the normalized
    operator; the map-based families get the genuine composition test with
    test functions evaluated at exact image points.
    """
    seq = fwd.seq
    eig = verify_eigen_relations(fwd, bwd, tol)
    if not eig.passed:
        raise DomainError(
            f"eigenrelation residuals (dual {eig.max_resid_dual}, h {eig.max_resid_h}) "
            f"exceed {tol}; refusing to build the invariant chain")
    window = bwd.reported_h[:-1]
    if not window:
        raise ConvergenceError("window too short to report any invariant-chain index")
    mu = {}
    for n in window + [window[-1] + 1]:
        w = bwd.h[n].values * fwd.m[n].weights
        mu[n] = normalize(MeasureVec(seq.space(n), w))
    stages = {}
    push_gap = {}
    one_err = {}
    dual_gap = {}
    for n in window:
        st = seq.stage(n)
        nst = normalize_stage(st, bwd.h[n], bwd.h[n + 1], fwd.lam[n])
        stages[n] = nst
        sp = seq.space(n + 1)
        d = weak_dictionary(sp)
        tilde_one = apply_L(nst, unit_field(seq.space(n)))
        one_err[n] = float(np.abs(tilde_one.values - 1.0).max())
        gaps = []
        for i, (row, norm) in enumerate(zip(d.matrix, d.norms.tolist())):
            f = Field(sp, row)
            rhs = pair(f, mu[n + 1])
            if st.has_map:
                if st.forward_pos is not None and d.fns is not None:
                    fT = d.fns[i](st.forward_pos)
                else:
                    fT = row[st.forward_index]
                lhs = float(fT @ mu[n].weights)
            else:
                # no map: transport along the normalized weights; the defect
                # is exactly <f, mu_{n+1} (L~1 - 1)>
                lhs = float(row @ (mu[n + 1].weights * tilde_one.values))
            gaps.append(abs(lhs - rhs) / norm)
        push_gap[n] = max(gaps)
        # the dual transport <L~ f, mu_{n+1}> = <f, mu_n> tests f on X_n
        dom = seq.space(n)
        d_dom = weak_dictionary(dom)
        dgaps = []
        for row, norm in zip(d_dom.matrix, d_dom.norms.tolist()):
            f = Field(dom, row)
            dgaps.append(abs(pair(apply_L(nst, f), mu[n + 1]) - pair(f, mu[n])) / norm)
        dual_gap[n] = max(dgaps)
    passed = (max(push_gap.values()) < tol and max(one_err.values()) < tol
              and max(dual_gap.values()) < tol)
    return InvariantChain(window=window, mu=mu, normalized_stages=stages,
                          push_gap=push_gap, tilde_one_err=one_err,
                          tilde_dual_gap=dual_gap, passed=passed)
