"""Standing hypotheses of the expanding-chain setting, and every derived constant.

The map hypotheses ask for bounded degree (at most D preimages), uniform
expansion at scale delta with backward contraction factor rho, uniform
topological exactness (delta-balls cover the space after tau steps), and
uniform Holder potentials (constant H, exponent beta, oscillation at most V).
From these and a cone parameter Q above the threshold

    Q_threshold = H rho^beta / (1 - rho^beta)

the whole quantitative ledger follows in closed form:

    S     = rho^beta (H + Q)                      (image cone parameter, S < Q)
    R     = D^tau e^{tau V} e^{Q delta^beta}      (sup/inf bound after tau steps)
    Delta = 2 log( (Q+S)/(Q-S) * R )              (projective diameter bound)
    gamma = tanh(Delta/4)^{1/tau}                 (per-step contraction rate)
    C1    = Delta gamma^{-2 tau}                  (rate constant for lambda, m)
    C3    = C1 Delta^{-1} e^{2 Delta} (e^Delta - 1)   (rate constant for h)

Certification is sample-based: declared analytic parameter values are the
source of truth and the stored point samples must not contradict them.  Two
entry points are provided, one for the map hypotheses (needs stages with
actual dynamics) and one for the abstract cone conditions (unit function in
the cone, cone invariance of the operators, finite projective diameter of
tau-step images), which also covers operator chains with no dynamics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (ConeParams, _gaps, _inside, birkhoff_rate, family_rows,
                    in_log_holder_cone, member_range, pair_set)
from .errors import CertificationError, DomainError, StructuralError
from .spaces import KIND_CIRCLE, Field, holder_seminorm, unit_field
from .transfer import StageSeq, _apply_values


@dataclass(frozen=True)
class HypothesisParams:
    """Parameters (D, delta, rho, tau, H, beta, V) of the standing hypotheses."""

    D: int
    delta: float
    rho: float
    tau: int
    H: float
    beta: float
    V: float

    def __post_init__(self):
        if not all(isinstance(v, (int, np.integer)) and v >= 1 for v in (self.D, self.tau)):
            raise DomainError(f"D and tau must be positive integers, got {self.D!r}, {self.tau!r}")
        if not (0.0 < self.rho < 1.0):
            raise DomainError("rho must lie in (0, 1)")
        if not (0.0 < self.delta < math.inf):   # NaN fails
            raise DomainError("delta must be positive and finite")
        if not (0.0 <= self.H < math.inf and 0.0 <= self.V < math.inf):
            raise DomainError("H and V must be nonnegative and finite")
        if not (0.0 < self.beta <= 1.0):
            raise DomainError("beta must lie in (0, 1]")


def q_threshold(p: HypothesisParams) -> float:
    rb = p.rho ** p.beta
    return p.H * rb / (1.0 - rb)


def default_Q(p: HypothesisParams) -> float:
    """Convention: twice the threshold, or 1 when the threshold vanishes."""
    thr = q_threshold(p)
    return 2.0 * thr if thr > 0.0 else 1.0


def contraction_constants(Delta: float, tau: int) -> tuple[float, float, float]:
    """(gamma, C1, C3) from a diameter bound Delta for tau-step images."""
    if Delta <= 0.0 or tau < 1:
        raise DomainError("need Delta > 0 and tau >= 1")
    gamma = birkhoff_rate(Delta) ** (1.0 / tau)
    C1 = Delta * gamma ** (-2.0 * tau)
    C3 = C1 / Delta * math.exp(2.0 * Delta) * math.expm1(Delta)
    return gamma, C1, C3


@dataclass(frozen=True)
class RateConstants:
    """The minimal constants needed to state exponential-rate envelopes."""

    tau: int
    Delta: float
    gamma: float
    C1: float
    C3: float

    @classmethod
    def from_delta(cls, Delta: float, tau: int) -> "RateConstants":
        gamma, C1, C3 = contraction_constants(Delta, tau)
        return cls(tau=tau, Delta=Delta, gamma=gamma, C1=C1, C3=C3)


@dataclass(frozen=True)
class ConstantsLedger:
    params: HypothesisParams
    Q: float
    Q_threshold: float
    S: float
    R: float
    Delta: float
    gamma: float
    C1: float
    C3: float


def derive_constants(p: HypothesisParams, Q: float) -> ConstantsLedger:
    """Evaluate the closed-form ledger at cone parameter Q.

    Rejects Q at or below the threshold, where the image cone parameter
    S(Q) = rho^beta (H + Q) would fail to satisfy S < Q and the contraction
    argument collapses.
    """
    thr = q_threshold(p)
    if Q <= thr:
        raise DomainError(
            f"Q = {Q} must exceed H rho^beta/(1 - rho^beta) = {thr}: "
            "S(Q) < Q holds exactly on that side of the threshold")
    rb = p.rho ** p.beta
    S = rb * (p.H + Q)
    try:
        R = float(p.D) ** p.tau * math.exp(p.tau * p.V) * math.exp(Q * p.delta ** p.beta)
        Delta = 2.0 * math.log((Q + S) / (Q - S) * R)
        gamma, C1, C3 = contraction_constants(Delta, p.tau)
        if not math.isfinite(C3):   # C3 >= exp(2 Delta): finite only if R and Delta are
            raise OverflowError("C3 is not finite")
    except OverflowError as e:
        raise DomainError(f"Q = {Q} overflows the ledger constants: {e}") from e
    return ConstantsLedger(params=p, Q=Q, Q_threshold=thr, S=S, R=R,
                           Delta=Delta, gamma=gamma, C1=C1, C3=C3)


def log_shift_seminorm_bound(f: Field, c: float, beta: float) -> tuple[float, float]:
    """Both sides of  |log(f + c)|_beta <= |f|_beta / (c + inf f),  c > -inf f."""
    if c <= -f.inf():
        raise DomainError("need c > -inf f so that f + c is positive")
    lhs = holder_seminorm(Field(f.space, np.log(f.values + c)), beta)
    rhs = holder_seminorm(f, beta) / (c + f.inf())
    return lhs, rhs


# ---------------------------------------------------------------------------
# sample-based certification of the map hypotheses
# ---------------------------------------------------------------------------

def _circle_offsets(space, delta: float) -> list[tuple[int, float]]:
    """The (offset, arc distance) pairs of the delta-close grid offsets of a
    circle grid that the map certification samples: offsets 1..8, a
    Fibonacci-spaced tail and the largest."""
    offsets, dists = space.circle_offsets(delta)
    omax = int(offsets[-1]) if offsets.size else 0
    picked = set(range(1, 9)) | {omax}
    a, b = 8, 13
    while b <= omax:
        picked.add(b)
        a, b = b, a + b
    return [(o, d) for o, d in zip(offsets.tolist(), dists.tolist()) if o in picked]


def _measure_circle_map(st, delta, offsets):
    """(rho_max, expanding_ok, onto_ok) of the lift of one circle stage."""
    x = st.domain.positions
    fx = st.map_fn(x)
    rho_m = 0.0
    for o, d in offsets:
        img_gap = st.map_fn(x + d) - fx   # lift difference, positive
        if np.any(img_gap <= d):
            return None, False, True
        rho_m = max(rho_m, float((d / img_gap).max()))
    lo = fx - st.map_fn(x - delta)
    hi = st.map_fn(x + delta) - fx
    onto_ok = bool(lo.min() >= delta and hi.min() >= delta)
    return rho_m, True, onto_ok


def _circle_holder(phi, beta, offsets) -> float:
    """Largest sampled Holder quotient of the grid values phi of a circle
    stage's potential over the (offset, arc distance) pairs ``offsets``."""
    h_m = 0.0
    for o, d in offsets:
        dphi = np.abs(np.concatenate((phi[o:], phi[:o])) - phi)   # phi at x + d, minus phi
        h_m = max(h_m, float(dphi.max()) / d ** beta)
    return h_m


def _circle_exactness(seq: StageSeq, n: int, delta: float, k_max: int) -> int | None:
    """Steps until the image of every delta-ball of X_n covers the circle.

    Images of arcs are tracked exactly through the monotone lifts, so
    covering means accumulated length >= 1.
    """
    space = seq.space(n)
    x = space.positions
    lo = x - delta
    hi = x + delta
    for k in range(1, k_max + 1):
        if n + k > seq.n_max:
            return None
        st = seq.stage(n + k - 1)
        lo = st.map_fn(lo)
        hi = st.map_fn(hi)
        if float((hi - lo).min()) >= 1.0:
            return k
    return None


def _finite_exactness(seq: StageSeq, n: int, delta: float, k_max: int) -> int | None:
    space = seq.space(n)
    balls = [np.nonzero(space.dist_table[i] <= delta)[0] for i in range(space.n_points)]
    for k in range(1, k_max + 1):
        if n + k > seq.n_max:
            return None
        fwd = seq.stage(n + k - 1).forward_index
        target = seq.space(n + k).n_points
        # the distinct images of each ball, sorted (np.unique would import numpy.ma)
        balls = [np.flatnonzero(np.bincount(fwd[b], minlength=target)) for b in balls]
        if all(len(b) == target for b in balls):
            return k
    return None


def certify_map_hypotheses(seq: StageSeq) -> HypothesisParams:
    """Measure the tightest hypothesis parameters the sample supports.

    Uses exact forward positions (not snapped grid images) for the expansion
    ratios, arc arithmetic through the lifts for exactness on circle grids,
    and the stored tables for finite point sets.  Raises CertificationError
    naming the violated condition when the sample contradicts expansion or
    covering; when the family declares analytic values, a measured value
    beyond the declared one is also a certification failure (it means the
    encoding is wrong, since samples can only underestimate suprema).
    """
    decl = seq.declared
    if decl is None:
        raise CertificationError("bounded-degree",
                                 "certification needs the family's declared delta and beta")
    delta, beta = decl.delta, decl.beta
    d_m = 0
    rho_m, h_m, v_m = 0.0, 0.0, 0.0
    k_max = 8 * max(1, math.ceil(math.log2(1.0 / delta)))
    maps = {}   # (lift, grid) -> its expansion measurement and sampled offsets
    for n in seq.stage_indices:
        st = seq.stage(n)
        if not st.has_map:
            raise CertificationError(
                "bounded-degree", "map hypotheses need stages with actual dynamics")
        d_m = max(d_m, st.n_branches)
        if st.domain.kind == KIND_CIRCLE:
            if st.map_fn is None:
                raise CertificationError(
                    "uniform-expansion", f"circle stage {n} has no exact lift of its map")
            key = (st.map_fn, st.domain)
            if key not in maps:
                offsets = _circle_offsets(st.domain, delta)
                maps[key] = _measure_circle_map(st, delta, offsets), offsets
            (rho_s, expanding, onto), offsets = maps[key]
            if not expanding:
                raise CertificationError(
                    "uniform-expansion", f"non-expanding pair at stage {n}")
            if not onto:
                raise CertificationError(
                    "uniform-expansion", f"delta-ball image fails to cover a delta-ball at stage {n}")
            rho_m = max(rho_m, rho_s)
            phi = st.potential_fn(st.domain.positions)
            h_m = max(h_m, _circle_holder(phi, beta, offsets))
        else:
            dt = st.domain.dist_table
            iu, ju = np.nonzero((dt <= delta) & (dt > 0.0))
            phi = st.potential.values
            if iu.size:
                di = dt[iu, ju]
                dimg = seq.space(n + 1).dist_table[st.forward_index[iu], st.forward_index[ju]]
                if np.any(dimg <= di):
                    raise CertificationError(
                        "uniform-expansion", f"non-expanding pair at stage {n}")
                rho_m = max(rho_m, float((di / dimg).max()))
                h_m = max(h_m, float((np.abs(phi[iu] - phi[ju]) / di ** beta).max()))
        v_m = max(v_m, float(phi.max()) - float(phi.min()))
    if rho_m == 0.0:   # every measured pair gives a ratio in (0, 1)
        raise CertificationError(
            "uniform-expansion",
            f"no pair of sample points lies within delta = {delta}; "
            "refine the grid or raise delta")
    tau_m = 0
    measured_any = False
    for n in seq.space_indices:
        if n + 1 > seq.n_max:
            break
        probe = (_circle_exactness if seq.space(n).kind == KIND_CIRCLE
                 else _finite_exactness)
        t = probe(seq, n, delta, k_max)
        if t is None:
            if n + k_max <= seq.n_max:
                raise CertificationError(
                    "topological-exactness",
                    f"delta-ball images from index {n} fail to cover within {k_max} steps")
            continue   # not enough forward room to certify this index
        measured_any = True
        tau_m = max(tau_m, t)
    if not measured_any:
        raise CertificationError("topological-exactness",
                                 "window too short to certify exactness anywhere")
    measured = HypothesisParams(D=d_m, delta=delta, rho=rho_m, tau=tau_m,
                                H=h_m, beta=beta, V=v_m)
    _check_against_declared(measured, decl)
    return measured


def _check_against_declared(measured: HypothesisParams, decl: HypothesisParams):
    slack = 1e-9
    if measured.D > decl.D:
        raise CertificationError("bounded-degree",
                                 f"measured degree {measured.D} exceeds declared {decl.D}")
    if measured.rho > decl.rho * (1.0 + slack):
        raise CertificationError("uniform-expansion",
                                 f"measured rho {measured.rho} exceeds declared {decl.rho}")
    if measured.H > decl.H * (1.0 + slack) + 1e-15:
        raise CertificationError("holder-potential",
                                 f"measured H {measured.H} exceeds declared {decl.H}")
    if measured.V > decl.V * (1.0 + slack) + 1e-15:
        raise CertificationError("holder-potential",
                                 f"measured V {measured.V} exceeds declared {decl.V}")
    if measured.tau > decl.tau:
        raise CertificationError("topological-exactness",
                                 f"measured tau {measured.tau} exceeds declared {decl.tau}")


# ---------------------------------------------------------------------------
# abstract cone conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeCertificate:
    """Outcome of the cone-condition check.

    Delta_measured is the largest projective diameter observed among
    tau-step images (sampled pairs, the exact column diameter of every
    operator stage, and the unit function's image ratio).  block_factor is
    the Birkhoff contraction factor tanh(Delta_measured/4) of one tau-block.
    n_samples counts sampled pairs, none on operator chains whose cone is C+.

    Delta_source names what set Delta_measured, the first value to reach
    it: "unit image", "family pair" (the image distance of the sampled
    pair of sample-family members Delta_members), "ratio envelope"
    (4 artanh of the largest block ratio, that of the pair Delta_members),
    "column diameter" (of the operator stage Delta_index) or "floor" (the
    1e-9 kept for rank-one chains).  Delta_index is the index n of the
    block or stage, None for the floor.
    """

    Delta_measured: float
    tau: int
    density_basis: str
    n_samples: int
    Delta_source: str
    Delta_index: int | None = None
    Delta_members: tuple | None = None

    @property
    def block_factor(self) -> float:
        return birkhoff_rate(self.Delta_measured)

    def rate_constants(self) -> RateConstants:
        return RateConstants.from_delta(self.Delta_measured, self.tau)


def _column_diameter(mats: np.ndarray) -> np.ndarray:
    """Exact projective diameter of M C+ for a strictly positive matrix M,
    for each matrix of a (..., rows, columns) stack of them: the extreme
    rays of C+ on a finite set are the coordinate directions."""
    logm = np.log(mats)
    best = np.zeros(mats.shape[:-2])
    d = mats.shape[-1]
    for a in range(d - 1):
        diff = logm[..., a, None] - logm[..., a + 1:]   # log(M[:,a]/M[:,b])
        np.maximum(best, (diff.max(axis=-2) - diff.min(axis=-2)).max(axis=-1), out=best)
    return best


def _chain_column_diameter(stages) -> np.ndarray:
    """The _column_diameter of each operator stage, in stage order, one
    stacked pass per matrix shape: spaces may change size along the chain."""
    by_shape = {}
    for r, st in enumerate(stages):
        by_shape.setdefault(st.dense.shape, []).append(r)
    out = np.empty(len(stages))
    for rs in by_shape.values():
        out[rs] = _column_diameter(np.stack([stages[r].dense for r in rs]))
    return out


def certify_cone_conditions(seq: StageSeq, p: ConeParams, *,
                            params: HypothesisParams | None = None) -> ConeCertificate:
    """Check the abstract cone conditions on samples and measure Delta.

    Verifies that the unit function lies in every cone, that operators map
    the cone into the next one (for map chains, into the strictly smaller
    parameter S(Q), which is the mechanism behind invariance), and bounds
    the projective diameter of tau-step images.  Operator chains take no
    ``params``, use tau = 1 and start Delta at the exact column diameter of
    M_n C+ at every index n (coordinate directions are the extreme rays of
    the positive cone on a finite set).  The sampling is fixed: at every
    8th index from the window bottom that starts a full tau-block, 12 pairs
    of members of the enumerated sample family (cones.family_rows), in
    order from the certificate's member range (cones.member_range): the
    c-th such index takes the 24 members from 24 c on, as
    f_0, g_0, f_1, g_1, ..., and the family's layout makes the pair
    (f_t, g_t) interior for even t and extremal for odd t.  Delta_measured
    additionally dominates 4 artanh(rho) for every observed tau-block
    contraction factor rho, so the certified tanh(Delta/4) rate is an upper
    envelope for everything seen; Delta_source records which of these set
    it, with its index and member ids.  A Delta whose tanh(Delta/4) rounds
    to 1 certifies no contraction: CertificationError "block-contraction".

    The 24 fields of an index all pass through the stages n .. n + tau - 1,
    so they are the rows of one array, pushed through each stage in one
    call; membership of the f_t images at S(Q) and both gap sets are
    row-wise, in blocks of at most 2^15 cells.  Each row has the bits of
    per-field apply_L, compose_L and theta_log_holder calls.

    An operator chain whose cone is C+ (no space has a Lambda(Q) pair)
    draws no samples: positive matrices keep C+, and by Birkhoff's bound no
    image pair or contraction ratio exceeds the column diameter.
    """
    has_map = seq.stage(seq.n_min).has_map
    if not has_map and any(st.dense is None for st in seq.stages):
        raise StructuralError("a chain without forward maps needs operator stages")
    if has_map == (params is None):
        raise StructuralError("map chains need measured hypothesis params for tau, "
                              "and chains without maps take none (tau = 1)")
    tau = params.tau if has_map else 1

    one = unit_field(seq.space(seq.n_min))
    if not in_log_holder_cone(one, p):
        raise CertificationError("unit-in-cone", "the constant function fell outside the cone")

    s_param = None
    if params is not None:
        s_param = params.rho ** params.beta * (params.H + p.Q)
        if s_param >= p.Q:
            raise CertificationError(
                "cone-invariance",
                f"S(Q) = {s_param} is not below Q = {p.Q}; raise Q above the threshold")

    target = ConeParams(Q=s_param, delta=p.delta, beta=p.beta) if s_param else p
    delta_m, source = 0.0, ("floor", None, None)

    def offer(value, *where):   # the first value to reach the maximum keeps it
        nonlocal delta_m, source
        if value > delta_m:
            delta_m, source = value, where

    if not has_map:   # exact diameter of M_n C+ at every index; tau = 1
        diameters = _chain_column_diameter(seq.stages)
        r = int(diameters.argmax())
        offer(float(diameters[r]), "column diameter", seq.n_min + r, None)
    max_ratio, ratio_at = 0.0, None
    n_sampled = 0
    check_indices = [n for n in seq.stage_indices if (n - seq.n_min) % 8 == 0
                     and n + tau <= seq.n_max]
    if not check_indices:
        raise StructuralError("window too short for one tau-block")
    positive = not has_map and all(len(pair_set(sp, p)) == 0
                                   for sp in {seq.space(n) for n in seq.space_indices})
    members = member_range("certificate", 24 * len(check_indices))
    for c, n in enumerate(check_indices):
        sp = seq.space(n)
        # unit-image ratio bound after tau steps
        img1 = np.ones(sp.n_points)
        for j in range(n, n + tau):
            img1 = _apply_values(seq.stage(j), img1)
        offer(math.log(float(img1.max()) / float(img1.min())), "unit image", n, None)
        if positive:
            continue
        # cone invariance on samples, one-step membership at S(Q): rows
        # 2t and 2t + 1 are the pair (f_t, g_t)
        ids = members[24 * c:24 * (c + 1)]
        fg = family_rows(sp, p, ids)
        img = _apply_values(seq.stage(n), fg)
        if not _inside(img[0::2], seq.space(n + 1), target).all():
            raise CertificationError(
                "cone-invariance", f"image of a sampled cone field left the cone at stage {n}")
        out = img
        for j in range(n + 1, n + tau):
            out = _apply_values(seq.stage(j), out)
        theta_out = _gaps(out[0::2], out[1::2], seq.space(n + tau), p)[2]
        theta_in = _gaps(fg[0::2], fg[1::2], sp, p)[2]
        for t, (t_out, t_in) in enumerate(zip(theta_out, theta_in)):
            pair_ids = (ids[2 * t], ids[2 * t + 1])
            offer(t_out, "family pair", n, pair_ids)
            if 0.0 < t_in < math.inf and t_out > 0.0 and t_out / t_in > max_ratio:
                max_ratio, ratio_at = t_out / t_in, (n, pair_ids)
        n_sampled += 12
    if max_ratio > 0.0:
        offer(4.0 * math.atanh(min(max_ratio, 1.0 - 1e-12)), "ratio envelope", *ratio_at)
    # rank-one chains collapse every image to a single ray; keep the
    # certified diameter positive so downstream rate constants stay finite
    offer(1e-9, "floor", None, None)
    if not birkhoff_rate(delta_m) < 1.0:   # the floor never sets such a Delta
        raise CertificationError("block-contraction", f"Delta_measured = {delta_m} (set by "
                                 f"{source[0]} at index {source[1]}) gives a block factor "
                                 "tanh(Delta/4) that rounds to 1")
    basis = "holder-shift" if has_map else "coordinate-span"
    return ConeCertificate(Delta_measured=delta_m, tau=tau,
                           density_basis=basis, n_samples=n_sampled,
                           Delta_source=source[0], Delta_index=source[1],
                           Delta_members=source[2])
