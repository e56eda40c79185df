"""The stacked verifiers against per-index reference loops.

Each reference below is the plain loop the verifiers ran before they were
stacked: one public kernel call, one Field or MeasureVec and one scalar
comparison per index or sampled pair.  The stacked verifiers must report
exactly the same numbers (floats compared with ==), on chains with one
matrix shape, with branch tables, and with spaces that change size.
"""
import math
import random
import tracemalloc

import numpy as np
import pytest

import nsrpf as nr
from nsrpf import cones
from nsrpf.cones import (DEFAULT_CONE, ConeParams, birkhoff_rate, family_rows,
                         hilbert_gap_log_holder, member_range, sample_log_holder_field,
                         theta_log_holder)
from nsrpf.dictionaries import pairing_vector, weak_dictionary
from nsrpf.errors import ConvergenceError, StructuralError
from nsrpf.hypotheses import RateConstants
from nsrpf.rpf import (ContractionReport, EigenReport, RatesReport, UniquenessReport,
                       IndependenceReport, build_invariant_chain, solve_backward, solve_forward,
                       verify_cone_contraction, verify_eigen_relations,
                       verify_exponential_rates, verify_independence, verify_uniqueness)
from nsrpf.spaces import Field, MeasureVec, PointSpace, normalize, pair, unit_field
from nsrpf.systems import (CircleMapSpec, MatrixChainSpec, build_circle_chain,
                           build_matrix_chain)
from nsrpf.transfer import StageSeq, apply_L, apply_L_dual, compose_L, normalize_stage

from conftest import PERTURBED, build_halving_chain, snapped_stage

CONE2 = ConeParams(Q=1.0, delta=0.5, beta=1.0)


# ---------------------------------------------------------------------------
# per-index references
# ---------------------------------------------------------------------------

def ref_eigen(fwd, bwd, tol):
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


def _ref_frozen_forward(seq, tail, sigma_family):
    nu = {tail: normalize(sigma_family(tail, seq.space(tail)))}
    lam = {}
    for n in range(tail - 1, seq.n_min - 1, -1):
        raw = apply_L_dual(seq.stage(n), nu[n + 1]).weights
        mass = float(raw.sum())
        lam[n] = mass
        nu[n] = MeasureVec(seq.space(n), raw / mass)
    return lam, nu


def _ref_frozen_backward(fwd, seed):
    seq, bottom = fwd.seq, fwd.seq.n_min
    g0 = pair(seed, fwd.m[bottom])
    h = {bottom: Field(seq.space(bottom), seed.values / g0)}
    for n in range(bottom, seq.n_max):
        h[n + 1] = Field(seq.space(n + 1), apply_L(seq.stage(n), h[n]).values / fwd.lam[n])
    return h


# the verifiers' seed families: one member k of the sample family per seed,
# drawn on its own
def _uniform_sigma(level, space):
    return MeasureVec.uniform(space)


def _member(space, p, k):
    return family_rows(space, p, [k])[0]


def _member_sigma(k, p):
    def fam(level, space):
        return MeasureVec(space, _member(space, p, k))
    return fam


def _member_seed(k, p):
    def fam(level, space):
        return Field(space, _member(space, p, k))
    return fam


def _ref_reseed_gaps(fwd, bwd, runs, seed_families):
    """The largest gap at each compared index: {n: dlam}, {n: dm}, {n: dh}."""
    seq = fwd.seq
    dlam, dm, dh = {}, {}, {}
    weak = {n: weak_dictionary(seq.space(n)) for n in fwd.reported_m}
    compared = 0
    for tail, fam in runs:
        lam2, nu2 = _ref_frozen_forward(seq, tail, fam)
        hi = tail - fwd.headroom
        for n in (m for m in fwd.reported_lam if m < hi):
            dlam[n] = max(dlam.get(n, 0.0), abs(math.log(lam2[n]) - math.log(fwd.lam[n])))
        for n in (m for m in fwd.reported_m if m <= hi):
            d = weak[n]
            gap = np.abs(pairing_vector(d, fwd.m[n].weights)
                         - pairing_vector(d, nu2[n].weights)) / d.norms
            dm[n] = max(dm.get(n, 0.0), float(np.max(gap)))
            compared += 1
    if not compared:
        raise ConvergenceError("no re-solve reaches a reported index")
    if bwd is not None:
        bottom = seq.n_min
        for fam in seed_families:
            h2 = _ref_frozen_backward(fwd, fam(bottom, seq.space(bottom)))
            for n in bwd.reported_h:
                dh[n] = max(dh.get(n, 0.0), float(np.abs(h2[n].values - bwd.h[n].values).max()))
    return dlam, dm, dh


def ref_independence(fwd, bwd, tol):
    thr = 10.0 * tol
    gaps = dict(zip(("dlam", "dm", "dh"), _ref_reseed_gaps(
        fwd, bwd, [(fwd.seq.n_max, _member_sigma(k, fwd.cone))
                   for k in member_range("independence tails", 2)],
        [_member_seed(k, fwd.cone) for k in member_range("independence seeds", 2)])))
    dlam, dm, dh = (max(g.values(), default=0.0) for g in gaps.values())
    return IndependenceReport(max_dlam=dlam, max_dm=dm, max_dh=dh, threshold=thr,
                              passed=dlam < thr and dm < thr and dh < thr, gaps=gaps)


def ref_uniqueness(fwd, bwd, tol):
    seq = fwd.seq
    thr = 10.0 * tol
    dlam, dm, dh = (max(g.values(), default=0.0) for g in _ref_reseed_gaps(
        fwd, bwd, [(seq.n_max - shift, _uniform_sigma) for shift in (3, 5)],
        [_member_seed(k, fwd.cone) for k in member_range("uniqueness seeds", 4)]))
    xi = 0.0
    if bwd is not None:
        scales = member_range("uniqueness scales", len(bwd.reported_h))
        for n, k in zip(bwd.reported_h, scales):
            c = float(_member(PointSpace.simplex(1), DEFAULT_CONE, k)[0])
            g = bwd.h[n] * c
            g = g * (1.0 / pair(g, fwd.m[n]))
            xi_n = pair(apply_L(seq.stage(n), g), fwd.m[n + 1])
            xi = max(xi, abs(xi_n - fwd.lam[n]) / fwd.lam[n])
    return UniquenessReport(max_dlam_shift=dlam, max_dm_shift=dm, max_xi_gap=xi,
                            max_dh_seed=dh, threshold=thr,
                            passed=dlam < thr and dm < thr and xi < thr and dh < thr)


def _ref_fit_slope(ks, errs, k_lo):
    if errs.size == 0:
        return -math.inf
    floor = max(float(errs.min()) * 10.0, 1e-13)
    below = np.nonzero(errs <= floor)[0]
    stop = int(below[0]) if below.size else errs.size - 1
    ks, errs = ks[:stop + 1], errs[:stop + 1]
    mask = (ks >= k_lo) & (errs > 1e-13)
    if mask.sum() < 3:
        return -math.inf
    return float(np.polyfit(ks[mask].astype(np.float64), np.log(errs[mask]), 1)[0])


def _by_index(records):
    """{n: the records of index n}, in index order."""
    return {int(n): records[records["n"] == n] for n in np.unique(records["n"])}


def ref_rates(fwd, bwd, rc, slack=1e-9):
    rows = []
    viol = 0
    slopes = {}
    bound = math.log(rc.gamma) + 1.0
    backward = _by_index(bwd.records) if bwd is not None else {}
    for n, h in _by_index(fwd.records).items():
        env = rc.C1 * rc.gamma ** h["k"]
        viol += int(np.sum((h["err_lambda"] > env + slack) & (h["k"] >= rc.tau + 1)))
        viol += int(np.sum((h["err_m"] > env + slack) & (h["k"] >= rc.tau)))
        hb = backward.get(n)
        errh = {int(k): e for k, e in zip(hb["k"], hb["err_h"])} if hb is not None else {}
        for k, el, em in zip(h["k"], h["err_lambda"], h["err_m"]):
            rows.append((n, int(k), el, em, errh.get(int(k), math.nan)))
        sl = _ref_fit_slope(h["k"], h["err_lambda"], rc.tau + 1)
        sh = -math.inf
        if hb is not None:
            envh = rc.C3 * rc.gamma ** hb["k"]
            viol += int(np.sum((hb["err_h"] > envh + slack) & (hb["k"] >= rc.tau)))
            sh = _ref_fit_slope(hb["k"], hb["err_h"], rc.tau)
        slopes[n] = (sl, sh)
    slope_ok = all(s[0] < 0.0 and s[0] <= bound and s[1] < 0.0 and s[1] <= bound
                   for s in slopes.values())
    return RatesReport(rows=rows, violations=viol, slopes=slopes,
                       passed=(viol == 0 and slope_ok))


def ref_cone_contraction(seq, p, *, tau, n_samples=100, rng=None, seed=0, extra_delta=0.0,
                         monotone_every=1):
    members = None if rng is not None else member_range("contraction", 2 * n_samples, seed)
    slack = 1e-9
    indices = [n for n in seq.stage_indices if n + tau <= seq.n_max]
    delta_m = extra_delta
    for n in indices:
        img1 = compose_L(seq, n, tau, unit_field(seq.space(n)))
        delta_m = max(delta_m, math.log(img1.sup() / img1.inf()))
    ratios = []
    mono_viol = 0
    for s in range(n_samples):
        n = indices[s % len(indices)]
        sp = seq.space(n)
        if members is None:
            f = sample_log_holder_field(sp, p, rng)
            g = sample_log_holder_field(sp, p, rng)
        else:
            f, g = (Field(sp, _member(sp, p, members[2 * s + j])) for j in (0, 1))
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
                             passed=passed, members=members)


def ref_invariant_chain(fwd, bwd):
    """(mu, push_gap, tilde_one_err, tilde_dual_gap): a Field, a pair and an
    apply_L per dictionary row."""
    seq = fwd.seq
    window = bwd.reported_h[:-1]
    mu = {n: normalize(MeasureVec(seq.space(n), bwd.h[n].values * fwd.m[n].weights))
          for n in window + [window[-1] + 1]}
    push_gap, one_err, dual_gap = {}, {}, {}
    for n in window:
        st = seq.stage(n)
        nst = normalize_stage(st, bwd.h[n], bwd.h[n + 1], fwd.lam[n])
        sp, dom = seq.space(n + 1), seq.space(n)
        d, d_dom = weak_dictionary(sp), weak_dictionary(dom)
        tilde_one = apply_L(nst, unit_field(dom))
        one_err[n] = float(np.abs(tilde_one.values - 1.0).max())
        gaps = []
        for i, (row, norm) in enumerate(zip(d.matrix, d.norms.tolist())):
            f = Field(sp, row)
            rhs = pair(f, mu[n + 1])
            if st.has_map:
                if st.map_fn is not None:
                    fT = d.fns[i](st.map_fn(dom.positions) % 1.0)
                else:
                    fT = row[st.forward_index]
                lhs = float(fT @ mu[n].weights)
            else:
                lhs = float(row @ (mu[n + 1].weights * tilde_one.values))
            gaps.append(abs(lhs - rhs) / norm)
        push_gap[n] = max(gaps)
        dgaps = []
        for row, norm in zip(d_dom.matrix, d_dom.norms.tolist()):
            f = Field(dom, row)
            dgaps.append(abs(pair(apply_L(nst, f), mu[n + 1]) - pair(f, mu[n])) / norm)
        dual_gap[n] = max(dgaps)
    return mu, push_gap, one_err, dual_gap


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

class Case:
    """A solved chain with everything its verifiers take."""

    def __init__(self, seq, cone, *, tol, tau=None, block_factor=None, two_sided=True):
        self.seq, self.cone, self.tol = seq, cone, tol
        if block_factor is None:
            params = nr.certify_map_hypotheses(seq) if seq.stage(seq.n_min).has_map else None
            cert = nr.certify_cone_conditions(seq, cone, params=params)
            tau, block_factor = cert.tau, cert.block_factor
            self.extra_delta, self.rc = cert.Delta_measured, cert.rate_constants()
        else:
            self.extra_delta = 0.0
            self.rc = RateConstants.from_delta(4.0 * math.atanh(block_factor), tau)
        self.tau = tau
        self.fwd = solve_forward(seq, tol=tol, tau=tau, block_factor=block_factor,
                                 cone_params=cone)
        self.bwd = solve_backward(self.fwd) if two_sided else None


def _matrix(d, seed, window=(-40, 40)):
    return Case(build_matrix_chain(MatrixChainSpec.random(d=d, window=window, seed=seed)),
                CONE2, tol=1e-10)


def _circle():
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-24, 24), **PERTURBED))
    params = nr.certify_map_hypotheses(seq)
    cone = ConeParams(Q=nr.default_Q(params), delta=params.delta, beta=params.beta)
    return Case(seq, cone, tol=1e-6)


def _halving():
    seq = build_halving_chain(levels=8, n_top=256)
    return Case(seq, ConeParams(Q=2.0, delta=0.05), tol=1e-2, tau=1, block_factor=0.1,
                two_sided=False)


def _matrix_suite_chain0():
    """Chain 0 of the matrix_suite benchmark workload at seed 1."""
    seed = random.Random(1).randrange(2 ** 31)
    return Case(build_matrix_chain(MatrixChainSpec.random(d=2, window=(-50, 50),
                                                          seed=seed)),
                CONE2, tol=1e-10)


CASES = {"matrix_d1": lambda: _matrix(1, 5), "matrix_d3": lambda: _matrix(3, 21),
         "circle_N64": _circle, "halving": _halving, "matrix_suite_0": _matrix_suite_chain0}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


def _same(got, want):
    """Equal with == on every float, nan matching nan; arrays element by element."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and np.array_equal(got, want, equal_nan=True)
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    if isinstance(want, dict):
        return list(got) == list(want) and all(_same(got[k], w) for k, w in want.items())
    if isinstance(want, float) and math.isnan(want):
        return isinstance(got, float) and math.isnan(got)
    return got == want


def _assert_same_report(got, want, skip=()):
    assert type(got) is type(want)
    for name in vars(want):
        if name not in skip:
            assert _same(getattr(got, name), getattr(want, name)), name


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

# row-block budgets: the shipped one, one cell (every block one row) and a
# ragged cut; the eigen and uniqueness verifiers stack no rows of their own,
# so their reports must not change with the budget either
CELLS = [None, 1, 300]


@pytest.fixture(params=CELLS)
def cells(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(cones, "_BLOCK_CELLS", request.param)
    return request.param


def test_eigen_relations_equal_the_per_index_loop(case, cells):
    _assert_same_report(verify_eigen_relations(case.fwd, case.bwd, case.tol),
                        ref_eigen(case.fwd, case.bwd, case.tol))


def test_independence_equals_the_per_index_loop(case):
    _assert_same_report(verify_independence(case.fwd, case.bwd, tol=case.tol),
                        ref_independence(case.fwd, case.bwd, case.tol))


def test_uniqueness_equals_the_per_index_loop(case, cells):
    try:
        want = ref_uniqueness(case.fwd, case.bwd, case.tol)
    except ConvergenceError:
        with pytest.raises(ConvergenceError, match="no re-solve reaches"):
            verify_uniqueness(case.fwd, case.bwd, tol=case.tol)
        return
    _assert_same_report(verify_uniqueness(case.fwd, case.bwd, tol=case.tol), want)


def test_rates_equal_the_per_index_loop(case):
    """Rows and violations are exact; the closed-form slopes agree with
    np.polyfit to 1e-12 and give the same verdict."""
    got = verify_exponential_rates(case.fwd, case.bwd, case.rc)
    want = ref_rates(case.fwd, case.bwd, case.rc)
    _assert_same_report(got, want, skip=("slopes",))
    assert list(got.slopes) == list(want.slopes)
    for n, pair_want in want.slopes.items():
        for s, w in zip(got.slopes[n], pair_want):
            assert s == w if math.isinf(w) else s == pytest.approx(w, rel=0, abs=1e-12)
    # a sharper envelope fails some records: the counts must still agree
    tight = RateConstants(tau=case.rc.tau, Delta=case.rc.Delta, gamma=case.rc.gamma ** 3,
                          C1=case.rc.C1 * 1e-3, C3=case.rc.C3 * 1e-3)
    got, want = (verify_exponential_rates(case.fwd, case.bwd, tight),
                 ref_rates(case.fwd, case.bwd, tight))
    assert (got.violations, got.passed) == (want.violations, want.passed)


@pytest.mark.parametrize("n_samples, monotone_every", [(100, 1), (57, 4)])
def test_cone_contraction_equals_the_per_sample_loop(case, n_samples, monotone_every, cells):
    kw = dict(tau=case.tau, n_samples=n_samples, extra_delta=case.extra_delta,
              monotone_every=monotone_every)
    got = verify_cone_contraction(case.seq, case.cone, rng=np.random.default_rng(123), **kw)
    want = ref_cone_contraction(case.seq, case.cone, rng=np.random.default_rng(123), **kw)
    _assert_same_report(got, want)
    if case.seq.space(case.seq.n_min).n_points > 1:
        assert want.n_pairs > 0


@pytest.mark.parametrize("seed", [0, 123])
def test_cone_contraction_from_the_family_equals_the_per_sample_loop(case, seed, cells):
    """Without a generator the pairs are members of the sample family's
    contraction range at ``seed``, drawn in blocks; the reference draws
    each member on its own."""
    kw = dict(tau=case.tau, n_samples=57, extra_delta=case.extra_delta, monotone_every=4)
    got = verify_cone_contraction(case.seq, case.cone, seed=seed, **kw)
    want = ref_cone_contraction(case.seq, case.cone, seed=seed, **kw)
    _assert_same_report(got, want)
    assert got.members == member_range("contraction", 114, seed)


def _assert_same_invariant_chain(fwd, bwd, tol):
    got = build_invariant_chain(fwd, bwd, tol=tol)
    mu, push_gap, one_err, dual_gap = ref_invariant_chain(fwd, bwd)
    assert got.window + [got.window[-1] + 1] == list(mu)
    assert all(np.array_equal(got.mu(n).weights, w.weights) for n, w in mu.items())
    assert _same(got.push_gap, push_gap)
    assert _same(got.tilde_one_err, one_err)
    assert _same(got.tilde_dual_gap, dual_gap)


def test_invariant_chain_equals_the_per_row_loop(case):
    if case.bwd is None:
        pytest.skip("the invariant chain needs a two-sided chain")
    _assert_same_invariant_chain(case.fwd, case.bwd, case.tol)


def test_invariant_chain_on_snapped_images_equals_the_per_row_loop():
    """Forward-index-form stages on a circle grid push through the snapped
    image indices, the branch that finite map chains take."""
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-24, 24), **PERTURBED))
    snapped = StageSeq(n_min=seq.n_min, n_max=seq.n_max, declared=seq.declared,
                       stages=tuple(snapped_stage(st) for st in seq.stages))
    assert all(st.has_map and st.map_fn is None for st in snapped.stages)
    fwd = solve_forward(snapped, tol=1e-6, tau=2, block_factor=0.2, with_diagnostics=False)
    _assert_same_invariant_chain(fwd, solve_backward(fwd, with_diagnostics=False), 1e-6)


def test_rates_with_no_histories():
    """Solutions solved without diagnostics have nothing to replay: the rates
    verifier refuses them rather than pass over zero records."""
    case = _matrix(2, 3)
    fwd = solve_forward(case.seq, tol=1e-10, tau=case.tau,
                        block_factor=case.fwd.block_factor, with_diagnostics=False)
    cases = [(fwd, None), (fwd, solve_backward(fwd, with_diagnostics=False)),
             (case.fwd, solve_backward(case.fwd, with_diagnostics=False))]
    for f, b in cases:
        with pytest.raises(StructuralError, match="with_diagnostics"):
            verify_exponential_rates(f, b, case.rc)


def _traced_peak(fn) -> int:
    fn()   # warm the per-space caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifier_memory_is_set_by_the_block_not_the_window():
    """On N = 1024 circle chains whose reported indices fill several blocks,
    the traced peaks of the eigen and uniqueness verifiers stay within a few
    blocks of cells and do not grow with the window.  With one block per
    window, the eigen verifier peaked at 4.6 and 16 MB on these windows."""
    block = cones._BLOCK_CELLS * 8
    peaks = []
    for half in (60, 160):
        seq = build_circle_chain(CircleMapSpec.make(N=1024, window=(-half, half), **PERTURBED))
        fwd = solve_forward(seq, tol=1e-6, tau=2, block_factor=0.2, with_diagnostics=False)
        bwd = solve_backward(fwd, with_diagnostics=False)
        assert len(bwd.reported_h) * 1024 > 2 * cones._BLOCK_CELLS
        peaks.append((_traced_peak(lambda: verify_eigen_relations(fwd, bwd, 1e-6)),
                      _traced_peak(lambda: verify_uniqueness(fwd, bwd, tol=1e-6))))
    (eig_short, uq_short), (eig_long, uq_long) = peaks
    assert max(eig_short, uq_short, eig_long, uq_long) < 12 * block
    assert eig_long < eig_short + block and uq_long < uq_short + block


def test_invariant_chain_memory_does_not_grow_with_the_window():
    """On a random-eps circle chain every stage has a lift of its own, so a
    check that kept mu_n, L~_n or a lift's image rows past their last use
    would grow with the window.  Doubling the chain's window may add only
    its per-index gaps, far below one block."""
    peaks, windows = [], []
    for half in (40, 60):
        spec = CircleMapSpec.make(N=1024, window=(-half, half),
                                  **{**PERTURBED, "eps_mode": "random"})
        seq = build_circle_chain(spec)
        fwd = solve_forward(seq, tol=1e-6, tau=2, block_factor=0.2, with_diagnostics=False)
        bwd = solve_backward(fwd, with_diagnostics=False)
        eig = verify_eigen_relations(fwd, bwd, 1e-3)
        peaks.append(_traced_peak(lambda: build_invariant_chain(fwd, bwd, tol=1e-3, eigen=eig)))
        windows.append(len(bwd.reported_h) - 1)
    assert windows[1] >= 2 * windows[0]
    assert peaks[1] < peaks[0] + cones._BLOCK_CELLS * 8
