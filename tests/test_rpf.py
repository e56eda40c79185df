import dataclasses
import math
import re

import numpy as np
import pytest

import nsrpf as nr
from nsrpf.cones import DEFAULT_CONE, ConeParams
from nsrpf.errors import ConvergenceError, DomainError, StructuralError
from nsrpf.rpf import (_pullbacks, build_invariant_chain, headroom_steps, solve_backward,
                       solve_forward, verify_cone_contraction,
                       verify_eigen_relations, verify_exponential_rates,
                       verify_independence, verify_uniqueness)
from nsrpf.dictionaries import cone_dictionary, weak_dictionary
from nsrpf.hypotheses import RateConstants
from nsrpf.spaces import Field, MeasureVec, normalize, pair, unit_field
from nsrpf.systems import (CircleMapSpec, MatrixChainSpec, build_circle_chain,
                           build_matrix_chain, oracle_rpf_chain,
                           oracle_stationary_rpf)
from nsrpf.transfer import StageSeq, apply_L, apply_L_dual, compose_L


RNG = np.random.default_rng(17)
CONE2 = ConeParams(Q=1.0, delta=0.5, beta=1.0)


def small_matrix_pipeline(m, window=(-25, 25), tol=1e-11):
    seq = build_matrix_chain(MatrixChainSpec.stationary(np.asarray(m, float), window))
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=tol, tau=cert.tau,
                        block_factor=cert.block_factor, cone_params=CONE2)
    bwd = solve_backward(fwd)
    return seq, cert, fwd, bwd


def test_stationary_matrix_agrees_with_oracle():
    m = [[2.0, 1.0], [1.0, 1.0]]
    seq, cert, fwd, bwd = small_matrix_pipeline(m)
    lam, mw, hv = oracle_stationary_rpf(np.array(m))
    assert lam == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
    for n in fwd.reported_lam:
        assert fwd.lam[n] == pytest.approx(lam, abs=1e-10)
    n0 = fwd.reported_m[0]
    assert np.allclose(fwd.m[n0].weights, mw, atol=1e-10)
    for n in bwd.reported_h:
        assert np.allclose(bwd.h[n].values, hv, atol=1e-10)


def test_rank_one_matrix():
    seq, cert, fwd, bwd = small_matrix_pipeline([[1.0, 1.0], [1.0, 1.0]])
    assert fwd.lam[0] == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(fwd.m[0].weights, [0.5, 0.5], atol=1e-14)
    assert np.allclose(bwd.h[0].values, [1.0, 1.0], atol=1e-14)


def test_stationary_doubling_rpf_triple():
    seq = build_circle_chain(CircleMapSpec.make(
        N=256, window=(-30, 30), eps=0.0, eps_mode="constant",
        a=0.0, a_mode="constant"))
    meas = nr.certify_map_hypotheses(seq)
    cone = ConeParams(Q=nr.default_Q(meas), delta=meas.delta, beta=meas.beta)
    cert = nr.certify_cone_conditions(seq, cone, params=meas)
    fwd = solve_forward(seq, tol=1e-8, tau=cert.tau,
                        block_factor=cert.block_factor, cone_params=cone)
    bwd = solve_backward(fwd)
    for n in fwd.reported_lam:
        assert fwd.lam[n] == pytest.approx(2.0, abs=1e-12)
    n0 = fwd.reported_m[0]
    assert np.allclose(fwd.m[n0].weights, 1.0 / 256, atol=1e-14)
    for n in bwd.reported_h:
        assert np.allclose(bwd.h[n].values, 1.0, atol=1e-12)
    # constant potential shifts lambda by e^c
    seq2 = build_circle_chain(CircleMapSpec.make(
        N=256, window=(-30, 30), eps=0.0, eps_mode="constant",
        a=0.0, a_mode="constant", b=0.3, b_mode="constant"))
    fwd2 = solve_forward(seq2, tol=1e-8, tau=2, block_factor=cert.block_factor,
                         with_diagnostics=False)
    assert fwd2.lam[0] == pytest.approx(2.0 * math.exp(0.3), rel=1e-12)


def test_matrix_solver_matches_dense_oracle_chain():
    spec = MatrixChainSpec.random(d=3, window=(-30, 30), seed=77)
    seq = build_matrix_chain(spec)
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=cert.block_factor,
                        cone_params=CONE2, with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    lams, ms, hs = oracle_rpf_chain(spec)
    for n in fwd.reported_lam:
        assert fwd.lam[n] == pytest.approx(lams[n], rel=1e-13)
        assert np.allclose(fwd.m[n].weights, ms[n], atol=1e-13)
    for n in bwd.reported_h:
        assert np.allclose(bwd.h[n].values, hs[n], atol=1e-12)


def test_solutions_carry_their_chain_tolerance_and_cone():
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-30, 30), seed=6))
    cone = ConeParams(Q=2.0, delta=0.25, beta=1.0)
    fwd = solve_forward(seq, tol=1e-6, tau=1, block_factor=0.5, cone_params=cone,
                        with_diagnostics=False)
    assert fwd.cone is cone
    plain = solve_forward(seq, tol=1e-6, tau=1, block_factor=0.5)
    assert plain.cone is DEFAULT_CONE
    bwd = solve_backward(fwd)
    assert bwd.seq is fwd.seq
    assert (fwd.tol, fwd.headroom) == (1e-6, headroom_steps(1e-6, 0.5, 1))
    assert not {"tol", "tau", "block_factor", "headroom"} & set(vars(bwd))   # one owner


def test_eigen_relations_report():
    seq, cert, fwd, bwd = small_matrix_pipeline([[2.0, 1.0], [1.0, 1.0]])
    rep = verify_eigen_relations(fwd, bwd, 1e-10)
    assert rep.passed
    assert rep.worst("dual residual") < 1e-13
    assert rep.worst("|<h,m>-1|") < 1e-13
    assert rep.worst("h residual") < 1e-13


def test_adjoint_chain_telescoping():
    spec = MatrixChainSpec.random(d=4, window=(-20, 20), seed=5)
    seq = build_matrix_chain(spec)
    fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=0.5,
                        with_diagnostics=False)
    for n, k in ((-10, 3), (-5, 6), (0, 4)):
        img = compose_L(seq, n, k, unit_field(seq.space(n)))
        lam_prod = math.prod(fwd.lam[n + j] for j in range(k))
        assert pair(img, fwd.m[n + k]) == pytest.approx(lam_prod, rel=1e-8)


def test_independence_of_seeds():
    seq, cert, fwd, bwd = small_matrix_pipeline([[2.0, 1.0], [1.0, 1.0]])
    rep = verify_independence(fwd, bwd, tol=1e-11)
    assert rep.passed
    assert rep.worst("dlam") < 1e-10 and rep.worst("dm") < 1e-10 and rep.worst("dh") < 1e-10


def test_uniqueness_report():
    spec = MatrixChainSpec.random(d=3, window=(-30, 30), seed=9)
    seq = build_matrix_chain(spec)
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=cert.block_factor,
                        cone_params=CONE2)
    bwd = solve_backward(fwd)
    rep = verify_uniqueness(fwd, bwd, tol=1e-10)
    assert rep.passed
    assert rep.worst("xi gap") < 1e-12


def test_seed_verifiers_on_spaces_that_change_size():
    """Independence and uniqueness compare each index on its own space's
    dictionary; the halving chain's reported spaces shrink 256 -> 128 -> ..."""
    from conftest import build_halving_chain
    seq = build_halving_chain(levels=6, n_top=256)
    fwd = solve_forward(seq, tol=1e-2, tau=1, block_factor=0.1)
    assert [seq.space(n).n_points for n in fwd.reported_m] == [256, 128, 64]
    ind = verify_independence(fwd, None, tol=1e-2)
    assert ind.passed and 0.0 < ind.worst("dm") < ind.tol
    # the tails 3 and 5 steps below the top need two more levels to reach
    # a reported index
    seq = build_halving_chain(levels=8, n_top=256)
    fwd = solve_forward(seq, tol=1e-2, tau=1, block_factor=0.1)
    assert [seq.space(n).n_points for n in fwd.reported_m] == [256, 128, 64, 32, 16]
    uq = verify_uniqueness(fwd, None, tol=1e-2)
    assert uq.passed and 0.0 < uq.worst("dm") < uq.tol


def test_seed_verifiers_refuse_to_compare_nothing():
    """Gaps over no index would read 0.0 and pass: on the levels=6 halving
    chain (headroom 4) the tails 3 and 5 steps below the top leave no
    reported index below their headroom."""
    from conftest import build_halving_chain
    seq = build_halving_chain(levels=6, n_top=256)
    fwd = solve_forward(seq, tol=1e-2, tau=1, block_factor=0.1)
    with pytest.raises(ConvergenceError, match="no re-solve reaches a reported index"):
        verify_uniqueness(fwd, None, tol=1e-2)


def test_eigen_relations_refuse_to_check_nothing():
    """With headroom 4 on a 4-step window, only m_0 is reported and no
    lambda index: residuals over no index would read 0.0 and pass."""
    seq = build_matrix_chain(MatrixChainSpec.random(d=2, window=(0, 4), seed=1))
    fwd = solve_forward(seq, tol=1e-2, tau=1, block_factor=0.1)
    assert (fwd.headroom, fwd.reported_lam) == (4, [])
    with pytest.raises(ConvergenceError, match=r"window 0\.\.4 reports no eigenvalue index"):
        verify_eigen_relations(fwd, None, 1e-2)


def test_invariant_chain_needs_two_backward_indices():
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(0, 12), seed=1))
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=1e-2, tau=cert.tau, block_factor=cert.block_factor,
                        cone_params=CONE2)
    bwd = solve_backward(fwd)
    assert len(bwd.reported_h) == 1
    with pytest.raises(ConvergenceError, match="too short"):
        build_invariant_chain(fwd, bwd, tol=1e-2)


def test_invariant_chain_refuses_solutions_that_fail_the_eigenrelations():
    seq, cert, fwd, bwd = small_matrix_pipeline([[2.0, 1.0], [1.0, 1.0]])
    n = bwd.reported_h[1]
    h = {**bwd.h, n: Field(bwd.h[n].space, 1.01 * bwd.h[n].values)}
    with pytest.raises(DomainError, match="refusing to build the invariant chain"):
        build_invariant_chain(fwd, dataclasses.replace(bwd, h=h), tol=1e-9)


def test_cone_contraction_needs_one_tau_block():
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 2)))
    with pytest.raises(StructuralError, match="window too short for one tau-block"):
        verify_cone_contraction(seq, ConeParams(Q=4.0, delta=0.2), tau=3)


def test_cone_contraction_rejects_degenerate_sampling():
    # tau = 0 compares each pair with itself: the difference directions sit on
    # the cone boundary, tanh(inf/4) = 1 and no ratio could fail; the counts
    # must also be integers
    seq = build_matrix_chain(MatrixChainSpec.random(d=2, window=(-20, 20), seed=1))
    for kw in (dict(tau=0), dict(tau=1, n_samples=0), dict(tau=1, monotone_every=0),
               dict(tau=1.5), dict(tau=1, n_samples=2.5), dict(tau=1, monotone_every=2.0)):
        with pytest.raises(DomainError, match="integers of at least 1"):
            verify_cone_contraction(seq, CONE2, **kw)


def test_verifiers_refuse_a_backward_solution_of_another_chain():
    """A d = 2 forward solution with the backward solution of a d = 3 chain:
    every verifier that takes both refuses the pair."""
    def solved(d):
        seq = build_matrix_chain(MatrixChainSpec.random(d=d, window=(-30, 30), seed=d))
        cert = nr.certify_cone_conditions(seq, CONE2)
        fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=cert.block_factor,
                            cone_params=CONE2)
        return cert, fwd, solve_backward(fwd)

    cert, fwd, _ = solved(2)
    _, _, bwd = solved(3)
    for check in (lambda: verify_eigen_relations(fwd, bwd, 1e-10),
                  lambda: verify_independence(fwd, bwd, tol=1e-10),
                  lambda: verify_uniqueness(fwd, bwd, tol=1e-10),
                  lambda: verify_exponential_rates(fwd, bwd, cert.rate_constants()),
                  lambda: build_invariant_chain(fwd, bwd, tol=1e-10)):
        with pytest.raises(StructuralError, match="another chain"):
            check()


def test_second_eigenvector_contamination_decay():
    # contaminate the tail seed with the second left eigenvector: pairings
    # must relax to m at a rate no slower than the certified block factor
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (-40, 40)))
    cert = nr.certify_cone_conditions(seq, CONE2)
    evals, evecs = np.linalg.eig(m.T)
    order = np.argsort(-evals.real)
    v1 = np.abs(evecs[:, order[0]].real)
    v2 = evecs[:, order[1]].real
    rate_true = abs(evals[order[1]] / evals[order[0]])
    seed = v1 / v1.sum() + 0.2 * v2

    def family(level, space):
        return MeasureVec(space, np.maximum(seed, 1e-9))

    tail_seed = normalize(family(40, seq.space(40))).weights[None]
    nu = {n: rows[0] for n, _, rows in _pullbacks(seq, 40, tail_seed)}
    gaps = []
    for k in range(1, 25):
        n = 40 - k
        gaps.append(abs(nu[n][0] - v1[0] / v1.sum()))
    gaps = np.array(gaps)
    mask = gaps > 1e-13
    slope = np.polyfit(np.arange(1, 25)[mask], np.log(gaps[mask]), 1)[0]
    assert math.exp(slope) <= cert.block_factor + 1e-6
    assert math.exp(slope) == pytest.approx(rate_true, rel=0.05)


def test_rates_report_matrix():
    spec = MatrixChainSpec.random(d=3, window=(-35, 35), seed=4)
    seq = build_matrix_chain(spec)
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=cert.block_factor,
                        cone_params=CONE2)
    bwd = solve_backward(fwd)
    rep = verify_exponential_rates(fwd, bwd, cert.rate_constants())
    assert rep.passed and rep.violations == 0
    for n, (sl, sh) in rep.slopes.items():
        assert sl < 0.0 and sh < 0.0


def test_rates_with_ledger_constants(circle_pipeline):
    # the closed-form constants are far more conservative than the measured
    # ones (gamma near 1), so their envelopes must also hold, uninformatively
    cp = circle_pipeline
    rep_meas = verify_exponential_rates(cp.fwd, cp.bwd, cp.cert.rate_constants())
    rep_led = verify_exponential_rates(
        cp.fwd, cp.bwd, RateConstants.from_delta(cp.ledger.Delta, cp.ledger.params.tau))
    assert rep_meas.passed and rep_meas.violations == 0
    assert rep_led.passed and rep_led.violations == 0
    assert cp.ledger.gamma > cp.cert.rate_constants().gamma
    # the observed spectral-gap decay of the doubling family sits far below
    # any certified bound: every informative slope beats log(0.9) per step
    for n, (sl, sh) in rep_meas.slopes.items():
        assert sl <= math.log(0.9)
        assert sh <= math.log(0.9)
    # growth factors are positive at every window index
    assert all(v > 0.0 for v in cp.fwd.lam.values())


def test_convergence_error_on_tiny_window():
    seq = build_matrix_chain(MatrixChainSpec.random(d=2, window=(0, 4), seed=1))
    with pytest.raises(ConvergenceError):
        solve_forward(seq, tol=1e-10, tau=1, block_factor=0.9)


def test_stopping_rule_failure_names_side_and_index():
    # an understated block factor: the headroom of 4 steps (cap 8) is far too
    # short for the chain's real contraction to reach gaps below 5e-13
    seq = build_matrix_chain(MatrixChainSpec.random(d=2, window=(-40, 40), seed=3))
    kw = dict(tol=1e-12, tau=1, block_factor=1e-8)
    with pytest.raises(ConvergenceError, match=r"^forward index -40: .* within 8 ") as exc:
        solve_forward(seq, **kw)
    hist = exc.value.history
    assert hist["k"].tolist() == list(range(1, 9))
    assert hist["n"].tolist() == [-40] * 8
    fwd = solve_forward(seq, with_diagnostics=False, **kw)
    lo_h = seq.n_min + fwd.headroom
    with pytest.raises(ConvergenceError, match=rf"^backward index {lo_h}: .* within 4 "
                       r"iterations; the window edge, .* to 4 of the sweep's 8$") as exc:
        solve_backward(fwd)
    hist = exc.value.history
    assert hist["k"].tolist() == [1, 2, 3, 4]
    assert hist["n"].tolist() == [lo_h] * 4


def _reference_histories(fwd, k_cap):
    """The sweep histories from a plain per-index, per-step loop of the public
    apply_L_dual / apply_L, normalized at every step (no stacked kernel)."""
    seq, bottom, top = fwd.seq, fwd.seq.n_min, fwd.seq.n_max
    weak = {n: weak_dictionary(seq.space(n)) for n in seq.space_indices}
    coned = {n: cone_dictionary(seq.space(n), fwd.cone) for n in fwd.reported_m}
    cur = {n: MeasureVec.uniform(seq.space(n)).weights for n in seq.space_indices}
    cur = {n: w / w.sum() for n, w in cur.items()}
    prev = {n: weak[n].matrix @ cur[n] for n in seq.space_indices}
    last_r = {}
    f_rows = {n: [] for n in fwd.reported_m}
    for k in range(1, min(k_cap, top - bottom) + 1):
        new = {}
        for n in range(bottom, top - k + 1):
            raw = apply_L_dual(seq.stage(n), MeasureVec(seq.space(n + 1), cur[n + 1])).weights
            mass = float(raw.sum())
            new[n] = raw / mass
            r = math.log(mass)
            if n in f_rows:
                wp = weak[n].matrix @ new[n]
                succ = float(np.max(np.abs(wp - prev[n]) / weak[n].norms))
                if n in last_r:
                    succ = max(abs(r - last_r[n]), succ)
                else:
                    succ = math.inf
                em = float(np.max(np.abs(coned[n].matrix @ new[n] - coned[n].matrix @ fwd.m[n].weights)
                                  / coned[n].norms))
                f_rows[n].append((k, succ, abs(r - math.log(fwd.lam[n])), em))
                prev[n] = wp
            last_r[n] = r
        cur = new
    bwd = solve_backward(fwd, with_diagnostics=False)
    lo_h, hi_h = bottom + fwd.headroom, max(fwd.reported_m)
    cur = {}
    for n in seq.space_indices:
        g = unit_field(seq.space(n))
        cur[n] = g.values / pair(g, fwd.m[n])
    b_rows = {n: [] for n in range(lo_h, hi_h + 1)}
    for k in range(1, min(k_cap, top - bottom) + 1):
        new = {}
        for n in range(bottom + k, top + 1):
            it = apply_L(seq.stage(n - 1), Field(seq.space(n - 1), cur[n - 1])).values
            new[n] = it / fwd.lam[n - 1]
            if n in b_rows:
                b_rows[n].append((k, float(np.abs(new[n] - cur[n]).max()),
                                  float(np.abs(new[n] - bwd.h[n].values).max())))
        cur = new
    return f_rows, b_rows


def _assert_records(records, rows_by_index):
    """The records are the reference rows of every index, in index order,
    each prefixed by its index n."""
    cols = [np.array(c) for c in zip(*((n, *row) for n, rows in rows_by_index.items()
                                       for row in rows))]
    assert len(records.dtype.names) == len(cols)
    for name, c in zip(records.dtype.names, cols):
        assert np.array_equal(records[name], c)


def _check_sweeps_against_reference(fwd, bwd_or_error):
    k_cap = fwd.headroom + 2 * fwd.tau + 2
    f_rows, b_rows = _reference_histories(fwd, k_cap)
    _assert_records(fwd.records, f_rows)
    if isinstance(bwd_or_error, ConvergenceError):
        n = int(re.match(r"backward index (-?\d+):", str(bwd_or_error)).group(1))
        _assert_records(bwd_or_error.history, {n: b_rows[n]})
    else:
        _assert_records(bwd_or_error.records, b_rows)


def test_sweep_histories_equal_a_per_step_reference():
    """The stacked sweeps record, bit for bit, the histories of a per-index
    loop: on a d = 3 matrix chain (one matmul per index), on an N = 64
    circle chain (branch stages) and on the halving chain, whose spaces
    change size at every stage."""
    from conftest import PERTURBED, build_halving_chain
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-30, 30), seed=21))
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=1e-10, tau=cert.tau, block_factor=cert.block_factor,
                        cone_params=CONE2)
    _check_sweeps_against_reference(fwd, solve_backward(fwd))

    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-24, 24), **PERTURBED))
    params = nr.certify_map_hypotheses(seq)
    cone = ConeParams(Q=nr.default_Q(params), delta=params.delta, beta=params.beta)
    cert = nr.certify_cone_conditions(seq, cone, params=params)
    fwd = solve_forward(seq, tol=1e-6, tau=cert.tau, block_factor=cert.block_factor,
                        cone_params=cone)
    _check_sweeps_against_reference(fwd, solve_backward(fwd))

    halving = build_halving_chain(levels=8, n_top=256)
    seq = StageSeq(n_min=0, n_max=8, stages=halving.stages, two_sided=True)
    fwd = solve_forward(seq, tol=1e-2, tau=1, block_factor=0.1)
    with pytest.raises(ConvergenceError, match="^backward index") as exc:
        solve_backward(fwd)
    _check_sweeps_against_reference(fwd, exc.value)


def test_solver_records_layout():
    """Each solver's records run in ascending n, and within index n through
    k = 1..d, d the sweep depth the window leaves n; the rates rows carry the
    forward records' n, k, err_lambda and err_m columns as they are.
    Without diagnostics both record arrays are empty."""
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-30, 30), seed=21))
    cert = nr.certify_cone_conditions(seq, CONE2)
    kw = dict(tol=1e-10, tau=cert.tau, block_factor=cert.block_factor, cone_params=CONE2)
    fwd = solve_forward(seq, **kw)
    bwd = solve_backward(fwd)
    cap = fwd.headroom + 2 * fwd.tau + 2
    assert fwd.records.dtype.names == ("n", "k", "succ", "err_lambda", "err_m")
    assert bwd.records.dtype.names == ("n", "k", "succ", "err_h")
    for records, ns, depth in ((fwd.records, fwd.reported_m, lambda n: seq.n_max - n),
                               (bwd.records, bwd.reported_h, lambda n: n - seq.n_min)):
        d = [min(depth(n), cap) for n in ns]
        assert d[0] != d[-1]   # the window edge cuts some indices short
        assert records["n"].tolist() == [n for n, dn in zip(ns, d) for _ in range(dn)]
        assert records["k"].tolist() == [k for dn in d for k in range(1, dn + 1)]
    rates = verify_exponential_rates(fwd, bwd, cert.rate_constants())
    assert rates.rows.dtype.names[:4] == ("n", "k", "err_lambda", "err_m")
    for name in rates.rows.dtype.names[:4]:
        assert np.array_equal(rates.rows[name], fwd.records[name])
    fwd = solve_forward(seq, with_diagnostics=False, **kw)
    assert fwd.records.size == 0
    assert solve_backward(fwd, with_diagnostics=False).records.size == 0


def test_invariant_chain_on_spaces_that_change_size():
    """The dual transport <L~ f, mu_{n+1}> = <f, mu_n> takes f on X_n, not on
    X_{n+1}: the two-sided halving chain halves its space at every step."""
    from conftest import build_halving_chain
    halving = build_halving_chain(levels=8, n_top=256)
    seq = StageSeq(n_min=0, n_max=8, stages=halving.stages, two_sided=True)
    fwd = solve_forward(seq, tol=1e-2, tau=1, block_factor=0.01, with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    chain = build_invariant_chain(fwd, bwd, tol=1e-2)
    assert [seq.space(n).n_points for n in chain.window] == [32, 16]
    assert chain.passed
    assert max(chain.tilde_dual_gap.values()) < 1e-14


def test_invariant_chain_matrix():
    spec = MatrixChainSpec.random(d=3, window=(-30, 30), seed=15)
    seq = build_matrix_chain(spec)
    cert = nr.certify_cone_conditions(seq, CONE2)
    fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=cert.block_factor,
                        cone_params=CONE2, with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    chain = build_invariant_chain(fwd, bwd, tol=1e-10)
    assert chain.passed
    # mu is the componentwise product of the left and right chain data
    for n in chain.window:
        want = bwd.h[n].values * fwd.m[n].weights
        assert np.allclose(chain.mu(n).weights, want / want.sum(), rtol=1e-12)
    # mu_n exists one index past the window, L~_n only inside it
    chain.mu(chain.window[-1] + 1)
    for outside in (lambda: chain.mu(chain.window[-1] + 2),
                    lambda: chain.normalized_stage(chain.window[-1] + 1),
                    lambda: chain.mu(chain.window[0] - 1)):
        with pytest.raises(DomainError, match="outside the invariant chain's window"):
            outside()
    assert max(chain.tilde_one_err.values()) < 1e-13
    assert max(chain.push_gap.values()) < 1e-13
    assert max(chain.tilde_dual_gap.values()) < 1e-13


def test_invariant_chain_guard():
    spec = MatrixChainSpec.random(d=3, window=(-30, 30), seed=15)
    seq = build_matrix_chain(spec)
    fwd = solve_forward(seq, tol=1e-10, tau=1, block_factor=0.4,
                        with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    fwd.lam[0] *= 1.0 + 1e-6    # corrupt the chain: the guard must refuse
    with pytest.raises(DomainError):
        build_invariant_chain(fwd, bwd, tol=1e-10)


def test_invariant_chain_circle_pushforward():
    seq = build_circle_chain(CircleMapSpec.make(
        N=512, window=(-24, 24), eps=0.05, eps_mode="alternating",
        a=0.1, a_mode="sin"))
    meas = nr.certify_map_hypotheses(seq)
    cone = ConeParams(Q=nr.default_Q(meas), delta=meas.delta, beta=meas.beta)
    cert = nr.certify_cone_conditions(seq, cone, params=meas)
    fwd = solve_forward(seq, tol=1e-6, tau=cert.tau,
                        block_factor=cert.block_factor, cone_params=cone,
                        with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    # interpolation-limited at N = 512: gaps sit at the 1/N^2 scale
    chain = build_invariant_chain(fwd, bwd, tol=4e-4)
    assert chain.passed
    assert max(chain.tilde_one_err.values()) < 1e-12


def test_cone_contraction_report_matrix():
    spec = MatrixChainSpec.random(d=3, window=(-10, 10), seed=2)
    seq = build_matrix_chain(spec)
    cert = nr.certify_cone_conditions(seq, CONE2)
    rep = verify_cone_contraction(seq, CONE2, tau=1, n_samples=200,
                                  extra_delta=cert.Delta_measured)
    assert rep.passed
    assert rep.n_pairs > 150
    assert float(rep.ratios.max()) <= rep.block_factor + 1e-9
    assert rep.monotone_violations == 0


def test_cone_contraction_report_circle():
    seq = build_circle_chain(CircleMapSpec.make(
        N=256, window=(0, 6), eps=0.05, eps_mode="alternating",
        a=0.1, a_mode="sin"))
    meas = nr.certify_map_hypotheses(seq)
    cone = ConeParams(Q=nr.default_Q(meas), delta=meas.delta, beta=meas.beta)
    rep = verify_cone_contraction(seq, cone, tau=meas.tau, n_samples=60)
    assert rep.passed
    assert rep.n_pairs > 40


def test_headroom_keeps_two_blocks_at_a_loose_tolerance():
    # tol = 5 >= 1/block_factor^2: the block count log(1/tol)/log(2) is negative
    assert headroom_steps(5.0, 0.5, 3) == 6
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-20, 20), seed=8))
    fwd = solve_forward(seq, tol=5.0, tau=1, block_factor=0.5, with_diagnostics=False)
    assert max(fwd.reported_m) == seq.n_max - 2
    bwd = solve_backward(fwd, with_diagnostics=False)
    assert verify_uniqueness(fwd, bwd, tol=5.0).passed


def test_headroom_steps():
    assert headroom_steps(1e-10, 0.5, 1) == math.ceil(10 * math.log(10) / math.log(2)) + 2
    assert headroom_steps(1e-6, 0.25, 2) == 2 * (math.ceil(6 * math.log(10) / math.log(4)) + 2)
    with pytest.raises(DomainError):
        headroom_steps(1e-6, 1.0, 1)


@pytest.mark.parametrize("tol, tau", [(1e-6, 0), (0.0, 1), (-1.0, 1), (1e-6, -1),
                                      (1e-6, 1.5), (math.inf, 1), (1e-6, 2.0)])
def test_solver_rejects_a_nonpositive_tolerance_or_tau(tol, tau):
    with pytest.raises(DomainError, match="positive tolerance and tau >= 1"):
        headroom_steps(tol, 0.5, tau)
    seq = build_matrix_chain(MatrixChainSpec.random(d=2, window=(-20, 20), seed=1))
    with pytest.raises(DomainError, match="positive tolerance and tau >= 1"):
        solve_forward(seq, tol=tol, tau=tau, block_factor=0.5)

