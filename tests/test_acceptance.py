"""Acceptance suite: every quantitative exit criterion at its pinned
tolerance, one pass/fail line per criterion (run with -s to see them)."""
import math
import time

import numpy as np
import pytest

import nsrpf as nr
from nsrpf.cones import (ConeParams, birkhoff_rate, in_log_holder_cone,
                         sample_log_holder_field, theta_positive)
from nsrpf.errors import DomainError
from nsrpf.spaces import Field, MeasureVec, PointSpace, pair, unit_field
from nsrpf.systems import MatrixChainSpec, build_matrix_chain, oracle_stationary_rpf
from nsrpf.transfer import apply_L, compose_L

RNG = np.random.default_rng(20250811)


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_c01_stationary_reduction():
    t0 = time.perf_counter()
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (-30, 30)))
    cone = ConeParams(Q=1.0, delta=0.5, beta=1.0)
    cert = nr.certify_cone_conditions(seq, cone)
    fwd = nr.solve_forward(seq, tol=1e-10, tau=1, block_factor=cert.block_factor,
                           cone_params=cone)
    bwd = nr.solve_backward(fwd)
    lam_o, m_o, h_o = oracle_stationary_rpf(m)
    golden = (3.0 + math.sqrt(5.0)) / 2.0
    assert lam_o == pytest.approx(golden, abs=1e-12)
    dl = max(abs(fwd.lam[n] - lam_o) for n in fwd.reported_lam)
    dm = max(float(np.abs(fwd.m[n].weights - m_o).max()) for n in fwd.reported_m)
    dh = max(float(np.abs(bwd.h[n].values - h_o).max()) for n in bwd.reported_h)
    elapsed = time.perf_counter() - t0
    assert dl < 1e-10 and dm < 1e-10 and dh < 1e-10
    assert elapsed < 1.0
    _report(1, f"lambda/m/h vs Perron oracle within {max(dl, dm, dh):.2e} "
               f"(budget 1e-10), {elapsed:.2f}s (budget 1s)")


def test_c02_nonstationary_oracle_equivalence(random_chain_suite):
    runs, elapsed = random_chain_suite
    assert len(runs) == 20
    worst = 0.0
    for run in runs:
        lams, ms, hs = run.oracle
        for n in run.fwd.reported_lam:
            worst = max(worst, abs(run.fwd.lam[n] - lams[n]) / lams[n])
        for n in run.fwd.reported_m:
            worst = max(worst, float(np.abs(run.fwd.m[n].weights - ms[n]).max()))
        for n in run.bwd.reported_h:
            worst = max(worst, float(np.abs(run.bwd.h[n].values - hs[n]).max()))
    assert worst < 1e-9
    assert elapsed < 10.0
    _report(2, f"20 random chains match dense products within {worst:.2e} "
               f"(budget 1e-9) at every interior index, {elapsed:.2f}s (budget 10s)")


def test_c03_seed_independence(matrix_pipeline, circle_pipeline):
    _, seq, cone, cert, fwd, bwd = matrix_pipeline
    rep_m = nr.verify_independence(fwd, bwd, tol=1e-10)
    assert rep_m.passed, (rep_m.worst("dlam"), rep_m.worst("dm"))
    cp = circle_pipeline
    rep_c = nr.verify_independence(cp.fwd, cp.bwd, tol=cp.tol)
    assert rep_c.passed, (rep_c.worst("dlam"), rep_c.worst("dm"))
    _report(3, "tail-seed independence: matrix gaps "
               f"{max(rep_m.worst('dlam'), rep_m.worst('dm')):.2e} < {rep_m.tol:.0e}, "
               f"grid gaps {max(rep_c.worst('dlam'), rep_c.worst('dm')):.2e} "
               f"< {rep_c.tol:.0e}")


def test_c04_eigen_relations(matrix_pipeline, circle_pipeline):
    _, seq, cone, cert, fwd, bwd = matrix_pipeline
    rep_m = nr.verify_eigen_relations(fwd, bwd, 1e-10)
    assert rep_m.passed, list(map(rep_m.worst, rep_m.criteria))
    cp = circle_pipeline
    assert cp.seq.space(0).n_points == 1024
    rep_c = nr.verify_eigen_relations(cp.fwd, cp.bwd, 1e-6)
    assert rep_c.passed, list(map(rep_c.worst, rep_c.criteria))
    worst_m = max(map(rep_m.worst, rep_m.criteria))
    worst_c = max(map(rep_c.worst, rep_c.criteria))
    _report(4, f"eigenrelation residuals: matrix {worst_m:.2e} (budget 1e-10), "
               f"grid N=1024 {worst_c:.2e} (budget 1e-6)")


def test_c05_exponential_rates(matrix_pipeline, circle_pipeline,
                               random_chain_suite):
    _, seq, cone, cert, fwd, bwd = matrix_pipeline
    total_records = 0
    reports = []
    rep = nr.verify_exponential_rates(fwd, bwd, cert.rate_constants(), slack=1e-9)
    reports.append(rep)
    cp = circle_pipeline
    reports.append(nr.verify_exponential_rates(cp.fwd, cp.bwd,
                                               cp.cert.rate_constants(),
                                               slack=1e-9))
    runs, _ = random_chain_suite
    for run in runs:
        reports.append(nr.verify_exponential_rates(run.fwd, run.bwd,
                                                   run.cert.rate_constants(),
                                                   slack=1e-9))
    for rep in reports:
        assert rep.violations == 0
        for n, (sl, sh) in rep.slopes.items():
            assert sl < 0.0 and sh < 0.0, (n, sl, sh)
        assert rep.passed
        total_records += len(rep.rows)
    _report(5, f"0 envelope violations over {total_records} recorded errors "
               f"across 22 solved systems; all fitted slopes negative")


def test_c06_birkhoff_contraction(random_chain_suite, circle_small):
    runs, _ = random_chain_suite
    run = runs[0]
    rep_m = nr.verify_cone_contraction(run.seq, run.cone, tau=1, n_samples=1000,
                                       rng=np.random.default_rng(1),
                                       extra_delta=run.cert.Delta_measured,
                                       monotone_every=25)
    assert rep_m.n_pairs >= 950
    assert rep_m.passed
    assert float(rep_m.ratios.max()) <= birkhoff_rate(rep_m.Delta_measured) + 1e-9

    seq, params, cone = circle_small
    rep_c = nr.verify_cone_contraction(seq, cone, tau=params.tau, n_samples=1000,
                                       rng=np.random.default_rng(2),
                                       monotone_every=25)
    assert rep_c.n_pairs >= 950
    assert rep_c.passed
    assert float(rep_c.ratios.max()) <= birkhoff_rate(rep_c.Delta_measured) + 1e-9
    _report(6, f"tau-block ratios: matrix max {float(rep_m.ratios.max()):.4f} "
               f"<= tanh(Delta/4) = {rep_m.block_factor:.4f}; grid max "
               f"{float(rep_c.ratios.max()):.4f} <= {rep_c.block_factor:.4f} "
               f"(1000 pairs each, slack 1e-9)")


def test_c07_cone_invariance(circle_small):
    seq, params, cone = circle_small
    s_q = params.rho ** params.beta * (params.H + cone.Q)
    target = ConeParams(Q=s_q, delta=cone.delta, beta=cone.beta)
    ledger = nr.derive_constants(params, cone.Q)
    rng = np.random.default_rng(3)
    worst_ratio = 0.0
    for i in range(1000):
        n = i % 4
        f = sample_log_holder_field(seq.space(n), cone, rng)
        assert in_log_holder_cone(apply_L(seq.stage(n), f), target)
        img = compose_L(seq, n, params.tau, f)
        ratio = img.sup() / img.inf()
        worst_ratio = max(worst_ratio, ratio)
        assert ratio <= ledger.R * (1 + 1e-12)
    _report(7, f"1000 sampled fields: images inside the S(Q)={s_q:.3f} cone; "
               f"tau-step sup/inf max {worst_ratio:.3f} <= R = {ledger.R:.3f}")


def test_c08_pseudo_invariance(matrix_pipeline, circle_fine):
    _, seq, cone, cert, fwd, bwd = matrix_pipeline
    chain_m = nr.build_invariant_chain(fwd, bwd, tol=1e-10)
    assert chain_m.passed
    gm = max(max(chain_m.push_gap.values()), max(chain_m.tilde_one_err.values()),
             max(chain_m.tilde_dual_gap.values()))
    seq_f, fwd_f, bwd_f = circle_fine
    chain_c = nr.build_invariant_chain(fwd_f, bwd_f, tol=1e-5)
    assert chain_c.passed
    gc = max(max(chain_c.push_gap.values()), max(chain_c.tilde_one_err.values()),
             max(chain_c.tilde_dual_gap.values()))
    _report(8, f"pushforward/stochasticity/dual-transport gaps: matrix {gm:.2e} "
               f"(budget 1e-10), grid {gc:.2e} (budget 1e-5), "
               f"20-function dictionary")


def _random_holder_field(sp, rng, modes=3):
    x = sp.positions
    v = np.zeros_like(x)
    for m in range(1, modes + 1):
        v += (rng.normal() * np.cos(2 * np.pi * m * x)
              + rng.normal() * np.sin(2 * np.pi * m * x))
    return Field(sp, v)


def test_c09_inequality_properties(circle_pipeline, matrix_pipeline):
    sp = PointSpace.circle_grid(32)
    rng = np.random.default_rng(9)
    # log-shift seminorm bound
    for _ in range(1000):
        f = _random_holder_field(sp, rng)
        c = rng.uniform(0.01, 3.0) - f.inf()
        lhs, rhs = nr.log_shift_seminorm_bound(f, c, 1.0)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)
    # uniform-norm vs projective-distance bound for normalized pairs
    m = MeasureVec.uniform(sp)
    for _ in range(1000):
        f = Field(sp, rng.uniform(0.05, 4.0, 32))
        g = Field(sp, rng.uniform(0.05, 4.0, 32))
        f = f * (1.0 / pair(f, m))
        g = g * (1.0 / pair(g, m))
        lhs, rhs = nr.norm_theta_bound(f, g, m)
        assert lhs <= rhs + 1e-9
    # linearized form with measured family diameter and distance to 1
    one = unit_field(sp)
    for _ in range(1000):
        z = []
        for _ in range(4):
            f = Field(sp, rng.uniform(0.05, 4.0, 32))
            z.append(f * (1.0 / pair(f, m)))
        r_m = max(theta_positive(a, b) for i, a in enumerate(z) for b in z[i + 1:])
        s_m = max(theta_positive(f, one) for f in z)
        factor = (math.expm1(r_m) / r_m if r_m > 0 else 1.0) * math.exp(s_m)
        for i, a in enumerate(z):
            for b in z[i + 1:]:
                gap = float(np.abs(a.values - b.values).max())
                assert gap <= factor * theta_positive(a, b) + 1e-9
    # metric nesting and the sup/inf identity
    sp64 = PointSpace.circle_grid(64)
    p64 = ConeParams(Q=2.0, delta=0.25, beta=1.0)
    one64 = unit_field(sp64)
    for _ in range(1000):
        f = sample_log_holder_field(sp64, p64, rng)
        g = sample_log_holder_field(sp64, p64, rng)
        tp = theta_positive(f, g)
        tl = nr.theta_log_holder(f, g, p64, checked=False)
        assert tp <= tl + 1e-12
        assert theta_positive(f, one64) == pytest.approx(
            math.log(f.sup() / f.inf()), rel=1e-12, abs=1e-12)
    # eigenfunction range bounds from the measured diameter, and cone
    # membership, on every solved h
    cp = circle_pipeline
    lo, hi = math.exp(-2 * cp.cert.Delta_measured), math.exp(2 * cp.cert.Delta_measured)
    for n in cp.bwd.reported_h:
        assert lo <= cp.bwd.h[n].inf() and cp.bwd.h[n].sup() <= hi
        assert in_log_holder_cone(cp.bwd.h[n], cp.cone)
    _, _, cone_m, cert_m, fwd_m, bwd_m = matrix_pipeline
    lo_m, hi_m = math.exp(-2 * cert_m.Delta_measured), math.exp(2 * cert_m.Delta_measured)
    for n in bwd_m.reported_h:
        assert lo_m <= bwd_m.h[n].inf() and bwd_m.h[n].sup() <= hi_m
        assert in_log_holder_cone(bwd_m.h[n], cone_m)
    _report(9, "log-shift, norm-vs-Theta (both forms), metric nesting, "
               "sup/inf identity: 1000 trials each, zero violations; "
               "h within [e^{-2D}, e^{2D}] at every solved index")


def test_c10_constants_ledger():
    p = nr.HypothesisParams(D=2, delta=0.1, rho=0.5, tau=3, H=1.0, beta=1.0, V=0.4)
    led = nr.derive_constants(p, 2.0)
    # independent re-derivation, frozen by hand from the closed forms
    s = 0.5 * (1.0 + 2.0)
    r = 8.0 * math.exp(3 * 0.4) * math.exp(2.0 * 0.1)
    delta = 2.0 * math.log((2.0 + s) / (2.0 - s) * r)
    gamma = math.tanh(delta / 4.0) ** (1.0 / 3.0)
    c1 = delta * gamma ** -6.0
    c3 = c1 / delta * math.exp(2 * delta) * (math.exp(delta) - 1.0)
    assert led.Q_threshold == pytest.approx(1.0, rel=1e-12)
    assert led.S == pytest.approx(s, rel=1e-12)
    assert led.R == pytest.approx(r, rel=1e-12)
    assert led.Delta == pytest.approx(delta, rel=1e-12)
    assert led.gamma == pytest.approx(gamma, rel=1e-12)
    assert led.C1 == pytest.approx(c1, rel=1e-12)
    assert led.C3 == pytest.approx(c3, rel=1e-12)
    for bad_q in (1.0, 0.99, 0.5):
        with pytest.raises(DomainError):
            nr.derive_constants(p, bad_q)
    _report(10, "ledger reproduces S, R, Delta, gamma, C1, C3 to 1e-12 "
                "relative and rejects Q at or below the threshold")
