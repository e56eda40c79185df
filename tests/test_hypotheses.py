import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from nsrpf import hypotheses
from nsrpf.cli import parse_config
from nsrpf.cones import ConeParams, pair_set, theta_positive
from nsrpf.errors import CertificationError, DomainError, StructuralError
from nsrpf.hypotheses import (HypothesisParams, _chain_column_diameter, _circle_offsets,
                              _column_diameter, certify_cone_conditions,
                              certify_map_hypotheses, contraction_constants,
                              default_Q, derive_constants,
                              log_shift_seminorm_bound, q_threshold)
from nsrpf.spaces import Field, PointSpace, holder_seminorm
from nsrpf.systems import CircleMapSpec, MatrixChainSpec, build_circle_chain, build_matrix_chain
from nsrpf.transfer import Stage, StageSeq

from conftest import rectangular_operator_chain, ref_column_diameter, sampled_doubling_chain

RNG = np.random.default_rng(31)

WORKED = HypothesisParams(D=2, delta=0.1, rho=0.5, tau=3, H=1.0, beta=1.0, V=0.4)


def test_threshold_and_S():
    assert q_threshold(WORKED) == pytest.approx(1.0)
    led = derive_constants(WORKED, 2.0)
    assert led.S == pytest.approx(1.5)          # rho^beta (H + Q) by hand
    assert led.S < led.Q


def test_R_and_Delta_hand_values():
    led = derive_constants(WORKED, 2.0)
    assert led.R == pytest.approx(8.0 * math.exp(1.4), rel=1e-12)
    assert led.R == pytest.approx(32.4416, rel=1e-4)
    want_delta = 2.0 * math.log((2.0 + 1.5) / (2.0 - 1.5) * 8.0 * math.exp(1.4))
    assert led.Delta == pytest.approx(want_delta, rel=1e-12)
    assert led.Delta == pytest.approx(10.85, rel=1e-3)
    assert led.gamma == pytest.approx(math.tanh(want_delta / 4.0) ** (1 / 3), rel=1e-12)
    assert 0.0 < led.gamma < 1.0


def test_full_ledger_independent_rederivation():
    # independent re-derivation, term by term, compared at 1e-12 relative
    p, q = WORKED, 2.0
    rb = p.rho ** p.beta
    s = rb * (p.H + q)
    r = p.D ** p.tau * math.exp(p.tau * p.V) * math.exp(q * p.delta ** p.beta)
    delta = 2.0 * math.log((q + s) / (q - s) * r)
    gamma = math.tanh(delta / 4.0) ** (1.0 / p.tau)
    c1 = delta * gamma ** (-2 * p.tau)
    c3 = c1 / delta * math.exp(2 * delta) * (math.exp(delta) - 1.0)
    led = derive_constants(p, q)
    for got, want in ((led.S, s), (led.R, r), (led.Delta, delta),
                      (led.gamma, gamma), (led.C1, c1), (led.C3, c3)):
        assert got == pytest.approx(want, rel=1e-12)


def test_rejects_Q_at_or_below_threshold():
    with pytest.raises(DomainError, match="threshold"):
        derive_constants(WORKED, 1.0)
    with pytest.raises(DomainError, match="threshold"):
        derive_constants(WORKED, 0.5)
    derive_constants(WORKED, 1.0 + 1e-9)   # just above: fine


@pytest.mark.parametrize("v, q", [(0.4, 3000.0), (0.4, 1e300), (0.4, 1e308),
                                  (200.0, 3000.0)])   # the last R is an inf product
def test_ledger_overflow_is_a_domain_error(v, q):
    with pytest.raises(DomainError, match="overflows"):
        derive_constants(dataclasses.replace(WORKED, V=v), q)


def test_S_lt_Q_biconditional():
    # S(Q) < Q exactly when Q is above the threshold, on both sides
    p = WORKED
    rb = p.rho ** p.beta
    thr = q_threshold(p)
    for q in (thr * 1.001, thr * 2.0, thr * 10.0):
        assert rb * (p.H + q) < q
    for q in (thr * 0.999, thr * 0.5, thr * 0.1):
        assert rb * (p.H + q) >= q


def test_ledger_monotonicity_in_Q():
    # S and R are strictly increasing in Q; Delta is increasing once
    # (Q + S)(Q - S) outgrows 2 rho H / delta^beta (it dips first: the
    # (Q+S)/(Q-S) factor falls faster than R rises near the threshold)
    qs = [1.5, 2.0, 3.0, 5.0, 9.0, 17.0, 33.0]
    ledgers = [derive_constants(WORKED, q) for q in qs]
    s = [l.S for l in ledgers]
    r = [l.R for l in ledgers]
    assert all(b > a for a, b in zip(s, s[1:]))
    assert all(b > a for a, b in zip(r, r[1:]))
    d = [l.Delta for l in ledgers]
    crossover = 2 * WORKED.rho * WORKED.H / WORKED.delta ** WORKED.beta
    tail = [ld for ld, q in zip(d, qs)
            if (q + 0) ** 2 - (WORKED.rho * (WORKED.H + q)) ** 2 > crossover]
    assert all(b > a for a, b in zip(tail, tail[1:]))


def test_contraction_constants_formulas():
    gamma, c1, c3 = contraction_constants(2.0, 2)
    assert gamma == pytest.approx(math.tanh(0.5) ** 0.5, rel=1e-14)
    assert c1 == pytest.approx(2.0 * gamma ** -4, rel=1e-14)
    assert c3 == pytest.approx(c1 / 2.0 * math.exp(4.0) * (math.exp(2.0) - 1), rel=1e-14)


def test_default_Q_convention():
    assert default_Q(WORKED) == pytest.approx(2.0)
    flat = HypothesisParams(D=2, delta=0.2, rho=0.5, tau=2, H=0.0, beta=1.0, V=0.0)
    assert q_threshold(flat) == 0.0
    assert default_Q(flat) == 1.0
    derive_constants(flat, default_Q(flat))    # succeeds at the convention


def test_certify_doubling():
    seq = build_circle_chain(CircleMapSpec.make(
        N=256, window=(-8, 8), eps=0.0, eps_mode="constant", a=0.0,
        a_mode="constant", delta=0.2))
    meas = certify_map_hypotheses(seq)
    assert meas.D == 2
    assert meas.rho == pytest.approx(0.5, abs=1e-12)
    assert meas.H == 0.0 and meas.V == 0.0
    assert meas.tau == 2           # 0.2 * 2^k >= 1/2 at k = 2
    q = 2.0 * meas.H * meas.rho / (1 - meas.rho) + 1.0
    derive_constants(meas, q)      # succeeds at the doubling convention


def test_certify_perturbed_doubling():
    spec = CircleMapSpec.make(N=512, window=(-10, 10), eps=0.05,
                              eps_mode="alternating", a=0.1, a_mode="sin")
    seq = build_circle_chain(spec)
    meas = certify_map_hypotheses(seq)
    rho_analytic = 1.0 / (2.0 - 0.1 * math.pi)
    assert meas.rho <= rho_analytic + 1e-12
    assert meas.rho == pytest.approx(rho_analytic, rel=1e-3)
    assert meas.H <= 2.0 * math.pi * 0.1 + 1e-12
    assert meas.V <= 0.2 + 1e-12
    assert meas.D == 2


def test_certify_a_grid_coarser_than_delta_names_expansion():
    # 1/16 > delta = 0.05: no grid pair lies within delta, so no expansion
    # ratio is measured and rho has no sampled value
    seq = build_circle_chain(CircleMapSpec.make(N=16, window=(-8, 8), delta=0.05))
    with pytest.raises(CertificationError, match="within delta") as e:
        certify_map_hypotheses(seq)
    assert e.value.axiom == "uniform-expansion"


def test_certify_rejects_contracting_map():
    # halving chain contracts distances (d' = d/2 after floor division is
    # not expanding in the stored metric), so expansion must fail
    from conftest import build_halving_chain
    seq = build_halving_chain(levels=2, n_top=16)
    object.__setattr__(seq, "declared",
                       HypothesisParams(D=2, delta=0.4, rho=0.9, tau=1,
                                        H=10.0, beta=1.0, V=2.0))
    with pytest.raises(CertificationError) as e:
        certify_map_hypotheses(seq)
    assert e.value.axiom in ("uniform-expansion", "topological-exactness")


SAMPLED_DOUBLING = HypothesisParams(D=2, delta=0.1, rho=0.5, tau=3,
                                    H=0.2 * math.pi, beta=1.0, V=0.2)


def test_sampled_offsets_reach_the_largest_pair_set_offset():
    """The map certification and the pair set share one rule for the largest
    delta-close grid offset: at delta = 0.145, N = 200 it is 29 (arc distance
    0.145), which int(delta N) = 28 would miss."""
    sp = PointSpace.circle_grid(200)
    offsets = _circle_offsets(sp, 0.145)
    assert offsets[-1] == (29, 0.145)
    assert [o for o, _ in offsets] == [1, 2, 3, 4, 5, 6, 7, 8, 13, 21, 29]
    ps = pair_set(sp, ConeParams(Q=1.0, delta=0.145, beta=0.5))
    assert int(np.minimum((ps.j - ps.i) % 200, (ps.i - ps.j) % 200).max()) == 29
    assert float(ps.d.max()) == 0.145


def test_map_certification_past_half_the_circle():
    """The sampled offsets stop at N // 2 (arc distance 1/2), so at delta = 1
    no offset N with arc distance 0 reads as a non-expanding pair."""
    assert _circle_offsets(PointSpace.circle_grid(16), 1.0) == [
        (o, o / 16) for o in range(1, 9)]
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 4)))
    wide = dataclasses.replace(seq, declared=dataclasses.replace(seq.declared, delta=1.0))
    meas = certify_map_hypotheses(wide)
    assert meas.delta == 1.0 and meas.tau == 1 and 0.0 < meas.rho < 1.0


def test_certify_finite_doubling_sample():
    # 256 -> 128 -> ... -> 8 points: delta-balls of 2 delta = 0.2 cover the
    # circle after three doublings
    seq = sampled_doubling_chain(256, 8, SAMPLED_DOUBLING)
    meas = certify_map_hypotheses(seq)
    assert (meas.D, meas.rho, meas.tau) == (2, 0.5, 3)
    assert 0.0 < meas.H <= SAMPLED_DOUBLING.H and 0.0 < meas.V <= SAMPLED_DOUBLING.V


_CERTIFY_SAMPLED_DOUBLING = """
import sys
from conftest import sampled_doubling_chain
from nsrpf.hypotheses import HypothesisParams, certify_map_hypotheses
meas = certify_map_hypotheses(sampled_doubling_chain(256, 8, {declared!r}))
print((meas.D, meas.rho, meas.tau), "numpy.ma" in sys.modules)
"""


def test_finite_map_certification_leaves_numpy_ma_unimported():
    """The distinct images of a ball are counted without np.unique, whose
    first call in a process imports numpy.ma; run in a fresh interpreter,
    since pytest's own may have it loaded."""
    tests = pathlib.Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-c", _CERTIFY_SAMPLED_DOUBLING.format(declared=SAMPLED_DOUBLING)],
        env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "(2, 0.5, 3) False"


def test_certify_finite_halving_fails_expansion():
    # floor(y/2) sends the neighbours 2k, 2k + 1 to one point
    from conftest import build_halving_chain
    halving = build_halving_chain(levels=5, n_top=256)
    seq = StageSeq(n_min=0, n_max=5, stages=halving.stages, two_sided=False,
                   declared=SAMPLED_DOUBLING)
    with pytest.raises(CertificationError) as e:
        certify_map_hypotheses(seq)
    assert e.value.axiom == "uniform-expansion"


def test_certify_normalized_circle_stages():
    # normalizing changes the potential, not the map: expansion and
    # exactness measure exactly as on the original stages
    from nsrpf.rpf import build_invariant_chain, solve_backward, solve_forward
    seq = build_circle_chain(CircleMapSpec.make(
        N=128, window=(-24, 24), eps=0.05, eps_mode="alternating", a=0.1, a_mode="sin"))
    fwd = solve_forward(seq, tol=1e-6, tau=2, block_factor=0.2, with_diagnostics=False)
    bwd = solve_backward(fwd, with_diagnostics=False)
    chain = build_invariant_chain(fwd, bwd, tol=1e-2)
    lo, hi = chain.window[0], chain.window[-1] + 1
    normalized = StageSeq(n_min=lo, n_max=hi,
                          stages=tuple(chain.normalized_stage(n) for n in range(lo, hi)),
                          declared=seq.declared)
    original = StageSeq(n_min=lo, n_max=hi, stages=tuple(seq.stage(n) for n in range(lo, hi)),
                        declared=seq.declared)
    meas, want = certify_map_hypotheses(normalized), certify_map_hypotheses(original)
    assert (meas.D, meas.rho, meas.tau) == (want.D, want.rho, want.tau)


def test_certify_circle_stage_without_lift_is_typed():
    from conftest import snapped_stage
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 4)))
    bare = snapped_stage(seq.stage(0))   # a map, but no exact lift
    broken = StageSeq(n_min=0, n_max=4, stages=(bare,) + seq.stages[1:], declared=seq.declared)
    with pytest.raises(CertificationError) as e:
        certify_map_hypotheses(broken)
    assert e.value.axiom == "uniform-expansion"


def test_certify_needs_declared_params():
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 4)))
    bare = StageSeq(n_min=seq.n_min, n_max=seq.n_max, stages=seq.stages)
    with pytest.raises(CertificationError, match="declared delta and beta") as e:
        certify_map_hypotheses(bare)
    assert e.value.axiom == "bounded-degree"


def test_certify_needs_stages_with_dynamics():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (0, 4)))
    declared = StageSeq(n_min=0, n_max=4, stages=seq.stages, declared=WORKED)
    with pytest.raises(CertificationError, match="actual dynamics") as e:
        certify_map_hypotheses(declared)
    assert e.value.axiom == "bounded-degree"


@pytest.mark.parametrize("field, named, axiom", [
    ("D", "degree", "bounded-degree"), ("rho", "rho", "uniform-expansion"),
    ("H", "H", "holder-potential"), ("V", "V", "holder-potential"),
    ("tau", "tau", "topological-exactness")])
def test_certify_a_measured_value_above_the_declared_one_names_its_axiom(field, named, axiom):
    # the same stages, declared with one value just below the measured one
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 16)))
    measured = certify_map_hypotheses(seq)
    value = getattr(measured, field)
    below = value - 1 if isinstance(value, int) else value * (1.0 - 1e-6)
    redeclared = StageSeq(n_min=seq.n_min, n_max=seq.n_max, stages=seq.stages,
                          declared=dataclasses.replace(measured, **{field: below}))
    with pytest.raises(CertificationError, match=f"measured {named} ") as e:
        certify_map_hypotheses(redeclared)
    assert e.value.axiom == axiom


def test_cone_conditions_matrix_column_diameter():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (0, 4)))
    cone = ConeParams(Q=1.0, delta=0.5, beta=1.0)
    cert = certify_cone_conditions(seq, cone)
    # exact projective diameter of M C+: columns (2,1), (1,1) give log 2
    assert cert.Delta_measured >= math.log(2.0) - 1e-12
    assert cert.tau == 1
    # Birkhoff rate dominates the spectral-ratio contraction of this matrix
    lam2_over_lam1 = (3 - math.sqrt(5)) / (3 + math.sqrt(5))
    assert cert.block_factor >= lam2_over_lam1
    assert cert.density_basis == "coordinate-span"


@hst.composite
def _images(draw):
    """A strictly positive d x d matrix M (d = 1..6; half the time a product
    of two) and two fields of C+, interior or near a coordinate direction."""
    d = draw(hst.integers(1, 6))

    def matrix():
        return np.array(draw(hst.lists(hst.floats(0.01, 100.0), min_size=d * d,
                                       max_size=d * d))).reshape(d, d)

    def field():
        if draw(hst.booleans()):
            return np.array(draw(hst.lists(hst.floats(1e-6, 1e6), min_size=d, max_size=d)))
        f = np.full(d, draw(hst.sampled_from([0.0, 1e-12, 1e-6]) | hst.floats(0.0, 1e-3)))
        f[draw(hst.integers(0, d - 1))] = 1.0
        return f

    m = matrix()
    if draw(hst.booleans()):
        m = matrix() @ m
    return m, field(), field()


@given(_images())
def test_column_diameter_dominates_every_image_pair(images):
    """Birkhoff's bound behind the C+ operator case of certify_cone_conditions:
    Theta+(M f, M g) never exceeds the projective diameter of M C+."""
    m, f, g = images
    sp = PointSpace.simplex(m.shape[0])
    assert theta_positive(Field(sp, m @ f), Field(sp, m @ g)) <= _column_diameter(m) + 1e-12


def test_cone_conditions_on_c_plus_draw_no_samples(monkeypatch):
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-20, 20), seed=4))

    def refuse(*args):
        raise AssertionError("a C+ operator chain drew a sample")

    monkeypatch.setattr(hypotheses, "family_rows", refuse)
    cert = certify_cone_conditions(seq, ConeParams(Q=1.0, delta=0.5, beta=1.0))
    assert cert.n_samples == 0
    diameters = [_column_diameter(seq.stage(n).dense) for n in range(-20, 20, 8)]
    assert cert.Delta_measured >= max(diameters)


def test_cone_conditions_on_a_metric_finite_space_still_sample():
    """Distances within delta give Lambda(Q) pairs, so the cone is not C+."""
    dist = np.full((3, 3), 0.1) - 0.1 * np.eye(3)
    sp = PointSpace.finite(dist)
    rng = np.random.default_rng(5)
    stages = tuple(Stage(sp, sp, dense=rng.uniform(1.0, 1.01, (3, 3))) for _ in range(16))
    seq = StageSeq(n_min=0, n_max=16, stages=stages)
    cert = certify_cone_conditions(seq, ConeParams(Q=1.0, delta=0.5, beta=1.0))
    assert cert.n_samples > 0


def test_cone_conditions_need_operator_stages_without_a_map():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (0, 2)))
    space = seq.space(0)
    table = Stage(space, space, branch_index=np.array([[0, 0], [1, 1]]),
                  branch_frac=np.zeros((2, 2)), branch_weight=m.T.copy())
    mixed = StageSeq(n_min=0, n_max=2, stages=(seq.stage(0), table))
    with pytest.raises(StructuralError, match="operator stages"):
        certify_cone_conditions(mixed, ConeParams(Q=1.0, delta=0.5, beta=1.0))


def test_cone_conditions_refuse_params_without_maps():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    seq = build_matrix_chain(MatrixChainSpec.stationary(m, (0, 4)))
    with pytest.raises(StructuralError, match="without maps take none"):
        certify_cone_conditions(seq, ConeParams(Q=1.0, delta=0.5, beta=1.0), params=WORKED)


def _all_index_column_diameter(matrices) -> float:
    """max over n and column pairs (a, b) of the spread of log(M_n[:, a] / M_n[:, b])."""
    return max(float(np.ptp(np.log(m[:, a] / m[:, b])))
               for m in matrices for a in range(m.shape[1]) for b in range(a))


@pytest.mark.parametrize("config", ["configs/matrix_random.ini",
                                    "tests/data/matrix_seed72_chain6.ini"])
def test_operator_chain_delta_is_the_all_index_column_diameter(config):
    spec = parse_config(str(pathlib.Path(__file__).resolve().parent.parent / config)).system
    cert = certify_cone_conditions(build_matrix_chain(spec),
                                   ConeParams(Q=1.0, delta=0.5, beta=1.0))
    assert cert.Delta_measured == pytest.approx(_all_index_column_diameter(spec.matrices),
                                                rel=1e-14)


def _operator_chain(name):
    if name == "rectangular":
        return rectangular_operator_chain()
    root = pathlib.Path(__file__).resolve().parent.parent
    return build_matrix_chain(parse_config(str(root / name)).system)


@pytest.mark.parametrize("chain", ["configs/matrix_random.ini",
                                   "tests/data/matrix_seed72_chain6.ini", "rectangular"])
def test_stacked_column_diameter_equals_the_per_matrix_loop(chain):
    stages = _operator_chain(chain).stages
    loop = [ref_column_diameter(st.dense) for st in stages]
    assert _chain_column_diameter(stages).tolist() == loop
    shapes = {st.dense.shape for st in stages}
    for shape in shapes:   # each shape's stack on its own, and a single matrix
        same = [st.dense for st in stages if st.dense.shape == shape]
        assert _column_diameter(np.stack(same)).tolist() == list(map(ref_column_diameter, same))
        assert _column_diameter(same[0]) == ref_column_diameter(same[0])
    assert len(shapes) == (2 if chain == "rectangular" else 1)


def test_cone_conditions_circle():
    spec = CircleMapSpec.make(N=256, window=(0, 8), eps=0.05,
                              eps_mode="alternating", a=0.1, a_mode="sin")
    seq = build_circle_chain(spec)
    meas = certify_map_hypotheses(seq)
    cone = ConeParams(Q=default_Q(meas), delta=meas.delta, beta=meas.beta)
    cert = certify_cone_conditions(seq, cone, params=meas)
    assert cert.tau == meas.tau
    assert 0.0 < cert.Delta_measured < derive_constants(meas, cone.Q).Delta
    assert 0.0 < cert.block_factor < 1.0


def test_a_block_factor_that_rounds_to_1_is_refused():
    """A stage whose column diameter is log(1e40) has tanh(Delta/4) == 1.0
    in floats: no contraction is certified, and the error names Delta, its
    source and index.  A diameter just below keeps a factor under 1."""
    window = (-4, 4)
    flat = build_matrix_chain(MatrixChainSpec.stationary(np.array([[1e20, 1.0], [1.0, 1e20]]),
                                                         window))
    delta = float(_column_diameter(flat.stage(-4).dense))
    assert math.tanh(delta / 4.0) == 1.0
    with pytest.raises(CertificationError, match=r"\[block-contraction\] Delta_measured = "
                       + f"{delta} \\(set by column diameter at index -4\\)") as err:
        certify_cone_conditions(flat, ConeParams(Q=1.0, delta=0.5))
    assert err.value.axiom == "block-contraction"
    steep = build_matrix_chain(MatrixChainSpec.stationary(np.array([[1e8, 1.0], [1.0, 1e8]]),
                                                          window))
    cert = certify_cone_conditions(steep, ConeParams(Q=1.0, delta=0.5))
    assert 0.0 < cert.block_factor < 1.0
    assert cert.block_factor == math.tanh(cert.Delta_measured / 4.0)


def test_cone_conditions_reject_low_Q():
    spec = CircleMapSpec.make(N=256, window=(0, 6), eps=0.05,
                              eps_mode="alternating", a=0.1, a_mode="sin")
    seq = build_circle_chain(spec)
    meas = certify_map_hypotheses(seq)
    low = ConeParams(Q=0.5 * q_threshold(meas), delta=meas.delta, beta=meas.beta)
    with pytest.raises(CertificationError) as e:
        certify_cone_conditions(seq, low, params=meas)
    assert e.value.axiom == "cone-invariance"


def test_log_shift_bound_examples():
    sp = PointSpace.circle_grid(128)
    const = Field(sp, np.full(128, 2.0))
    lhs, rhs = log_shift_seminorm_bound(const, 1.0, 1.0)
    assert lhs == 0.0 and rhs == 0.0
    # f = d(., 0) with c = 1: |f|_1 = 1 so the bound is 1/(c + inf f) = 1,
    # approached by log(f + 1) at the finest pairs near 0 where the slope
    # 1/(f + 1) is maximal
    f = Field(sp, sp.circle_distance_points(sp.positions, 0.0))
    assert holder_seminorm(f, 1.0) == pytest.approx(1.0, rel=1e-12)
    lhs, rhs = log_shift_seminorm_bound(f, 1.0, 1.0)
    assert rhs == pytest.approx(1.0, rel=1e-12)
    assert lhs <= rhs + 1e-12
    assert lhs == pytest.approx(1.0, rel=0.02)
    with pytest.raises(DomainError):
        log_shift_seminorm_bound(f, -0.5, 1.0)


def test_log_shift_bound_sweep():
    sp = PointSpace.circle_grid(32)
    x = sp.positions
    for _ in range(300):
        coef = RNG.normal(size=3)
        v = (coef[0] * np.cos(2 * np.pi * x) + coef[1] * np.sin(2 * np.pi * x)
             + coef[2] * np.cos(4 * np.pi * x))
        f = Field(sp, v)
        c = RNG.uniform(0.01, 3.0) - f.inf()
        lhs, rhs = log_shift_seminorm_bound(f, c, 1.0)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def _unshared(seq, map_fns):
    stages = tuple(dataclasses.replace(st, map_fn=fn) for st, fn in zip(seq.stages, map_fns))
    return StageSeq(n_min=seq.n_min, n_max=seq.n_max, stages=stages,
                    two_sided=seq.two_sided, declared=seq.declared)


def test_certify_shared_maps_equals_per_stage_result():
    # a fresh wrapper per stage gives every stage its own map, so nothing
    # measured on one stage's lift can be reused for another
    spec = parse_config(str(pathlib.Path(__file__).resolve().parent.parent
                            / "configs" / "circle_perturbed.ini")).system
    seq = build_circle_chain(spec)
    assert len({st.map_fn for st in seq.stages}) == 2

    def wrap(fn):
        return lambda y: fn(y)

    per_stage = _unshared(seq, [wrap(st.map_fn) for st in seq.stages])
    assert certify_map_hypotheses(per_stage) == certify_map_hypotheses(seq)


def test_certify_names_the_first_stage_of_a_shared_non_expanding_map():
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-4, 4)))

    def halve(y):
        return 0.5 * y

    broken = _unshared(seq, [halve if n in (-1, 1, 3) else seq.stage(n).map_fn
                             for n in seq.stage_indices])
    with pytest.raises(CertificationError, match="non-expanding pair at stage -1$") as e:
        certify_map_hypotheses(broken)
    assert e.value.axiom == "uniform-expansion"
