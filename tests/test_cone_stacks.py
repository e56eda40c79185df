"""The cone layers on row stacks against their per-field references.

``ref_certify_cone_conditions`` is the per-sample loop the cone certificate
ran before it was stacked: one Field per sample, pushed through apply_L and
compose_L, tested with in_log_holder_cone and measured with
theta_log_holder.  The stacked certificate must certify exactly the same
constants (floats compared with ==) and raise the same first failure.  The
interior family members drawn on the sampling basis cached on a circle grid
must give the bits of the uncached six-mode formula.  The reference draws
each sample as its own one-member call of the sample family, so a member's
bits must not depend on what it is drawn with.
"""
import dataclasses
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from nsrpf import cli, cones, rpf
from nsrpf.cones import (ConeParams, _kronecker, family_rows, in_log_holder_cone, member_range,
                         pair_set, theta_log_holder)
from nsrpf.errors import CertificationError, DomainError
from nsrpf.hypotheses import (ConeCertificate, _circle_holder,
                              certify_cone_conditions, certify_map_hypotheses, default_Q)
from nsrpf.rpf import build_invariant_chain, solve_backward, solve_forward, verify_eigen_relations
from nsrpf.spaces import Field, PointSpace, unit_field
from nsrpf.systems import CircleMapSpec, MatrixChainSpec, build_circle_chain, build_matrix_chain
from nsrpf.transfer import Stage, StageSeq, apply_L, compose_L

from conftest import (random_cone_field, rectangular_operator_chain, ref_column_diameter,
                      six_mode_field)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# per-field references
# ---------------------------------------------------------------------------

def ref_certify_cone_conditions(seq, p, params=None):
    """The certificate's per-sample loop: validation and the C+ column
    diameter as in certify_cone_conditions, then one field at a time, each
    a single member of the certificate's range of the sample family.  The
    Delta provenance is the first source to reach the maximum."""
    has_map = seq.stage(seq.n_min).has_map
    tau = params.tau if has_map else 1
    assert in_log_holder_cone(unit_field(seq.space(seq.n_min)), p)
    s_param = params.rho ** params.beta * (params.H + p.Q) if params is not None else None
    target = ConeParams(Q=s_param, delta=p.delta, beta=p.beta) if s_param else p
    found = [0.0, ("floor", None, None)]

    def offer(value, *where):
        if value > found[0]:
            found[:] = value, where

    if not has_map:
        for r, st in enumerate(seq.stages):
            offer(ref_column_diameter(st.dense), "column diameter", seq.n_min + r, None)
    max_ratio, ratio_at = 0.0, None
    n_sampled = 0
    check_indices = [n for n in seq.stage_indices if (n - seq.n_min) % 8 == 0
                     and n + tau <= seq.n_max]
    positive = not has_map and all(len(pair_set(sp, p)) == 0
                                   for sp in {seq.space(n) for n in seq.space_indices})
    members = iter(member_range("certificate", 24 * len(check_indices)))
    for n in check_indices:
        st = seq.stage(n)
        img1 = compose_L(seq, n, tau, unit_field(seq.space(n)))
        offer(math.log(img1.sup() / img1.inf()), "unit image", n, None)
        for t in range(0 if positive else 12):
            ids = next(members), next(members)
            f, g = (Field(seq.space(n), family_rows(seq.space(n), p, [k])[0]) for k in ids)
            lf = apply_L(st, f)
            if not in_log_holder_cone(lf, target):
                raise CertificationError(
                    "cone-invariance",
                    f"image of a sampled cone field left the cone at stage {n}")
            fi = compose_L(seq, n + 1, tau - 1, lf)
            gi = compose_L(seq, n, tau, g)
            theta_out = theta_log_holder(fi, gi, p, checked=False)
            offer(theta_out, "family pair", n, ids)
            theta_in = theta_log_holder(f, g, p, checked=False)
            if 0.0 < theta_in < math.inf and theta_out > 0.0 and theta_out / theta_in > max_ratio:
                max_ratio, ratio_at = theta_out / theta_in, (n, ids)
            n_sampled += 1
    if max_ratio > 0.0:
        offer(4.0 * math.atanh(min(max_ratio, 1.0 - 1e-12)), "ratio envelope", *ratio_at)
    offer(1e-9, "floor", None, None)
    delta_m, (source, index, ids) = found
    return ConeCertificate(Delta_measured=delta_m, tau=tau,
                           density_basis="holder-shift" if has_map else "coordinate-span",
                           n_samples=n_sampled, Delta_source=source, Delta_index=index,
                           Delta_members=ids)


def ref_interior_member(space, p, k):
    """Interior member k of the sample family on a circle grid, from the
    uncached formula: the coefficients 2 u - 1 and the Lipschitz target
    0.9 Q (0.2 + 0.8 u_13) of its Kronecker point u in [0, 1)^13."""
    u = _kronecker(np.array([k], dtype=np.uint64), 13)[0]
    return six_mode_field(space, 2.0 * u[:6] - 1.0, 2.0 * u[6:12] - 1.0,
                          0.9 * p.Q * (0.2 + 0.8 * u[12]))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------

def _circle(beta):
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(0, 32)))
    params = certify_map_hypotheses(seq)
    return seq, ConeParams(Q=default_Q(params), delta=params.delta, beta=beta), params


def _metric_operators():
    """Three points within delta of each other: Lambda(Q) has pairs, so the
    operator chain is sampled."""
    sp = PointSpace.finite(np.full((3, 3), 0.1) - 0.1 * np.eye(3))
    rng = np.random.default_rng(5)
    stages = tuple(Stage(sp, sp, dense=rng.uniform(1.0, 1.01, (3, 3))) for _ in range(16))
    return StageSeq(n_min=0, n_max=16, stages=stages), ConeParams(Q=1.0, delta=0.5), None


def _c_plus_operators():
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-20, 20), seed=4))
    return seq, ConeParams(Q=1.0, delta=0.5, beta=1.0), None


CHAINS = {"circle-beta-1": lambda: _circle(1.0), "circle-beta-0.5": lambda: _circle(0.5),
          "metric-operators": _metric_operators, "c-plus-operators": _c_plus_operators,
          "rectangular-operators": lambda: (rectangular_operator_chain(),
                                            ConeParams(Q=1.0, delta=0.5, beta=1.0), None)}


# ---------------------------------------------------------------------------
# the stacked certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cells", [None, 20, 500])
@pytest.mark.parametrize("chain", list(CHAINS))
def test_stacked_certificate_equals_the_per_field_loop(chain, cells, monkeypatch):
    seq, cone, params = CHAINS[chain]()
    if cells is not None:
        monkeypatch.setattr(cones, "_BLOCK_CELLS", cells)
        if chain.startswith("circle"):   # the 12 pairs of an index span several blocks
            assert cones._kernel_block(seq.space(seq.n_min), cone)[2] < 12
    ref = ref_certify_cone_conditions(seq, cone, params)
    cert = certify_cone_conditions(seq, cone, params=params)
    assert (cert.Delta_measured, cert.block_factor, cert.tau, cert.n_samples) == (
        ref.Delta_measured, ref.block_factor, ref.tau, ref.n_samples)
    assert cert.density_basis == ref.density_basis
    positive = chain in ("c-plus-operators", "rectangular-operators")
    assert cert.n_samples == (0 if positive else 12 * len(
        [n for n in seq.stage_indices if n % 8 == seq.n_min % 8 and n + ref.tau <= seq.n_max]))


@pytest.mark.parametrize("cells", [None, 500])
def test_stacked_certificate_raises_the_sampled_image_failure(cells, monkeypatch):
    """Understated params shrink S(Q) until a sampled image leaves the cone."""
    if cells is not None:
        monkeypatch.setattr(cones, "_BLOCK_CELLS", cells)
    spec = CircleMapSpec.make(N=256, window=(0, 8), eps=0.05,
                              eps_mode="alternating", a=0.1, a_mode="sin")
    seq = build_circle_chain(spec)
    meas = certify_map_hypotheses(seq)
    cone = ConeParams(Q=default_Q(meas), delta=meas.delta, beta=meas.beta)
    low = dataclasses.replace(meas, H=0.0, rho=0.01)
    message = "image of a sampled cone field left the cone at stage 0"
    with pytest.raises(CertificationError, match=message) as ref:
        ref_certify_cone_conditions(seq, cone, low)
    with pytest.raises(CertificationError, match=message) as got:
        certify_cone_conditions(seq, cone, params=low)
    assert (got.value.axiom, str(got.value)) == (ref.value.axiom, str(ref.value))


def test_row_membership_is_the_field_rule():
    sp = PointSpace.circle_grid(64)
    p = ConeParams(Q=2.0, delta=0.2)
    rng = np.random.default_rng(3)
    rows = [random_cone_field(sp, p, rng).values for _ in range(4)]
    rows += [np.exp(3.0 * np.sin(2 * np.pi * sp.positions)), np.zeros(64),
             np.where(np.arange(64) < 32, 1.0, 0.0), -rows[0]]
    inside = cones._inside(np.stack(rows), sp, p)
    assert inside.tolist() == [in_log_holder_cone(Field(sp, v), p) for v in rows]
    assert inside.tolist() == [True] * 4 + [False] * 4


_SLACK = 8192   # traced bytes beside the blocks: per-row results, lists, array headers


@pytest.mark.parametrize("kernel", ["gaps", "inside"])
def test_kernel_blocks_stay_within_the_budget(kernel):
    """The gap and membership kernels on 64 rows, several blocks on a
    circle grid whose pair set is twice the grid, trace at most
    _BLOCK_CELLS float64 cells plus _SLACK bytes: each block's count of
    live rows covers every temporary it holds."""
    sp = PointSpace.circle_grid(1024)
    p = ConeParams(Q=2.0, delta=0.2)
    assert len(pair_set(sp, p)) == 2 * sp.n_points
    rng = np.random.default_rng(9)
    F, G = (np.stack([random_cone_field(sp, p, rng).values for _ in range(64)])
            for _ in range(2))

    def run():
        return cones._gaps(F, G, sp, p) if kernel == "gaps" else cones._inside(F, sp, p)

    run()   # warm the pair set and its weights
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cones._BLOCK_CELLS * 8 + _SLACK


# ---------------------------------------------------------------------------
# the cached basis and the stacked draws
# ---------------------------------------------------------------------------

_INTERIOR = [k for r in (member_range("certificate", 48), member_range("contraction", 48, 123))
             for k in r if not (k >> 1) & 1]   # interior pairs, both members


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_cached_basis_draws_equal_the_uncached_formula(n):
    sp = PointSpace.circle_grid(n)
    p = ConeParams(Q=1.8, delta=0.2)
    rows = family_rows(sp, p, _INTERIOR)
    for k, row in zip(_INTERIOR, rows):
        assert np.array_equal(row, ref_interior_member(sp, p, k))
    basis = sp._caches["log_holder_basis"]
    family_rows(sp, p, _INTERIOR[:2])
    assert sp._caches["log_holder_basis"] is basis   # built once per space


def test_grids_of_different_size_get_their_own_basis():
    small, large = PointSpace.circle_grid(16), PointSpace.circle_grid(64)
    p = ConeParams(Q=1.0, delta=0.2)
    family_rows(small, p, [1])
    family_rows(large, p, [1])
    cos16, sin16 = small._caches["log_holder_basis"]
    cos64, sin64 = large._caches["log_holder_basis"]
    assert cos16.shape == sin16.shape == (6, 16) and cos64.shape == sin64.shape == (6, 64)
    assert np.array_equal(cos64[2], np.cos(2 * np.pi * 3 * large.positions))
    assert np.array_equal(sin16[5], np.sin(2 * np.pi * 6 * small.positions))


@pytest.mark.parametrize("space, p", [
    (PointSpace.circle_grid(64), ConeParams(Q=1.8, delta=0.2)),
    (PointSpace.circle_grid(100), ConeParams(Q=0.3, delta=0.2, beta=0.5)),
    (PointSpace.finite(np.full((3, 3), 0.1) - 0.1 * np.eye(3)), ConeParams(Q=1.0, delta=0.5)),
    (PointSpace.simplex(4), ConeParams(Q=1.0, delta=0.5))])
@pytest.mark.parametrize("k", [1, 2, 7])
def test_stacked_draws_equal_sequential_draws(space, p, k):
    """A stack of k family members has the rows of k one-member draws, and
    the next k members continue it: two stacks give the bits of one."""
    ids = member_range("contraction", 2 * k, 11)
    rows = family_rows(space, p, ids[:k])
    assert rows.shape == (k, space.n_points)
    for i, row in zip(ids, rows):
        assert np.array_equal(row, family_rows(space, p, [i])[0])
    assert np.array_equal(np.vstack([rows, family_rows(space, p, ids[k:])]),
                          family_rows(space, p, ids))


def test_circle_holder_equals_the_rolled_differences():
    phi = np.random.default_rng(2).normal(size=256)
    offsets = [1, 2, 3, 5, 8, 13, 21, 51]
    ref = max(float(np.abs(np.roll(phi, -o) - phi).max()) / (o / 256) ** 0.5 for o in offsets)
    assert _circle_holder(phi, 0.5, [(o, o / 256) for o in offsets]) == ref


# ---------------------------------------------------------------------------
# the invariant-chain guard reads a given eigen report
# ---------------------------------------------------------------------------

def _matrix_pipeline():
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-24, 24), seed=2))
    cone = ConeParams(Q=1.0, delta=0.5)
    cert = certify_cone_conditions(seq, cone)
    fwd = solve_forward(seq, tol=1e-8, tau=cert.tau, block_factor=cert.block_factor,
                        cone_params=cone)
    return fwd, solve_backward(fwd)


def test_invariant_chain_reuses_the_eigen_report(monkeypatch):
    fwd, bwd = _matrix_pipeline()
    eig = verify_eigen_relations(fwd, bwd, 1e-8)
    plain = build_invariant_chain(fwd, bwd, tol=1e-8)

    def refuse(*args):
        raise AssertionError("the eigen relations were verified again")

    monkeypatch.setattr(rpf, "verify_eigen_relations", refuse)
    reused = build_invariant_chain(fwd, bwd, tol=1e-8, eigen=eig)
    assert (reused.push_gap, reused.tilde_one_err, reused.tilde_dual_gap, reused.passed) == (
        plain.push_gap, plain.tilde_one_err, plain.tilde_dual_gap, plain.passed)


def test_invariant_chain_guard_grades_the_report_at_its_own_tol():
    fwd, bwd = _matrix_pipeline()
    eig = verify_eigen_relations(fwd, bwd, 1e-8)
    worst = max(map(eig.worst, eig.criteria))
    # a report failed at a tighter tolerance still lets a looser chain check build
    strict = dataclasses.replace(eig, tol=worst)
    assert eig.passed and not strict.passed
    build_invariant_chain(fwd, bwd, tol=1e-8, eigen=strict)
    # and a passed report is refused when a residual reaches the chain's tol
    with pytest.raises(DomainError, match="refusing to build the invariant chain"):
        build_invariant_chain(fwd, bwd, tol=worst, eigen=eig)


def test_cli_run_verifies_the_eigen_relations_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(1)
        return verify_eigen_relations(*args)

    monkeypatch.setattr(cli, "verify_eigen_relations", counted)
    monkeypatch.setattr(rpf, "verify_eigen_relations", counted)
    monkeypatch.setenv("NSRPF_OUTDIR", str(tmp_path))
    assert cli.main(["run", str(ROOT / "configs" / "matrix_random.ini")]) == 0
    assert "PASS invariant_chain" in (tmp_path / "report.txt").read_text()
    assert len(calls) == 1
