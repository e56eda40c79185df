"""The enumerated sample family: named, deterministic members in disjoint
id ranges, and a circle run that never imports a random generator."""
import filecmp
import itertools
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nsrpf import cli, cones
from nsrpf.cones import (DEFAULT_CONE, MEMBER_SLOT, ConeParams, family_rows,
                         in_log_holder_cone, member_range, pair_set)
from nsrpf.errors import DomainError
from nsrpf.rpf import verify_cone_contraction
from nsrpf.spaces import Field, PointSpace
from nsrpf.systems import MatrixChainSpec, build_matrix_chain

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _line_space(n):
    x = np.linspace(0.0, 1.0, n)
    return PointSpace.finite(np.abs(x[:, None] - x[None, :]))


SPACES = [(PointSpace.circle_grid(64), ConeParams(Q=1.8, delta=0.2)),
          (PointSpace.circle_grid(100), ConeParams(Q=0.3, delta=0.2, beta=0.5)),
          (_line_space(24), ConeParams(Q=2.0, delta=0.2, beta=0.7))]
IDS = list(range(40)) + [MEMBER_SLOT + k for k in range(12)] + [(6 + 123) * MEMBER_SLOT + 5]


def _interior(ids):
    return [k for k in ids if k > 0 and not (k >> 1) & 1]


def _extremal(ids):
    return [k for k in ids if (k >> 1) & 1]


@pytest.mark.parametrize("space, p", SPACES)
def test_members_are_deterministic(space, p):
    """A member has the same bits on every call, alone or in any stack."""
    rows = family_rows(space, p, IDS)
    assert np.array_equal(rows, family_rows(space, p, IDS))
    for k, row in zip(IDS, rows):
        assert np.array_equal(family_rows(space, p, [k])[0], row)
    order = np.random.default_rng(0).permutation(len(IDS))
    assert np.array_equal(family_rows(space, p, [IDS[i] for i in order]), rows[order])
    assert np.array_equal(family_rows(space, p, [0])[0], np.ones(space.n_points))
    interior = [row.tobytes() for k, row in zip(IDS, rows) if k in _interior(IDS)]
    assert len(set(interior)) == len(interior)   # interior members never repeat


@pytest.mark.parametrize("space, p", SPACES)
def test_interior_members_lie_strictly_inside_the_cone(space, p):
    """Their log-Holder constant is at most 0.9 Q, so they lie in the
    cone at 0.91 Q, strictly inside Lambda(Q)."""
    rows = family_rows(space, p, _interior(IDS))
    inner = ConeParams(Q=0.91 * p.Q, delta=p.delta, beta=p.beta)
    assert cones._inside(rows, space, inner).all()
    spread = np.log(rows.max(axis=1) / rows.min(axis=1))
    assert (spread > 0.0).all()


@pytest.mark.parametrize("space, p", SPACES)
def test_extremal_members_saturate_the_inequality_along_their_centre(space, p):
    """exp(+-q d(x, c)^beta) with q = 0.98 Q lies in Lambda(Q), and between
    its centre c and every point within delta its log moves by exactly
    q d^beta: the pairs (c, y) are saturated up to the factor 0.98."""
    # beta < 1 keeps every pair within delta, on a circle grid too
    pairs = pair_set(space, ConeParams(Q=p.Q, delta=p.delta, beta=0.5))
    ids = _extremal(IDS)
    signs = []
    for k, row in zip(ids, family_rows(space, p, ids)):
        assert in_log_holder_cone(Field(space, row), p)
        logf = np.log(row)
        c = int(np.argmin(np.abs(logf)))
        near = pairs.j[pairs.i == c]
        d = pairs.d[pairs.i == c]
        assert near.size > 0
        np.testing.assert_allclose(np.abs(logf[near]), 0.98 * p.Q * d ** p.beta, rtol=1e-12)
        signs.append(np.sign(logf[near[0]]))
    assert signs == [1.0 if k % 2 == 0 else -1.0 for k in ids]


def test_ranges_start_with_an_interior_pair_and_alternate_by_pair():
    """Pair t of a range is interior for even t and extremal for odd t,
    the certificate's alternation."""
    for consumer in ("certificate", "uniqueness seeds", "contraction"):
        ids = member_range(consumer, 16, 7 if consumer == "contraction" else 0)
        kinds = ["extremal" if (k >> 1) & 1 else "interior" for k in ids]
        assert kinds == ["interior"] * 2 + ["extremal"] * 2 + kinds[:12]


@pytest.mark.parametrize("space", [PointSpace.simplex(1), PointSpace.simplex(3),
                                   PointSpace.finite([[0.0, 1.0], [1.0, 0.0]])])
def test_c_plus_members_are_positive(space):
    """Without Lambda(Q) pairs every member past the unit is a positive
    vector in [0.5, 2]."""
    assert len(pair_set(space, DEFAULT_CONE)) == 0
    rows = family_rows(space, DEFAULT_CONE, IDS[1:])
    assert (rows >= 0.5).all() and (rows < 2.0).all()
    assert len({row.tobytes() for row in rows}) == len(IDS) - 1


def test_the_consumers_id_ranges_are_pairwise_disjoint():
    consumers = ["certificate", "independence tails", "independence seeds",
                 "uniqueness seeds", "uniqueness scales"]
    ranges = [member_range(c, MEMBER_SLOT) for c in consumers]
    ranges += [member_range("contraction", MEMBER_SLOT, s) for s in (0, 1, 123, 2 ** 32 - 1)]
    for a, b in itertools.combinations(ranges, 2):
        assert a.stop <= b.start or b.stop <= a.start
    assert all(0 not in r for r in ranges)   # the unit function is no consumer's
    with pytest.raises(DomainError):
        member_range("certificate", MEMBER_SLOT + 1)
    with pytest.raises(DomainError):
        member_range("certificate", 2, seed=1)


def test_a_different_solver_seed_gives_the_verifier_a_different_range(tmp_path):
    """[solver] seed picks the cone_contraction verifier's member range,
    and the report line names it."""
    seq = build_matrix_chain(MatrixChainSpec.random(d=3, window=(-10, 10), seed=4))
    reports = {s: verify_cone_contraction(seq, DEFAULT_CONE, tau=1, seed=s) for s in (123, 124)}
    assert reports[123].members == member_range("contraction", 200, 123)
    assert set(reports[123].members).isdisjoint(reports[124].members)
    assert not np.array_equal(reports[123].ratios, reports[124].ratios)
    body = (ROOT / "configs" / "matrix_random.ini").read_text()
    lines = {}
    for s in (123, 124):
        out = tmp_path / str(s)
        cfg = tmp_path / f"{s}.ini"
        cfg.write_text(body.replace("\nseed = 123\n", f"\nseed = {s}\n")
                       .replace("dir = out-matrix", f"dir = {out}"))
        assert cli.main(["run", str(cfg)]) == 0
        lines[s] = [ln for ln in (out / "report.txt").read_text().splitlines()
                    if "cone_contraction" in ln][0]
        r = member_range("contraction", 200, s)
        assert f" 100 pairs of family members {r[0]}..{r[-1]}, " in lines[s]
    assert lines[123] != lines[124]


_RUN_TWICE = """
import os, sys
from nsrpf import cli
args = sys.argv[1:]
for cmd, config, out in zip(args[0::3], args[1::3], args[2::3]):
    for rep in ("a", "b"):
        os.environ["NSRPF_OUTDIR"] = os.path.join(out, rep)
        assert cli.main([cmd, config]) == 0
print([m for m in ("numpy.random", "hashlib", "secrets") if m in sys.modules])
"""


def _assert_twice_without_a_random_generator(tmp_path, steps):
    """Runs each (cmd, config, label) of ``steps`` twice in one fresh
    interpreter (pytest's own has numpy.random loaded); numpy.random,
    hashlib and secrets stay unimported, and both runs of a step write the
    same files with the same bytes."""
    args = [x for cmd, config, label in steps for x in (cmd, str(config), str(tmp_path / label))]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _RUN_TWICE, *args], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    for _, _, label in steps:
        a, b = tmp_path / label / "a", tmp_path / label / "b"
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b)) and "report.txt" in names
        match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        assert (mismatch, errors) == ([], [])


def test_circle_runs_import_no_random_generator_and_repeat_byte_for_byte(tmp_path):
    """The shipped circle configs, which draw nothing at parse time."""
    _assert_twice_without_a_random_generator(
        tmp_path, [("run", ROOT / "configs" / f"{c}.ini", c)
                   for c in ("circle_perturbed", "doubling")])


def test_drawn_chains_import_no_random_generator_and_repeat_byte_for_byte(tmp_path):
    """Configs whose chain is drawn from a seed when parsed: a random matrix
    chain (run and oracle), the seed-72 matrix chain and a random-mode
    circle draw through ``systems._draw``, not numpy.random."""
    matrix = ROOT / "configs" / "matrix_random.ini"
    data = ROOT / "tests" / "data"
    _assert_twice_without_a_random_generator(tmp_path, [
        ("run", matrix, "matrix_random"),
        ("oracle", matrix, "oracle-matrix_random"),
        ("run", data / "matrix_seed72_chain6.ini", "matrix_seed72_chain6"),
        ("run", data / "circle_random_holder.ini", "circle_random_holder"),
    ])
