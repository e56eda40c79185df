"""CSV artifacts against a per-value reference writer that shares no code
with the CLI: every float at 17 significant digits, anything else by str()."""
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

from nsrpf import cli
from nsrpf.rpf import (solve_backward, solve_forward, verify_eigen_relations,
                       verify_exponential_rates)
from nsrpf.systems import oracle_rpf_chain

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"

CIRCLE_64 = """
[system]
kind = circle
n_grid = 64
window = -32 32
eps = 0.05
eps_mode = alternating
a = 0.1
a_mode = sin

[solver]
tol = 1e-6

[outputs]
dir = out

[checks]
run = eigen rates
"""


def reference_csv(header, rows) -> bytes:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" if isinstance(x, float) else str(x)
                              for x in row))
    return ("\n".join(lines) + "\n").encode()


def written(tmp_path, columns, values) -> bytes:
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), columns, values)
    return path.read_bytes()


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-300, math.nan, math.inf, -math.inf,
               np.float64(1.0 / 3.0), 1.0 / 3.0, np.float64(-0.0), np.float64(math.nan),
               2.5e-308, 1e22, -123456.789]


def test_writer_matches_the_reference_on_edge_rows(tmp_path):
    rows = [(i - 3, x, -1 if i % 3 == 0 else i, EDGE_FLOATS[-1 - i])
            for i, x in enumerate(EDGE_FLOATS)]
    got = written(tmp_path, cli._LAMBDA_COLUMNS, [v for row in rows for v in row])
    assert got == reference_csv(["n", "lambda", "k_star", "residual"], rows)
    assert got.splitlines()[1] == b"-3,0,-1,-123456.789"


def test_interleaved_vector_matches_the_reference(tmp_path):
    v = np.array(EDGE_FLOATS, dtype=np.float64)
    got = written(tmp_path, cli._M_COLUMNS, cli._interleave(range(len(v)), v.tolist()))
    assert got == reference_csv(["index", "weight"], enumerate(v))
    assert got.splitlines()[1:4] == [b"0,0", b"1,-0", b"2,4.9406564584124654e-324"]


VECTOR_SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 3.0]


@pytest.mark.parametrize("n", [2, 1024])
def test_vector_template_matches_the_per_value_writer(n):
    """m_<n>.csv / h_<n>.csv through the per-length template against a
    per-value writer: every special value at length 1024, each adjacent
    pair of them at length 2."""
    if n == 2:
        vectors = [np.array(VECTOR_SPECIALS[i:i + 2]) for i in range(len(VECTOR_SPECIALS) - 1)]
    else:
        v = np.random.default_rng(5).normal(size=n) * 10.0 ** np.linspace(-200.0, 200.0, n)
        v[::150] = VECTOR_SPECIALS
        vectors = [v]
    template = cli._vector_template(n)
    for v in vectors:
        expected = "".join(f"{i},{x:.17g}\n" for i, x in enumerate(v))
        assert template % tuple(v.tolist()) == expected


def test_rate_rows_with_nan_padding_match_the_reference(tmp_path):
    rows = [(n, k, float(n * k), math.nan if k % 2 else 1e-300, math.nan)
            for n in (-2, 0, 5) for k in (1, 2, 3)]
    assert written(tmp_path, cli._RATES_COLUMNS, (v for row in rows for v in row)) == \
        reference_csv(["n", "k", "error_lambda", "error_m", "error_h"], rows)


def _traced_write_peak(path, cells) -> int:
    tracemalloc.start()
    try:
        cli._write_csv(str(path), cli._RATES_COLUMNS, iter(cells))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_is_bounded_by_a_block_not_by_the_rows(tmp_path):
    """rates.csv's writer formats and writes one block of rows at a time: a
    body of 40 blocks traces no more than a body of 10 (plus a little), far
    below the 40-block body itself, and the bytes match the per-value
    reference, across block boundaries too."""
    block = cli._CSV_BLOCK_ROWS
    rows = [(n, k, math.pi * n / (k + 1), 1.0 / (n + k + 1), math.nan if k % 3 else 1e-300)
            for n in range(40) for k in range(block + (n == 39))]
    cells = [v for row in rows for v in row]   # the cells exist before the write
    _traced_write_peak(tmp_path / "warm.csv", cells[:5 * block])
    ten = _traced_write_peak(tmp_path / "ten.csv", cells[:50 * block])
    forty = _traced_write_peak(tmp_path / "forty.csv", cells)
    body = (tmp_path / "forty.csv").read_bytes()
    assert body == reference_csv(["n", "k", "error_lambda", "error_m", "error_h"], rows)
    assert forty <= ten + 1024 and forty < len(body) // 10


@pytest.mark.parametrize("columns", [cli._LAMBDA_COLUMNS, cli._M_COLUMNS,
                                     cli._RATES_COLUMNS, cli._ORACLE_COLUMNS])
def test_zero_rows_write_the_header_only(tmp_path, columns):
    names = [name for name, _ in columns]
    assert written(tmp_path, columns, []) == reference_csv(names, [])
    assert written(tmp_path, columns, []) == (",".join(names) + "\n").encode()


def _csvs(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"}


def _solved(cfg):
    seq, cone, cert, ledger = cli._certify(cfg)
    fwd = solve_forward(seq, tol=cfg.tol, tau=cert.tau,
                        block_factor=cert.block_factor, cone_params=cone)
    bwd = solve_backward(fwd) if seq.two_sided else None
    return cert, fwd, bwd


def _run_and_rebuild(cfg_path, tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("NSRPF_OUTDIR", str(out))
    assert cli.main(["run", str(cfg_path)]) == 0
    cfg = cli.parse_config(str(cfg_path))
    cert, fwd, bwd = _solved(cfg)
    resid = verify_eigen_relations(fwd, bwd, cfg.tol).criteria["dual residual"]
    expected = {"lambda.csv": reference_csv(
        ["n", "lambda", "k_star", "residual"],
        [(n, fwd.lam[n], fwd.k_star.get(n, -1), resid.get(n, math.nan))
         for n in fwd.reported_lam])}
    for n in fwd.reported_m:
        expected[f"m_{n}.csv"] = reference_csv(["index", "weight"],
                                               enumerate(fwd.m[n].weights))
    for n in (bwd.reported_h if bwd is not None else []):
        expected[f"h_{n}.csv"] = reference_csv(["index", "value"],
                                               enumerate(bwd.h[n].values))
    expected["rates.csv"] = reference_csv(
        ["n", "k", "error_lambda", "error_m", "error_h"],
        verify_exponential_rates(fwd, bwd, cert.rate_constants()).rows)
    return _csvs(out), expected


def test_matrix_random_run_csvs_match_the_reference(tmp_path, monkeypatch):
    got, expected = _run_and_rebuild(CONFIGS / "matrix_random.ini", tmp_path, monkeypatch)
    assert sorted(got) == sorted(expected)
    assert any(name.startswith("h_") for name in got)
    for name in expected:
        assert got[name] == expected[name], name


def test_circle_run_csvs_match_the_reference(tmp_path, monkeypatch):
    cfg_path = tmp_path / "circle64.ini"
    cfg_path.write_text(CIRCLE_64)
    got, expected = _run_and_rebuild(cfg_path, tmp_path, monkeypatch)
    assert sorted(got) == sorted(expected)
    assert b"nan" in got["rates.csv"]
    for name in expected:
        assert got[name] == expected[name], name


def test_oracle_csv_matches_the_reference(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("NSRPF_OUTDIR", str(out))
    cfg_path = CONFIGS / "matrix_random.ini"
    assert cli.main(["oracle", str(cfg_path)]) == 0
    cfg = cli.parse_config(str(cfg_path))
    _, fwd, bwd = _solved(cfg)
    lams, ms, hs = oracle_rpf_chain(cfg.system)
    rows = [(n, abs(lams[n] - fwd.lam[n]) / fwd.lam[n],
             float(np.abs(ms[n] - fwd.m[n].weights).max()),
             float(np.abs(hs[n] - bwd.h[n].values).max())
             if n in bwd.reported_h else math.nan)
            for n in fwd.reported_lam]
    assert any(math.isnan(row[3]) for row in rows)
    assert _csvs(out) == {"oracle_diff.csv": reference_csv(
        ["n", "dlambda_rel", "dm_max", "dh_max"], rows)}
