import dataclasses
import itertools
import math
import os
import pathlib
import re
import stat
import subprocess
import sys

import pytest

from nsrpf import cli
from nsrpf.cli import main, parse_config

HERE = pathlib.Path(__file__).resolve().parent


def write_cfg(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


MATRIX_CFG = """
[system]
kind = matrix
d = 2
window = -30 30
matrix = 2 1 1 1

[solver]
tol = 1e-10

[outputs]
dir = {out}

[checks]
run = eigen rates uniqueness invariant_chain
"""

DOUBLING_CFG = """
[system]
kind = circle
n_grid = 256
window = -36 36
eps = 0.0
eps_mode = constant
a = 0.0
a_mode = constant

[cone]
q = auto
delta = 0.2

[solver]
tol = 1e-6

[outputs]
dir = {out}

[checks]
run = eigen rates invariant_chain
"""


def test_run_matrix_ok(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MATRIX_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    report = (out / "report.txt").read_text()
    assert report.count("PASS") == 4 and "FAIL" not in report
    lam_rows = (out / "lambda.csv").read_text().strip().splitlines()
    assert lam_rows[0] == "n,lambda,k_star,residual"
    lam_val = float(lam_rows[1].split(",")[1])
    assert lam_val == pytest.approx(2.618033988749895, abs=1e-10)
    assert (out / "rates.csv").exists() and (out / "constants.txt").exists()
    assert any(f.name.startswith("m_") for f in out.iterdir())
    assert any(f.name.startswith("h_") for f in out.iterdir())
    # every artifact private, and no temp file left behind
    assert {stat.S_IMODE(f.stat().st_mode) for f in out.iterdir()} == {0o600}
    assert not [f.name for f in out.iterdir() if f.name.startswith(".")]


def test_failing_rates_line_names_the_worst_slope(tmp_path, monkeypatch):
    # the fake report fails on one slope of -0.25, shallower than every real
    # one; the FAIL line names it, its index and the bound it broke
    real = cli.verify_exponential_rates
    seen = []

    def one_shallow_slope(fwd, bwd, rc):
        seen.append(real(fwd, bwd, rc))
        slopes = {**seen[0].slopes, min(seen[0].slopes): (-0.25, -math.inf)}
        return dataclasses.replace(seen[0], slopes=slopes, passed=False)

    monkeypatch.setattr(cli, "verify_exponential_rates", one_shallow_slope)
    out = tmp_path / "out"
    assert main(["run", write_cfg(tmp_path, MATRIX_CFG.format(out=out))]) == 1
    constants = dict(ln.split(" = ") for ln in (out / "constants.txt").read_text().splitlines())
    bound = math.log(float(constants["gamma_measured"])) + 1.0
    fails = [ln for ln in (out / "report.txt").read_text().splitlines() if ln.startswith("FAIL")]
    assert fails == [f"FAIL rates: 0 envelope violations over {len(seen[0].rows)} records, "
                     f"worst slope -0.25 at n = {min(seen[0].slopes)} "
                     f"(must be < 0 and <= log(gamma) + 1 = {bound:.17g})"]


def _report_lines(tmp_path, name, checks):
    out = tmp_path / name
    body = MATRIX_CFG.format(out=out).replace(
        "run = eigen rates uniqueness invariant_chain", f"run = {checks}")
    code = main(["run", write_cfg(tmp_path, body, name=f"{name}.ini")])
    return code, (out / "report.txt").read_text().splitlines()


def test_failing_uniqueness_line_names_the_threshold(tmp_path, monkeypatch):
    # the real report with one xi gap raised mid-window: only the FAIL line
    # gains the threshold and the failing criterion with its worst index, so
    # passing reports keep their bytes
    code, passing = _report_lines(tmp_path, "pass", "uniqueness")
    real = cli.verify_uniqueness
    seen = []

    def one_bad_gap(fwd, bwd, *, tol):
        seen.append(real(fwd, bwd, tol=tol))
        xi = seen[0].criteria["xi gap"]
        n = list(xi)[len(xi) // 2]
        return dataclasses.replace(seen[0], criteria={**seen[0].criteria,
                                   "xi gap": {**xi, n: 0.125}})

    monkeypatch.setattr(cli, "verify_uniqueness", one_bad_gap)
    failed, lines = _report_lines(tmp_path, "fail", "uniqueness")
    uq = seen[0]
    assert uq.tol == 10.0 * 1e-10
    head = f"uniqueness: tail-shift dlam {uq.worst('dlam'):.17g}, dm {uq.worst('dm'):.17g}, "
    tail = f"seed dh {uq.worst('dh'):.17g}"
    assert (code, passing) == (0, [f"PASS {head}xi gap {uq.worst('xi gap'):.17g}, {tail}"])
    n = list(uq.criteria["xi gap"])[len(uq.criteria["xi gap"]) // 2]
    assert (failed, lines) == (1, [f"FAIL {head}xi gap 0.125, {tail} "
                                   f"(threshold {10.0 * 1e-10:.17g}); failing: xi gap at n = {n}"])


def test_failing_cone_contraction_line_counts_the_monotone_violations(tmp_path, monkeypatch):
    # every ratio stays below tanh(Delta/4); the FAIL comes from two monotone
    # violations, which the line must name
    code, passing = _report_lines(tmp_path, "pass", "cone_contraction")
    real = cli.verify_cone_contraction
    seen = []

    def two_violations(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return dataclasses.replace(seen[0], monotone_violations=2, passed=False)

    monkeypatch.setattr(cli, "verify_cone_contraction", two_violations)
    failed, lines = _report_lines(tmp_path, "fail", "cone_contraction")
    cc = seen[0]
    assert cc.n_pairs > 0 and float(cc.ratios.max()) <= cc.block_factor
    members = f"family members {cc.members[0]}..{cc.members[-1]}"
    detail = (f"cone_contraction: {cc.n_pairs} pairs of {members}, "
              f"Delta {cc.Delta_measured:.17g}, "
              f"max ratio {float(cc.ratios.max()):.17g} "
              f"vs tanh(Delta/4) {cc.block_factor:.17g}")
    assert (code, passing) == (0, ["PASS " + detail])
    assert (failed, lines) == (1, [f"FAIL {detail}, 2 monotone violations"])


def test_failing_eigen_line_names_each_failing_residual_and_its_worst_index(tmp_path,
                                                                           monkeypatch):
    # the real report with the dual residual raised at its first index and
    # the h residual at its last: the FAIL line names both, in column order
    code, passing = _report_lines(tmp_path, "pass", "eigen")
    real = cli.verify_eigen_relations
    seen = []

    def two_bad_rows(fwd, bwd, tol):
        seen.append(real(fwd, bwd, tol))
        dual, resid_h = seen[0].criteria["dual residual"], seen[0].criteria["h residual"]
        return dataclasses.replace(seen[0], criteria={
            **seen[0].criteria, "dual residual": {**dual, min(dual): 0.25},
            "h residual": {**resid_h, max(resid_h): 0.5}})

    monkeypatch.setattr(cli, "verify_eigen_relations", two_bad_rows)
    failed, lines = _report_lines(tmp_path, "fail", "eigen")
    eig = seen[0]
    tail = f"max |<h,m>-1| {eig.worst('|<h,m>-1|'):.17g}, "
    assert (code, passing) == (0, [
        f"PASS eigen: max dual residual {eig.worst('dual residual'):.17g}, "
        f"{tail}max h residual {eig.worst('h residual'):.17g} (tol 1e-10)"])
    first, last = min(eig.criteria["dual residual"]), max(eig.criteria["h residual"])
    assert (failed, lines) == (1, [
        f"FAIL eigen: max dual residual 0.25, {tail}max h residual 0.5 (tol 1e-10); "
        f"failing: dual residual at n = {first}, h residual at n = {last}"])


def test_failing_invariant_chain_line_names_the_failing_gap_and_its_worst_index(
        tmp_path, monkeypatch):
    code, passing = _report_lines(tmp_path, "pass", "invariant_chain")
    real = cli.build_invariant_chain
    seen = []

    def one_bad_gap(fwd, bwd, **kwargs):
        seen.append(real(fwd, bwd, **kwargs))
        n = seen[0].window[len(seen[0].window) // 2]
        return dataclasses.replace(seen[0], push_gap={**seen[0].push_gap, n: 0.125})

    monkeypatch.setattr(cli, "build_invariant_chain", one_bad_gap)
    failed, lines = _report_lines(tmp_path, "fail", "invariant_chain")
    chain = seen[0]
    tail = (f"max ||L~1 - 1|| {max(chain.tilde_one_err.values()):.17g}, "
            f"max dual gap {max(chain.tilde_dual_gap.values()):.17g} (tol 1e-10)")
    assert (code, passing) == (0, [f"PASS invariant_chain: max push gap "
                                   f"{max(chain.push_gap.values()):.17g}, {tail}"])
    n = chain.window[len(chain.window) // 2]
    assert (failed, lines) == (1, [f"FAIL invariant_chain: max push gap 0.125, {tail}; "
                                   f"failing: push gap at n = {n}"])


def test_failing_independence_line_names_the_failing_gap_and_its_worst_index(
        tmp_path, monkeypatch):
    # the real report with one m gap raised mid-window: only the FAIL line
    # gains the criterion and its index, so passing reports keep their bytes
    code, passing = _report_lines(tmp_path, "pass", "independence")
    real = cli.verify_independence
    seen = []

    def one_bad_gap(fwd, bwd, *, tol):
        seen.append(real(fwd, bwd, tol=tol))
        dm = seen[0].criteria["dm"]
        n = list(dm)[len(dm) // 2]
        return dataclasses.replace(seen[0], criteria={**seen[0].criteria,
                                   "dm": {**dm, n: 0.125}})

    monkeypatch.setattr(cli, "verify_independence", one_bad_gap)
    failed, lines = _report_lines(tmp_path, "fail", "independence")
    ind = seen[0]
    detail = "max dh {:.17g} (threshold {:.17g})".format(ind.worst("dh"), 10.0 * 1e-10)
    assert (code, passing) == (0, [f"PASS independence: max dlam {ind.worst('dlam'):.17g}, "
                                   f"max dm {ind.worst('dm'):.17g}, {detail}"])
    n = list(ind.criteria["dm"])[len(ind.criteria["dm"]) // 2]
    assert (failed, lines) == (1, [f"FAIL independence: max dlam {ind.worst('dlam'):.17g}, "
                                   f"max dm 0.125, {detail}; failing: dm at n = {n}"])


def test_run_doubling_lambda_two(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, DOUBLING_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    rows = (out / "lambda.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        assert float(row.split(",")[1]) == pytest.approx(2.0, abs=1e-9)


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MATRIX_CFG.format(out=out))
    assert main(["run", cfg]) == 0
    first = {f.name: f.read_bytes() for f in out.iterdir()
             if f.suffix == ".csv"}
    assert main(["run", cfg]) == 0
    second = {f.name: f.read_bytes() for f in out.iterdir()
              if f.suffix == ".csv"}
    assert first == second


def test_config_parse_errors(tmp_path):
    assert main(["run", str(tmp_path / "missing.ini")]) == 2
    bad = write_cfg(tmp_path, "[system]\nkind = warp\nwindow = 0 4\n")
    assert main(["run", bad]) == 2
    bad2 = write_cfg(tmp_path, """
[system]
kind = matrix
d = 2
window = -6 6
matrix = 2 1 1
[outputs]
dir = x
""", name="bad2.ini")
    assert main(["run", bad2]) == 2
    bad3 = write_cfg(tmp_path, MATRIX_CFG.format(out=tmp_path / "o")
                     .replace("run = eigen rates uniqueness invariant_chain",
                              "run = eigen bogus"), name="bad3.ini")
    assert main(["run", bad3]) == 2


def test_q_below_threshold_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, """
[system]
kind = circle
n_grid = 256
window = -12 12
eps = 0.05
eps_mode = alternating
a = 0.1
a_mode = sin

[cone]
q = 0.1
delta = 0.2

[outputs]
dir = {out}
""".format(out=tmp_path / "o"))
    assert main(["run", cfg]) == 3


def test_q_below_threshold_is_a_typed_certification_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[system]
kind = circle
n_grid = 64
window = -8 8

[cone]
q = 0.1

[outputs]
dir = {out}
""".format(out=tmp_path / "o"))
    assert main(["certify", cfg]) == 3
    assert "certification failure: [cone-threshold]" in capsys.readouterr().err


def test_a_grid_coarser_than_delta_is_a_typed_certification_failure(tmp_path, capsys):
    cfg = write_cfg(tmp_path, """
[system]
kind = circle
n_grid = 16
window = -8 8

[cone]
delta = 0.05

[outputs]
dir = {out}
""".format(out=tmp_path / "o"))
    assert main(["run", cfg]) == 3
    assert "certification failure: [uniform-expansion]" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["certify", "run"])
def test_a_block_factor_that_rounds_to_1_is_a_certification_failure(tmp_path, capsys, cmd):
    # the column diameter log(1e40) = 92.1 makes tanh(Delta/4) exactly 1.0:
    # no contraction is certified, so neither command writes a ledger
    cfg = write_cfg(tmp_path, MATRIX_CFG.format(out=tmp_path / "o").replace(
        "matrix = 2 1 1 1", "matrix = 1e20 1 1 1e20"))
    assert main([cmd, cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("certification failure: [block-contraction] Delta_measured = 92.1")
    assert "(set by column diameter at index -30)" in err
    assert not (tmp_path / "o").exists()


def test_matrix_chain_honors_cone_section(tmp_path):
    out = tmp_path / "out"
    body = MATRIX_CFG.format(out=out).replace(
        "[solver]", "[cone]\nq = 3.0\ndelta = 0.25\n\n[solver]")
    assert main(["certify", write_cfg(tmp_path, body)]) == 0
    lines = (out / "constants.txt").read_text().splitlines()
    assert "Q = 3" in lines and "delta = 0.25" in lines and "beta = 1" in lines


def test_out_of_range_cone_values_are_config_errors(tmp_path):
    for line in ("q = -1.0", "delta = -0.5", "beta = 1.5"):
        body = MATRIX_CFG.format(out=tmp_path / "o").replace(
            "[solver]", f"[cone]\n{line}\n\n[solver]")
        assert main(["certify", write_cfg(tmp_path, body)]) == 2


def test_unknown_keys_are_config_errors(tmp_path, capsys):
    # a misspelled key, and the solver's former k_max: neither is read
    for old, new, name in (("n_grid = 256", "n_gird = 256", "[system].n_gird"),
                           ("tol = 1e-6", "tol = 1e-6\nk_max = 40", "[solver].k_max")):
        body = DOUBLING_CFG.format(out=tmp_path / "o").replace(old, new)
        assert main(["certify", write_cfg(tmp_path, body)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{name}: unknown key" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["circle_perturbed", "doubling", "matrix_random"])
def test_shipped_configs_use_only_keys_that_are_read(name, monkeypatch):
    monkeypatch.delenv("NSRPF_OUTDIR", raising=False)
    cfg = parse_config(str(HERE.parent / "configs" / f"{name}.ini"))
    assert cfg.out_dir.startswith("out-")


def test_certify_writes_constants(tmp_path):
    out = tmp_path / "outc"
    cfg = write_cfg(tmp_path, DOUBLING_CFG.format(out=out))
    assert main(["certify", cfg]) == 0
    text = (out / "constants.txt").read_text()
    for key in ("Delta_measured", "block_factor", "gamma_measured",
                "Q_threshold", "C1", "C3"):
        assert key in text


def test_oracle_mode(tmp_path):
    out = tmp_path / "outo"
    cfg = write_cfg(tmp_path, MATRIX_CFG.format(out=out))
    assert main(["oracle", cfg]) == 0
    text = (out / "report.txt").read_text()
    assert text.startswith("PASS oracle")
    assert (out / "oracle_diff.csv").exists()


def test_oracle_mode_rejects_circle(tmp_path):
    cfg = write_cfg(tmp_path, DOUBLING_CFG.format(out=tmp_path / "o"))
    assert main(["oracle", cfg]) == 2


def test_outdir_env_override(tmp_path, monkeypatch):
    out = tmp_path / "from-env"
    monkeypatch.setenv("NSRPF_OUTDIR", str(out))
    cfg = write_cfg(tmp_path, MATRIX_CFG.format(out=tmp_path / "ignored"))
    assert main(["run", cfg]) == 0
    assert (out / "report.txt").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("via", ["config", "env"])
@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("cmd", ["run", "certify", "oracle"])
def test_an_output_directory_that_cannot_be_created_is_a_config_error(
        tmp_path, monkeypatch, capsys, cmd, below, via):
    """A regular file at the output directory's path, or on the way to it,
    exits 2 with a config error naming the directory, whether the path comes
    from [outputs].dir or from NSRPF_OUTDIR."""
    blocker = tmp_path / "a-file"
    blocker.write_text("keep\n")
    out = blocker / below if below else blocker
    monkeypatch.delenv("NSRPF_OUTDIR", raising=False)
    if via == "env":
        monkeypatch.setenv("NSRPF_OUTDIR", str(out))
    body = DOUBLING_CFG if cmd == "certify" else MATRIX_CFG
    cfg = write_cfg(tmp_path, body.format(out=out if via == "config" else tmp_path / "unused"))
    assert main([cmd, cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [outputs].dir: ")
    assert repr(str(out)) in err
    assert blocker.read_text() == "keep\n"
    assert not (tmp_path / "unused").exists()


def test_invariant_chain_on_a_too_short_window_is_a_typed_error(tmp_path, capsys):
    # one reported backward index leaves no invariant-chain step to check
    cfg = write_cfg(tmp_path, """
[system]
kind = matrix
d = 3
window = 0 12
seed = 1

[cone]
q = 1.0
delta = 0.5

[solver]
tol = 1e-2

[outputs]
dir = {out}

[checks]
run = eigen invariant_chain
""".format(out=tmp_path / "o"))
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invariant-chain" in err


SHIPPED = HERE.parent / "configs"


@pytest.mark.parametrize("config, old, new", [
    ("circle_perturbed", "n_grid = 1024", "n_grid = 7"),
    ("circle_perturbed", "eps = 0.05", "eps = 0.5"),
    ("circle_perturbed", "eps_mode = alternating", "eps_mode = bogus"),
    ("circle_perturbed", "eps = 0.05", "eps = nan"),
    ("circle_perturbed", "a = 0.1", "a = nan"),
    ("circle_perturbed", "b = 0.0", "b = inf"),
    ("circle_perturbed", "a = 0.1", "a = -inf"),
    ("circle_perturbed", "delta = 0.2", "delta = nan"),
    ("matrix_random", "entry_low = 1.0", "entry_low = -1.0"),
    ("matrix_random", "d = 3", "d = 0"),
    ("matrix_random", "entry_low = 1.0", "entry_low = nan"),
    ("matrix_random", "entry_high = 2.0", "entry_high = inf"),
    ("matrix_random", "entry_low = 1.0", "entry_low = 2.5"),
    ("matrix_random", "seed = 1234", "seed = -1"),
    ("circle_perturbed", "eps_mode = alternating", "eps_mode = random\nseed = -1"),
    ("circle_perturbed", "a = 0.1\na_mode = sin", "a = -0.1\na_mode = random"),
    ("circle_perturbed", "eps = 0.05\neps_mode = alternating", "eps = -0.01\neps_mode = random"),
    ("circle_perturbed", "a = 0.1\na_mode = sin", "a = 1e308\na_mode = random"),
    ("circle_perturbed", "a = 0.1\na_mode = sin", "a = 800\na_mode = constant"),
    ("circle_perturbed", "b = 0.0", "b = -800"),
])
@pytest.mark.parametrize("cmd", ["certify", "run"])
def test_system_value_errors_exit_2_without_a_traceback(tmp_path, config, old, new, cmd):
    body = (SHIPPED / f"{config}.ini").read_text()
    assert f"\n{old}\n" in body
    cfg = write_cfg(tmp_path, body.replace(f"\n{old}\n", f"\n{new}\n"))
    env = dict(os.environ, NSRPF_OUTDIR=str(tmp_path / "o"),
               PYTHONPATH=str(HERE.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "nsrpf.cli", cmd, cfg], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: [system]: ")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("config, old, new, section", [
    ("circle_perturbed", "tol = 1e-6", "tol = inf", "[solver].tol"),
    ("circle_perturbed", "tol = 1e-6", "tol = nan", "[solver].tol"),
    ("circle_perturbed", "seed = 123", "seed = -1", "[solver].seed"),
    ("circle_perturbed", "q = auto", "q = inf", "[cone].q"),
    ("matrix_random", "delta = 0.5", "delta = inf", "[cone]"),
    ("circle_perturbed", "window = -64 64", "", "[system].window: missing required key"),
    ("circle_perturbed", "kind = circle", "", "[system].kind: missing required key"),
    ("circle_perturbed", "n_grid = 1024", "n_grid = many", "[system].n_grid: invalid literal"),
    ("circle_perturbed", "tol = 1e-6", "tol = small", "[solver].tol: could not convert"),
    ("circle_perturbed", "window = -64 64", "window = 5",
     "[system].window: window needs two integers"),
    ("circle_perturbed", "window = -64 64", "window = 4 4",
     "[system].window: window upper end must exceed"),
    ("circle_perturbed", "q = auto", "q = big",
     "[cone].q: must be 'auto' or a positive finite number"),
])
def test_cone_and_solver_value_errors_exit_2(tmp_path, monkeypatch, capsys,
                                             config, old, new, section):
    body = (SHIPPED / f"{config}.ini").read_text()
    assert f"\n{old}\n" in body
    monkeypatch.setenv("NSRPF_OUTDIR", str(tmp_path / "o"))
    assert main(["run", write_cfg(tmp_path, body.replace(f"\n{old}\n", f"\n{new}\n"))]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}")
    assert not (tmp_path / "o").exists()


def test_overflowing_q_is_a_certification_failure(tmp_path, monkeypatch, capsys):
    body = (SHIPPED / "circle_perturbed.ini").read_text()
    assert "\nq = auto\n" in body
    monkeypatch.setenv("NSRPF_OUTDIR", str(tmp_path / "o"))
    cfg = write_cfg(tmp_path, body.replace("\nq = auto\n", "\nq = 1e300\n"))
    assert main(["certify", cfg]) == 3
    assert "overflows" in capsys.readouterr().err


def test_matrix_chain_with_a_large_q_passes_every_check(tmp_path, monkeypatch):
    """The cone of a simplex space is C+ for every q, so certification draws
    no exp(0.98 q) field that could overflow."""
    body = (SHIPPED / "matrix_random.ini").read_text()
    assert "\nq = 1.0\n" in body
    out = tmp_path / "o"
    monkeypatch.setenv("NSRPF_OUTDIR", str(out))
    assert main(["run", write_cfg(tmp_path, body.replace("\nq = 1.0\n", "\nq = 1000\n"))]) == 0
    report = (out / "report.txt").read_text()
    assert report.count("PASS") == 6 and "FAIL" not in report


def test_atomic_write_removes_its_temp_file_when_the_rename_fails(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(str(tmp_path / "lambda.csv"), "n,lambda\n")
    assert os.listdir(tmp_path) == []


def test_atomic_write_removes_its_temp_file_when_the_write_fails(tmp_path):
    with pytest.raises(TypeError):
        cli._atomic_write(str(tmp_path / "lambda.csv"), b"not text")
    assert os.listdir(tmp_path) == []


def test_atomic_write_replaces_the_target_with_a_private_file(tmp_path):
    target = tmp_path / "lambda.csv"
    target.write_text("an older, longer body that must not survive\n")
    text = "n,lambda\n0,1.5\n"
    cli._atomic_write(str(target), text)
    assert target.read_bytes() == text.encode()
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["lambda.csv"]   # no temp file left


def test_atomic_write_loops_until_every_byte_is_written(tmp_path, monkeypatch):
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:3]))
    text = "index,value\n0,0.25\n1,0.75\n"
    cli._atomic_write(str(tmp_path / "m_0.csv"), text)
    assert (tmp_path / "m_0.csv").read_text() == text


def _first_temp_name(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_TMP_SERIAL", itertools.count())
    return tmp_path / f".tmp-nsrpf-{os.getpid()}-0"


def test_atomic_write_skips_a_stale_temp_file(tmp_path, monkeypatch):
    # left by a killed process that had this pid
    stale = _first_temp_name(tmp_path, monkeypatch)
    stale.write_text("stale")
    cli._atomic_write(str(tmp_path / "report.txt"), "PASS eigen\n")
    assert (tmp_path / "report.txt").read_text() == "PASS eigen\n"
    assert stale.read_text() == "stale"
    assert sorted(os.listdir(tmp_path)) == sorted([stale.name, "report.txt"])


def test_atomic_write_does_not_follow_a_symlink_at_its_temp_name(tmp_path, monkeypatch):
    link = _first_temp_name(tmp_path, monkeypatch)
    elsewhere = tmp_path / "elsewhere"
    link.symlink_to(elsewhere)
    cli._atomic_write(str(tmp_path / "report.txt"), "PASS eigen\n")
    assert (tmp_path / "report.txt").read_text() == "PASS eigen\n"
    assert link.is_symlink() and not elsewhere.exists()


def test_a_rerun_into_one_directory_removes_the_stale_per_index_files(tmp_path, monkeypatch):
    """A second run with a shorter window leaves exactly its own m_<n>.csv
    and h_<n>.csv; files of other names stay."""
    out = tmp_path / "out"
    out.mkdir()
    for name in ("notes.txt", "m_x.csv"):
        (out / name).write_text("kept\n")
    real = cli._write_run_artifacts
    reported = []

    def recording(out_dir, fwd, bwd, *args):
        reported.append({f"m_{n}.csv" for n in fwd.reported_m}
                        | {f"h_{n}.csv" for n in bwd.reported_h})
        return real(out_dir, fwd, bwd, *args)

    monkeypatch.setattr(cli, "_write_run_artifacts", recording)
    for window in ("-40 40", "-30 30"):
        body = MATRIX_CFG.format(out=out).replace("window = -30 30", f"window = {window}")
        assert main(["run", write_cfg(tmp_path, body)]) == 0
    first, second = reported
    assert second < first
    per_index = {p.name for p in out.iterdir() if re.fullmatch(r"[mh]_-?[0-9]+\.csv", p.name)}
    assert per_index == second
    assert all((out / name).read_text() == "kept\n" for name in ("notes.txt", "m_x.csv"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors on Linux")
def test_a_run_leaves_no_descriptor_open(tmp_path):
    """The writer opens raw descriptors, which no ResourceWarning reports:
    the process's open descriptors are the same before and after a run."""
    cfg = write_cfg(tmp_path, MATRIX_CFG.format(out=tmp_path / "out"))
    before = sorted(os.listdir("/proc/self/fd"))
    assert main(["run", cfg]) == 0
    assert sorted(os.listdir("/proc/self/fd")) == before
