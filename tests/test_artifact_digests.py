"""The CLI artifacts of the shipped configs and of data/*.ini, byte for byte.

``data/artifact_digests.txt`` is the output of ``scripts/artifact_digests.py``
under a header line naming the numpy version it was recorded with.  This
test runs the same commands through ``cli.main`` and compares the SHA-256
of every file.  A change that alters an artifact on purpose regenerates the
file (``python3 scripts/artifact_digests.py OUTDIR``, plus the header) and
names the files that changed.
"""
import contextlib
import hashlib
import io
import pathlib

import numpy as np
import pytest

from nsrpf import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDED = pathlib.Path(__file__).resolve().parent / "data" / "artifact_digests.txt"


def _run(cmd, config, out, monkeypatch):
    out.mkdir(parents=True)
    monkeypatch.setenv("NSRPF_OUTDIR", str(out))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([cmd, str(config)])
    (out / "stdout.txt").write_bytes(stdout.getvalue().encode())
    assert code == 0, f"nsrpf {cmd} {config.name} exited {code}"


def test_shipped_artifacts_match_the_recorded_digests(tmp_path, monkeypatch):
    header, *lines = RECORDED.read_text().splitlines()
    recorded_numpy = header.removeprefix("# numpy ")
    if recorded_numpy != np.__version__:
        pytest.skip(f"digests recorded with numpy {recorded_numpy}, "
                    f"running numpy {np.__version__}")
    for config in (sorted((ROOT / "configs").glob("*.ini"))
                   + sorted((ROOT / "tests" / "data").glob("*.ini"))):
        _run("run", config, tmp_path / config.stem, monkeypatch)
    matrix = ROOT / "configs" / "matrix_random.ini"
    _run("oracle", matrix, tmp_path / f"oracle-{matrix.stem}", monkeypatch)
    names = sorted(p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("*") if p.is_file())
    got = [f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}"
           for name in names]
    changed = sorted(set(lines) ^ set(got))
    assert got == lines, f"artifacts differ: {changed[:10]}"
