#!/usr/bin/env python3
"""SHA-256 digests of the CLI artifacts of the shipped and test configs.

    python3 scripts/artifact_digests.py OUTDIR

Runs ``nsrpf run`` on every config in configs/ and tests/data/ and
``nsrpf oracle configs/matrix_random.ini`` with the package imported from
this checkout's src/.  Each command writes into its own directory under
OUTDIR (which must be empty or absent), named after the config, or
``oracle-<config>`` for the oracle, and its standard output is kept there as
``stdout.txt``.  Prints one sorted ``sha256  dir/file`` line per file, so
two checkouts produce byte-identical artifacts exactly when ``diff`` of
their outputs is empty.  Exits nonzero when any command does.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _nsrpf(cmd: str, config: pathlib.Path, out: pathlib.Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, NSRPF_OUTDIR=str(out), PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "nsrpf.cli", cmd, str(config)],
                          env=env, stdout=subprocess.PIPE, check=False)
    (out / "stdout.txt").write_bytes(proc.stdout)
    if proc.returncode:
        print(f"nsrpf {cmd} {config.name} exited {proc.returncode}", file=sys.stderr)
    return proc.returncode


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = pathlib.Path(argv[0]).resolve()
    if outdir.exists() and any(outdir.iterdir()):
        print(f"{outdir} is not empty", file=sys.stderr)
        return 2
    configs = (sorted((ROOT / "configs").glob("*.ini"))
               + sorted((ROOT / "tests" / "data").glob("*.ini")))
    failed = 0
    for config in configs:
        failed |= _nsrpf("run", config, outdir / config.stem)
    matrix = ROOT / "configs" / "matrix_random.ini"
    failed |= _nsrpf("oracle", matrix, outdir / f"oracle-{matrix.stem}")
    names = sorted(p.relative_to(outdir).as_posix()
                   for p in outdir.rglob("*") if p.is_file())
    for name in names:
        print(f"{hashlib.sha256((outdir / name).read_bytes()).hexdigest()}  {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
