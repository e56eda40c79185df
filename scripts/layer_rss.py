#!/usr/bin/env python3
"""Peak resident memory and wall time of each layer of one ``nsrpf run``.

    python3 scripts/layer_rss.py CONFIG

Parses CONFIG with ``nsrpf.cli.parse_config`` and runs ``nsrpf.cli.cmd_run``
on it in this process, with the package imported from this checkout's src/.
The parse and every function that ``nsrpf.cli`` imports from another module
of the package (the chain builders, the certificates, the solvers and the
verifiers) are wrapped, as perfbench's tracer wraps them, and so is the
artifact export ``nsrpf.cli._write_run_artifacts`` (the ``export`` line).
Each wrapped call prints the process's ``ru_maxrss`` in MB (KB / 1024, as
perfbench reports ``peak_rss_mb``) before and after the call and the call's
wall seconds, one line per call in call order.  The first line is the peak after
importing the package and the import's wall seconds, and the last the peak
after the run, artifacts written, and the run's wall seconds from the end
of the parse.  Since ``ru_maxrss`` is a high-water mark, an "after" above
its "before" is what that layer added to the peak.  Wall seconds include
the wrapper's own ``getrusage`` calls.  Artifacts go where ``nsrpf run``
would put them (``NSRPF_OUTDIR`` overrides the config); the run's report
lines go to standard error.  Exits with the run's exit code.
"""
import contextlib
import functools
import inspect
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_T_IMPORT = time.perf_counter()
import nsrpf.cli as cli  # noqa: E402
_IMPORT_S = time.perf_counter() - _T_IMPORT


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _wrap(fn, out, name=None):
    name = name or fn.__name__

    @functools.wraps(fn)
    def probed(*args, **kwargs):
        before = _peak_mb()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        print(f"{name:32s} {before:9.1f} {_peak_mb():9.1f} {wall:9.4f}", file=out)
        return result
    return probed


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'layer':32s} {'before_MB':>9s} {'after_MB':>9s} {'wall_s':>9s}")
    print(f"{'import':32s} {'':9s} {_peak_mb():9.1f} {_IMPORT_S:9.4f}")
    for name, obj in list(vars(cli).items()):
        if (inspect.isfunction(obj) and obj.__module__.startswith("nsrpf.")
                and obj.__module__ != cli.__name__):
            setattr(cli, name, _wrap(obj, sys.stdout))
    cli._write_run_artifacts = _wrap(cli._write_run_artifacts, sys.stdout, "export")
    cfg = _wrap(cli.parse_config, sys.stdout)(argv[0])
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.cmd_run(cfg)
    print(f"{'run':32s} {'':9s} {_peak_mb():9.1f} {time.perf_counter() - t0:9.4f}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
