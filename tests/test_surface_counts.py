import pathlib
import re
import subprocess
import sys

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "surface_counts.py"


def test_surface_counts_runs_on_this_checkout():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"lines nsrpf: \d+", lines[0])
    totals = [line for line in lines if line.startswith("total: ")]
    patterns = [r"\d+ functions and methods, \d+ parameters, \d+ with a default",
                r"\d+ dataclasses, \d+ fields", r"\d+ config keys", r"\d+ private imports"]
    assert len(totals) == len(patterns)
    for line, pattern in zip(totals, patterns):
        assert re.fullmatch("total: " + pattern, line), line
