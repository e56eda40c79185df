import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "layer_rss.py"


def test_layer_rss_prints_every_layer_of_a_matrix_run(tmp_path):
    env = dict(os.environ, NSRPF_OUTDIR=str(tmp_path / "out"))
    proc = subprocess.run([sys.executable, str(SCRIPT), str(ROOT / "configs" / "matrix_random.ini")],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["layer", "before_MB", "after_MB", "wall_s"]
    rows = [line.split() for line in lines[1:]]
    layers = [r[0] for r in rows]
    assert layers == ["import", "parse_config", "build_matrix_chain", "certify_cone_conditions",
                      "solve_forward", "solve_backward", "verify_eigen_relations",
                      "verify_exponential_rates", "verify_independence", "verify_uniqueness",
                      "verify_cone_contraction", "build_invariant_chain", "export", "run"]
    # import and run print no "before"
    assert [len(r) for r in rows] == [3] + [4] * (len(rows) - 2) + [3]
    peaks = [float(x) for r in rows for x in r[1:-1]]
    assert peaks == sorted(peaks) and peaks[0] > 0.0   # a high-water mark never falls
    walls = [float(r[-1]) for r in rows]
    assert all(w >= 0.0 for w in walls) and walls[-1] >= sum(walls[2:-1])
    assert (tmp_path / "out" / "report.txt").read_text().count("PASS") == 6
