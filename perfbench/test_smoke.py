"""Smoke test of the benchmark harness on tiny inputs (about 15 s).

    python3 -m pytest perfbench/test_smoke.py -q

The ``smoke`` workload is one N = 64 circle chain and two matrix chains.
"""
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(trace: int) -> tuple[list, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "smoke",
                           "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(lines, result, specs):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        # the human-readable table names the metric and its unit too
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("fail_ratio 0 ") for line in lines)


def test_end_to_end_metrics_printed_with_units():
    lines, result = _bench(0)
    _assert_metrics(lines, result, SPEC["end_to_end"])
    assert result["metrics"]["run_s"]["value"] > 0.0


def test_per_layer_metrics_printed_with_units():
    lines, result = _bench(1)
    _assert_metrics(lines, result, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["cones.pairs"]["value"] == run.circle_pairs(64)
    assert metrics["hypotheses.cone_samples"]["value"] > 0
    assert metrics["dictionaries.pairing_calls"]["value"] > 0


def test_injected_fail_line_raises_fail_ratio(tmp_path):
    steps, _ = run.smoke(0, tmp_path)
    session = run.Session(steps, tmp_path)
    status, _, _, _ = session.spawn("run")
    attempted, failed, _ = session.score(status)
    assert attempted == 3 * 6 + 2 and failed == 0

    report = tmp_path / "out" / steps[0].outdir / "report.txt"
    text = report.read_text()
    report.write_text(text.replace("PASS rates:", "FAIL rates:"))
    assert session.score(status)[:2] == (attempted, 1)

    # a nonzero exit fails every operation of that step
    status["codes"][1] = 1
    assert session.score(status)[:2] == (attempted, 1 + len(steps[1].ops))
