#!/usr/bin/env python3
"""Record the artifact digests that ``run.py`` compares each run against.

    python3 perfbench/record_digests.py SEED [SEED ...]

Runs every workload once per seed (``circle_perturbed`` once, since its
inputs do not depend on the seed), refuses to record a run with a failed
check, and rewrites ``perfbench/digests.json``.  Rerun it in the change that
alters an artifact on purpose, and name the changed files in that change.
"""
import json
import shutil
import sys

import run


def record(workload: str, seed: int) -> dict:
    work = run.WORK / f"record-{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        steps, _ = run.WORKLOADS[workload](seed, work)
        session = run.Session(steps, work)
        status = session.spawn("run")[0]
        attempted, failed, notes = session.score(status)
        if failed:
            raise SystemExit(f"{workload} seed {seed}: {failed} of {attempted} "
                             f"operations failed: {notes}")
        return session.artifacts()
    finally:
        run.remove_work(work)


def main(seeds: list) -> int:
    table = {"circle_perturbed": {"any": record("circle_perturbed", 0)}}
    for workload in ("circle_holder", "matrix_suite"):
        table[workload] = {str(s): record(workload, s) for s in seeds}
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
