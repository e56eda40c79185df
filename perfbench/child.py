"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

    python3 perfbench/child.py setup PLAN STATUS
    python3 perfbench/child.py run PLAN STATUS
    python3 perfbench/child.py trace PLAN STATUS

PLAN is a JSON list of steps ``{"cmd": "run" | "oracle", "config": path,
"outdir": path}``.  ``run`` calls ``nsrpf.cli.main`` once per step, exactly
as ``python3 -m nsrpf.cli <cmd> <config>`` with ``NSRPF_OUTDIR=<outdir>``
would, and writes the exit codes to STATUS.  ``trace`` does the same with
every layer-boundary call wrapped in a timing span.  ``setup`` times what a
user pays before any solving: importing the package, parsing every config
and building every chain once.

In ``setup`` and ``run`` a speed probe (``SpeedProbe``) samples how fast the
host runs this process while it works; ``run.py`` scales the timings by it.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import signal
import sys
import time

# Functions that nsrpf.cli, nsrpf.hypotheses and nsrpf.rpf import from the
# other modules, mapped to the metric stem their spans are reported under.
# Every such function is wrapped, named here or not, so that each layer's
# self time is complete; private names (leading underscore) and the spaces
# module are left alone because their calls are too small and too frequent
# to time without distorting the run.
STEMS = {
    "build_circle_chain": "build_chain", "build_matrix_chain": "build_chain",
    "oracle_rpf_chain": "oracle",
    "certify_map_hypotheses": "certify_map", "certify_cone_conditions": "certify_cone",
    "theta_log_holder": "theta", "hilbert_gap_log_holder": "gap",
    "in_log_holder_cone": "member", "pair_set": "pair_set",
    "compose_L": "compose", "compose_L_dual": "compose",
    "apply_L": "apply", "apply_L_dual": "apply",
    "solve_forward": "solve_forward", "solve_backward": "solve_backward",
    "verify_eigen_relations": "verify_eigen", "verify_exponential_rates": "verify_rates",
    "verify_independence": "verify_independence", "verify_uniqueness": "verify_uniqueness",
    "verify_cone_contraction": "verify_cone_contraction",
    "build_invariant_chain": "invariant_chain",
    "pairing_vector": "pairing", "weak_dictionary": "build", "cone_dictionary": "build",
}
CALL_SITES = ("nsrpf.cli", "nsrpf.hypotheses", "nsrpf.rpf")


PROBE_PERIOD_S = 0.05


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def value(self):
        return self.a * 2 + self.b


_WORDS = [str(i * 7919 % 1000) for i in range(200)]


def probe_kernel() -> int:
    """A fixed piece of interpreter work: dict updates, a sort, object
    creation, method calls and string formatting (about 0.3 ms)."""
    counts = {}
    for w in _WORDS:
        counts[w] = counts.get(w, 0) + len(w)
    ranked = sorted((v, k) for k, v in counts.items())
    items = [_Item(v, len(k)) for v, k in ranked[:100]]
    total = sum(item.value() for item in items)
    return len("{} {}".format(total, len(ranked)).split())


class SpeedProbe:
    """Times ``probe_kernel`` every PROBE_PERIOD_S of wall time.

    The shared host this benchmark was written on changes the speed of one
    vCPU by up to 1.7x within minutes.  The kernel's mean duration over a
    child says how fast the host ran that child: in repetition-by-repetition
    tests the log of a repetition's wall time and the log of the kernel's
    mean time correlated at 0.97, with slope 1.05 to 1.2, on both
    workloads, while a tight arithmetic loop or numpy kernels tracked less
    well and the same kernel in a separate process on the other vCPU did
    not track at all.  One sample costs about 0.3 ms, 0.6% of the period.
    The handler runs between bytecodes, so a long numpy call delays a sample
    but does not bias it.  ``probe_wall_s`` is the sample's wall time and
    ``probe_cpu_s`` its thread CPU time, which leaves out time spent
    waiting for the GIL or for the hypervisor.
    """

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.n = 0

    def sample(self, *_):
        w0, c0 = time.perf_counter(), time.thread_time()
        probe_kernel()
        self.wall += time.perf_counter() - w0
        self.cpu += time.thread_time() - c0
        self.n += 1

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self.n == 0:
            self.sample()
        return {"probe_wall_s": self.wall / self.n, "probe_cpu_s": self.cpu / self.n,
                "probe_samples": self.n}


class Tracer:
    """Aggregates spans in memory: total and self time per stem and per layer.

    A span's self time is its duration minus the durations of the spans it
    directly caused.
    """

    def __init__(self):
        self.stack = []            # child time accumulated by each open span
        self.total = {}            # "layer.stem" -> seconds
        self.self_time = {}        # "layer.stem" -> seconds
        self.calls = {}            # "layer.stem" -> count
        self.layer_self = {}       # layer -> seconds
        self.top_level = 0.0       # time inside outermost spans
        self.counts = {"hypotheses.cone_samples": 0, "cones.pairs": 0,
                       "cones.pair_set_points": 0, "rpf.forward_kstar_max": 0,
                       "rpf.backward_kstar_max": 0}

    def wrap(self, fn, layer: str):
        key = f"{layer}.{STEMS.get(fn.__name__, fn.__name__)}"
        observe = OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                own = dur - self.stack.pop()
                self.total[key] = self.total.get(key, 0.0) + dur
                self.self_time[key] = self.self_time.get(key, 0.0) + own
                self.calls[key] = self.calls.get(key, 0) + 1
                self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own
                if self.stack:
                    self.stack[-1] += dur
                else:
                    self.top_level += dur
            if observe is not None:
                observe(self.counts, result)
            return result

        return traced

    def install(self):
        """Wrap the layer-boundary names in the modules that call across layers."""
        import nsrpf.cli
        import nsrpf.cones
        for site in CALL_SITES:
            mod = sys.modules[site]
            for name, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__.startswith("nsrpf.")
                        and obj.__module__ != site
                        and obj.__module__ != "nsrpf.spaces"):
                    setattr(mod, name, self.wrap(obj, obj.__module__.split(".")[1]))
        # pair_set is called only inside cones; it is wrapped there because
        # building the pair set is the cost a generating-set reduction removes
        nsrpf.cones.pair_set = self.wrap(nsrpf.cones.pair_set, "cones")
        return nsrpf.cli


def _observe_samples(counts, cert):
    counts["hypotheses.cone_samples"] += cert.n_samples


def _observe_pairs(counts, ps):
    if len(ps) > counts["cones.pairs"]:
        counts["cones.pairs"] = len(ps)
        counts["cones.pair_set_points"] = ps.space.n_points


def _kstar_observer(key):
    def observe(counts, sol):
        counts[key] = max([counts[key], *sol.k_star.values()])
    return observe


OBSERVERS = {
    "certify_cone_conditions": _observe_samples,
    "pair_set": _observe_pairs,
    "solve_forward": _kstar_observer("rpf.forward_kstar_max"),
    "solve_backward": _kstar_observer("rpf.backward_kstar_max"),
}


def _run_steps(cli, steps) -> list[int]:
    codes = []
    for step in steps:
        os.environ["NSRPF_OUTDIR"] = step["outdir"]
        try:
            codes.append(int(cli.main([step["cmd"], step["config"]])))
        except Exception as exc:   # a crash fails this step's operations only
            print(f"step {step['cmd']} {step['config']} raised {exc!r}", file=sys.stderr)
            codes.append(-1)
    return codes


def main(argv) -> int:
    mode, plan_path, status_path = argv
    with open(plan_path) as fh:
        steps = json.load(fh)
    probe = SpeedProbe()
    if mode != "trace":
        probe.start()
    if mode == "setup":
        t0 = time.perf_counter()
        import nsrpf
        from nsrpf.cli import parse_config
        from nsrpf.systems import build_circle_chain, build_matrix_chain
        for config in dict.fromkeys(s["config"] for s in steps):
            cfg = parse_config(config)
            build = build_circle_chain if cfg.kind == "circle" else build_matrix_chain
            build(cfg.system)
        status = {"setup_s": time.perf_counter() - t0,
                  "package": os.path.dirname(os.path.abspath(nsrpf.__file__))}
    elif mode == "run":
        import nsrpf.cli as cli
        with contextlib.redirect_stdout(sys.stderr):
            status = {"codes": _run_steps(cli, steps)}
    elif mode == "trace":
        tracer = Tracer()
        cli = tracer.install()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            codes = _run_steps(cli, steps)
        status = {"codes": codes, "traced_total_s": time.perf_counter() - t0,
                  "top_level_s": tracer.top_level, "total": tracer.total,
                  "self": tracer.self_time, "calls": tracer.calls,
                  "layer_self": tracer.layer_self, "counts": tracer.counts}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if mode != "trace":
        status.update(probe.stop())
    with open(status_path, "w") as fh:
        json.dump(status, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
