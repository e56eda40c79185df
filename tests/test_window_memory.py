"""Memory per window index that does not grow with the window: a circle
stage holds (a_n, b_n) over its map's shared geometry instead of a (2, N)
weight array, the rates report holds its records as array columns
instead of one tuple of Python numbers per record, and the rates replay
fits each index's slope from that index's history alone.  Sizes are
tracemalloc's traced bytes, which count numpy's buffers and Python objects
alike."""
import gc
import tracemalloc

import nsrpf as nr
from nsrpf.hypotheses import RateConstants
from nsrpf.systems import CircleMapSpec, build_circle_chain


def _traced(build):
    """The bytes traced while the result of ``build()`` is alive, the peak
    bytes traced while it was built, and the result."""
    gc.collect()
    tracemalloc.start()
    try:
        kept = build()
        return (*tracemalloc.get_traced_memory(), kept)
    finally:
        tracemalloc.stop()


def test_a_circle_stage_holds_under_a_kilobyte():
    # a (2, 1024) float64 weight array alone is 16 KB per stage
    def chain(w):
        return lambda: build_circle_chain(CircleMapSpec.make(N=1024, window=(0, w)))

    chain(8)()   # the grid's and the imports' one-time allocations
    short, _, _ = _traced(chain(64))
    long, _, _ = _traced(chain(512))
    assert (long - short) / (512 - 64) < 1024


def test_a_rates_report_keeps_about_48_bytes_per_record():
    # five 8-byte columns per record, plus the per-index slopes
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-40, 40)))
    fwd = nr.solve_forward(seq, tol=1e-12, tau=2, block_factor=0.2)
    bwd = nr.solve_backward(fwd)
    rc = RateConstants.from_delta(1.0, 2)
    nr.verify_exponential_rates(fwd, bwd, rc)   # warm
    size, _, report = _traced(lambda: nr.verify_exponential_rates(fwd, bwd, rc))
    assert len(report.rows) > 1000
    assert size / len(report.rows) <= 48


def test_the_rates_replay_needs_under_64_bytes_per_record_beyond_its_report():
    # per-index slope fits over at most a few dozen depths each, instead of
    # one regression over every record of the window (180 bytes per record)
    seq = build_circle_chain(CircleMapSpec.make(N=64, window=(-320, 320)))
    fwd = nr.solve_forward(seq, tol=1e-12, tau=2, block_factor=0.2)
    bwd = nr.solve_backward(fwd)
    rc = RateConstants.from_delta(1.0, 2)
    nr.verify_exponential_rates(fwd, bwd, rc)   # warm
    size, peak, report = _traced(lambda: nr.verify_exponential_rates(fwd, bwd, rc))
    assert len(report.rows) > 20000
    assert (peak - size) / len(report.rows) < 64
