"""CI gate: the disabled span AND metrics paths must stay effectively free.

Three assertions, run in bench-smoke:

1. **Micro overhead.**  With spans disabled, one ``Tracer.add`` call
   pays a single ``is not None`` test over the pre-span implementation
   (the histogram hook adds one more).  We time a batch of bare
   ``add(kernel, seconds)`` charges — the estimator's path — and a
   batch that carries a cost-model record's flops / bytes, and require
   the per-call cost of both to stay under an absolute bound generous
   enough for any CI host but far below anything a regression (e.g.
   unconditional span allocation) would produce.

2. **Bit identity (spans).**  Recording spans must not change what is
   charged: the same solve with spans off and spans on must produce
   byte-identical accumulator documents (``Tracer.to_dict``), so the
   pinned modeled numbers (``tests/krylov/test_restart_golden.py``,
   ``BENCHMARK.json``'s 1e-12 bounds) hold whether or not spans record.

3. **Bit identity (metrics).**  A metrics registry must be
   charge-identical and modeled-cost-identical too: every charge
   carries its flops / bytes either way, and the registry only adds
   duration histograms and a snapshot derived from the tracer's totals.
   Asserted the same way, plus a sanity check that the enabled
   registry's snapshot is not empty.

Run as ``PYTHONPATH=src python scripts/span_overhead_check.py``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.tracing import Tracer

#: Absolute per-call budget for a spans-disabled charge.  A plain
#: accumulator update is ~1 us even on slow CI hosts; tripping 10 us
#: means the disabled path started doing real work.
MAX_DISABLED_US_PER_CALL = 10.0

CALLS = 100_000
ROUNDS = 5


def _time_adds(tracer: Tracer, calls: int, record: bool = False) -> float:
    t0 = time.perf_counter()
    if record:
        for _ in range(calls):
            tracer.add("dot", 1.0e-9, flops=64.0, mem_bytes=512.0)
    else:
        for _ in range(calls):
            tracer.add("dot", 1.0e-9)
    return time.perf_counter() - t0


def micro_overhead() -> tuple[float, float, float]:
    """Median per-call microseconds of a bare charge with spans disabled,
    of one carrying flops / bytes (spans disabled), and of a bare charge
    with spans enabled."""
    bare, record, enabled = [], [], []
    for _ in range(ROUNDS):
        bare.append(_time_adds(Tracer(), CALLS))
        record.append(_time_adds(Tracer(), CALLS, record=True))
        on = Tracer()
        on.enable_spans()
        enabled.append(_time_adds(on, CALLS))
    to_us = 1.0e6 / CALLS
    return tuple(float(np.median(x)) * to_us
                 for x in (bare, record, enabled))


def solve_doc(spans: bool = False, metrics: bool = False) -> tuple[dict, dict]:
    """(accumulator document, metrics document) of a fixed small solve."""
    sim = Simulation(laplace2d(16), ranks=4, spans=spans, metrics=metrics)
    b = np.ones(sim.n)
    sstep_gmres(sim, b, s=3, restart=9, tol=1.0e-8, maxiter=200,
                scheme=TwoStageScheme(9))
    # accumulators only, never the spans
    return sim.tracer.to_dict(), sim.metrics_doc()


def main() -> int:
    off_us, record_us, on_us = micro_overhead()
    print(f"spans disabled: bare add {off_us:.3f} us/charge   "
          f"with flops/bytes {record_us:.3f} us/charge   "
          f"spans enabled: {on_us:.3f} us/charge   "
          f"(bound {MAX_DISABLED_US_PER_CALL} us)")
    if max(off_us, record_us) > MAX_DISABLED_US_PER_CALL:
        print("FAIL: disabled-span charge overhead above bound")
        return 1

    doc_off, _ = solve_doc(spans=False)
    doc_on, _ = solve_doc(spans=True)
    if doc_off != doc_on:
        print("FAIL: enabling spans changed the charged accumulators")
        return 1
    print(f"accumulators bit-identical with spans on/off "
          f"(clock {doc_off['clock']!r} s)")

    doc_metrics, metrics = solve_doc(metrics=True)
    if doc_off != doc_metrics:
        print("FAIL: enabling metrics changed the charged accumulators")
        return 1
    if not metrics or not metrics["kernels"]:
        print("FAIL: enabled metrics registry stayed empty")
        return 1
    if metrics["totals"]["flops"] <= 0.0:
        print("FAIL: metrics registry recorded no flops")
        return 1
    print(f"accumulators bit-identical with metrics on/off "
          f"({len(metrics['kernels'])} kernel rows, "
          f"{metrics['totals']['flops']:.3e} flops recorded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
