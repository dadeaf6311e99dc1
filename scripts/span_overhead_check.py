"""CI gate: the disabled span path must stay effectively free, and
recording spans (which is all that metrics do) must not change a charge.

Three assertions, run in bench-smoke:

1. **Micro overhead.**  With spans disabled, one ``Tracer.add`` call
   pays a single ``is not None`` test over the pre-span implementation.
   We time a batch of bare ``add(kernel, seconds)`` charges — the
   estimator's path — and a batch that carries a cost-model record's
   flops / bytes, and require the per-call cost of both to stay under an
   absolute bound generous enough for any CI host but far below anything
   a regression (e.g. unconditional span allocation) would produce.  A
   charge on the tracer of a ``spans=True`` and of a ``metrics=True``
   simulation takes the same path (one span appended) and is held to one
   recording bound.

2. **Bit identity (spans).**  Recording spans must not change what is
   charged: the same solve with spans off and spans on must produce
   byte-identical accumulator documents (``Tracer.to_dict``), so the
   pinned modeled numbers (``tests/krylov/test_restart_golden.py``,
   ``BENCHMARK.json``'s 1e-12 bounds) hold whether or not spans record.

3. **Bit identity (metrics).**  Metrics must be charge-identical and
   modeled-cost-identical too: every charge carries its flops / bytes
   either way, and the metrics snapshot is derived from the tracer's
   totals and span stream.  Asserted the same way, plus a sanity check
   that the snapshot is not empty and that its duration histograms equal
   the ones rebuilt from the solve's own JSONL export.

Run as ``PYTHONPATH=src python scripts/span_overhead_check.py``.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.export import export_jsonl, load_spans
from repro.obs.metrics import MetricsSnapshot
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.tracing import Tracer

#: Absolute per-call budget for a spans-disabled charge.  A plain
#: accumulator update is ~1 us even on slow CI hosts; tripping 10 us
#: means the disabled path started doing real work.
MAX_DISABLED_US_PER_CALL = 10.0
#: Absolute per-call budget for a charge that records its span (spans or
#: metrics on): one small object more than the disabled path.
MAX_RECORDING_US_PER_CALL = 20.0

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


def _sim_tracer(**flags) -> Tracer:
    return Simulation(laplace2d(4), ranks=1, **flags).tracer


def micro_overhead() -> tuple[float, float, float, float]:
    """Median per-call microseconds of a bare charge with spans disabled,
    of one carrying flops / bytes (spans disabled), and of a bare charge
    on a ``spans=True`` and on a ``metrics=True`` simulation's tracer."""
    bare, record, spans, metrics = [], [], [], []
    for _ in range(ROUNDS):
        bare.append(_time_adds(Tracer(), CALLS))
        record.append(_time_adds(Tracer(), CALLS, record=True))
        spans.append(_time_adds(_sim_tracer(spans=True), CALLS))
        metrics.append(_time_adds(_sim_tracer(metrics=True), CALLS))
    to_us = 1.0e6 / CALLS
    return tuple(float(np.median(x)) * to_us
                 for x in (bare, record, spans, metrics))


def solve(spans: bool = False, metrics: bool = False) -> Simulation:
    """A fixed small solve on a fresh simulation."""
    sim = Simulation(laplace2d(16), ranks=4, spans=spans, metrics=metrics)
    b = np.ones(sim.n)
    sstep_gmres(sim, b, s=3, restart=9, tol=1.0e-8, maxiter=200,
                scheme=TwoStageScheme(9))
    return sim


def exported_histograms(sim: Simulation) -> dict:
    """The histograms of the snapshot rebuilt from ``sim``'s JSONL
    export."""
    with tempfile.TemporaryDirectory() as tmp:
        spans = load_spans(export_jsonl(Path(tmp) / "trace.jsonl",
                                        sim.tracer))
    return MetricsSnapshot.of(Tracer().replay(spans), spans, sim.machine,
                              sim.ranks).histograms


def main() -> int:
    off_us, record_us, spans_us, metrics_us = micro_overhead()
    print(f"spans disabled: bare add {off_us:.3f} us/charge   "
          f"with flops/bytes {record_us:.3f} us/charge   "
          f"(bound {MAX_DISABLED_US_PER_CALL} us)")
    print(f"recording: spans on {spans_us:.3f} us/charge   "
          f"metrics on {metrics_us:.3f} us/charge   "
          f"(bound {MAX_RECORDING_US_PER_CALL} us)")
    if max(off_us, record_us) > MAX_DISABLED_US_PER_CALL:
        print("FAIL: disabled-span charge overhead above bound")
        return 1
    if max(spans_us, metrics_us) > MAX_RECORDING_US_PER_CALL:
        print("FAIL: recording charge overhead above bound")
        return 1

    # accumulators only, never the spans
    doc_off = solve().tracer.to_dict()
    doc_on = solve(spans=True).tracer.to_dict()
    if doc_off != doc_on:
        print("FAIL: enabling spans changed the charged accumulators")
        return 1
    print(f"accumulators bit-identical with spans on/off "
          f"(clock {doc_off['clock']!r} s)")

    sim = solve(metrics=True)
    metrics = sim.metrics_doc()
    if doc_off != sim.tracer.to_dict():
        print("FAIL: enabling metrics changed the charged accumulators")
        return 1
    if not metrics or not metrics["kernels"]:
        print("FAIL: enabled metrics snapshot stayed empty")
        return 1
    if metrics["totals"]["flops"] <= 0.0:
        print("FAIL: metrics snapshot recorded no flops")
        return 1
    if metrics["histograms"] != exported_histograms(sim):
        print("FAIL: the live histograms differ from the exported trace's")
        return 1
    print(f"accumulators bit-identical with metrics on/off "
          f"({len(metrics['kernels'])} kernel rows, "
          f"{metrics['totals']['flops']:.3e} flops recorded, histograms "
          f"equal to the JSONL export's)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
