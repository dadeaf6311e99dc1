"""CI gate: the disabled span path must stay effectively free, and
recording spans (which is all that metrics do) must not change a charge.

Four assertions, run in bench-smoke:

1. **Micro overhead.**  With spans disabled, one ``Tracer.add`` call
   pays a single ``is not None`` test over the pre-span implementation.
   We time a batch of bare ``add(kernel, seconds)`` charges — the
   smallest record a charge can carry — and a batch that carries a
   cost-model record's flops / bytes, and require the per-call cost of
   both to stay under an absolute bound generous enough for any CI host
   but far below anything a regression (e.g. unconditional span
   allocation) would produce.  A charge on the tracer of a
   ``spans=True`` and of a ``metrics=True`` simulation takes the same
   path (one span appended) and is held to one recording bound.  The
   paper-scale estimator's path is ``Tracer.fold`` of a whole restart
   cycle: its spans-off cost per charge has an absolute bound of its own.

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

4. **Bit identity (estimator fold).**  Every configuration's estimator
   cycle folded onto a spans-on tracer has the accumulator document of
   the spans-off cycle, and one span per charge.

Run as ``PYTHONPATH=src python scripts/span_overhead_check.py``.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.experiments import estimator
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.export import export_jsonl, load_spans
from repro.obs.metrics import MetricsSnapshot
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import summit
from repro.parallel.tracing import Tracer

#: Absolute per-call budget for a spans-disabled charge.  A plain
#: accumulator update is ~1 us even on slow CI hosts; tripping 10 us
#: means the disabled path started doing real work.
MAX_DISABLED_US_PER_CALL = 10.0
#: Absolute per-call budget for a charge that records its span (spans or
#: metrics on): one small object more than the disabled path.
MAX_RECORDING_US_PER_CALL = 20.0
#: Absolute per-charge budget of a spans-off ``Tracer.fold`` of the
#: longest estimator cycle (standard GMRES at m = 60, 730 charges).  The
#: array fold takes 0.04-0.07 us a charge on a 2-core x86 box; a per-charge
#: Python loop took ~0.7 us there, and a span per charge 0.5-1.4 us more.
MAX_FOLD_US_PER_CHARGE = 0.5
FOLDS = 200

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


def _estimator() -> estimator.CycleCostEstimator:
    """The Table III point at 32 Summit nodes."""
    return estimator.CycleCostEstimator(
        summit(), 192, estimator.ProblemShape.stencil2d(2000, 9), m=60, s=5)


def _fold_args(est: estimator.CycleCostEstimator, config: str) -> tuple:
    """What ``est.cycle(config)`` hands ``Tracer.fold``."""
    plan = est.plan(config)
    return (plan.keys, plan.rows,
            estimator.price_cells([est], [(plan, [0])])[0][0], plan.counts)


def fold_overhead() -> float:
    """Median per-charge microseconds of a spans-off fold of the standard
    GMRES cycle onto a fresh tracer."""
    args = _fold_args(_estimator(), "gmres")
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(FOLDS):
            Tracer().fold(*args)
        rounds.append(time.perf_counter() - t0)
    return float(np.median(rounds)) * 1.0e6 / (FOLDS * len(args[1]))


def fold_with_spans_changes_nothing() -> str | None:
    """The failure message of the estimator leg, or ``None``."""
    est = _estimator()
    for config in estimator.CONFIGS:
        args = _fold_args(est, config)
        folded = Tracer()
        folded.enable_spans()
        folded.fold(*args)
        if folded.to_dict() != est.cycle(config).to_dict():
            return f"FAIL: a spans-on fold changed the {config} cycle"
        if len(folded.spans) != len(args[1]):
            return f"FAIL: the {config} fold recorded not one span per charge"
    return None


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
    fold_us = fold_overhead()
    print(f"estimator fold, spans disabled: {fold_us:.3f} us/charge   "
          f"(bound {MAX_FOLD_US_PER_CHARGE} us)")
    if fold_us > MAX_FOLD_US_PER_CHARGE:
        print("FAIL: spans-off fold overhead above bound")
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

    failure = fold_with_spans_changes_nothing()
    if failure:
        print(failure)
        return 1
    print(f"estimator cycles bit-identical folded with spans on/off "
          f"({len(estimator.CONFIGS)} configurations, one span per charge)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
