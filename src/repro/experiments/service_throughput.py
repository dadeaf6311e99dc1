"""Service throughput: solves/sec vs batch width through the SolveQueue.

The multi-RHS block solver (:func:`repro.krylov.block.block_sstep_gmres`)
amortizes each cycle's collective latency across every solve in flight:
a width-``w`` batch pays ONE allreduce/halo launch per barrier while the
payload grows ``w``-fold.  This experiment drives that claim end to end
through the service front end (:class:`repro.service.SolveQueue`): a
fixed backlog of ``N`` identical-workload solve requests is dispatched
at batch widths 1..``N`` on two machines — stock Summit and the
latency-dominated ``summit_lat16x`` regime from
:mod:`repro.experiments.ca_mpk_tradeoff` — and the modeled throughput
(solves per modeled second) is recorded per ``(machine, width)``.

Per-dispatch cost follows the affine model ``T(w) = F + w·V`` — ``F``
the width-independent collective/launch latency, ``V`` the per-member
compute and wire volume.  The sweep fits ``(F, V)`` by least squares
and reports the predicted *knee* ``w* = F / V``, the width where the
variable term catches the amortized fixed term and widening stops
paying.  In-run assertions (failing the artifact, not just a test):

* per-dispatch collective *counts* are identical at every width
  (latency amortization is real, not rescheduled);
* total collective payload *bytes* for the backlog are width-invariant
  (fusion concatenates messages, it does not shrink or inflate them);
* every request's solution is bit-identical at every width (batching
  changes when work runs, never what it computes);
* solves/sec improves strictly monotonically in width up to the
  predicted knee (all swept widths sit far below it);
* on ``summit_lat16x``, width-``N`` throughput is >= 3x width-1 — the
  CI-gated service speedup.

Emits ``BENCH_service.json`` (standard
:class:`~repro.bench.artifacts.BenchArtifact` schema, modeled seconds).
The ``--quick`` variant shrinks the grid and is asserted in
``tests/experiments/test_service_throughput.py``.
"""

from __future__ import annotations

import numpy as np

from repro.bench.artifacts import BenchArtifact, BenchRecord
from repro.experiments.ca_mpk_tradeoff import _summit_lat
from repro.experiments.common import ExperimentTable, fmt
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import summit
from repro.service import SolveQueue

#: Batch widths swept; the largest is also the backlog size ``N``.
WIDTHS = (1, 2, 4, 8)

#: Machines: stock Summit and the congested 16x-latency regime the
#: CI speedup gate targets.
MACHINES = (
    ("summit", summit),
    ("summit_lat16x", lambda: _summit_lat(16.0)),
)


def _backlog(n: int, count: int, seed: int = 0) -> list[np.ndarray]:
    """Deterministic request RHS vectors (unit norm, shared across widths)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        b = rng.standard_normal(n)
        out.append(b / np.linalg.norm(b))
    return out


def run_width(machine_factory, width: int, backlog: list[np.ndarray], *,
              nx: int, ranks: int, s: int, restart: int) -> dict:
    """Dispatch the whole backlog at one batch width; return stats.

    Every request runs exactly one restart cycle (``tol`` unreachable,
    ``maxiter = restart``), so each ``(machine, width)`` cell is the
    same deterministic workload and throughput differences are purely
    the batching.
    """
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=machine_factory())
    queue = SolveQueue(sim, max_width=width, max_wait=0.0,
                       s=s, restart=restart)
    rids = [queue.submit(b, tol=1e-30, maxiter=restart) for b in backlog]
    snap = sim.tracer.snapshot()
    queue.flush()
    elapsed = sim.tracer.since(snap).clock
    counts = sim.tracer.collective_counts(payload_bytes=True)
    results = [queue.result(r) for r in rids]
    if any(r.restarts != 1 for r in results):
        raise AssertionError("fixed-cycle run must do exactly one restart")
    return {
        "elapsed": elapsed,
        "batches": len(queue.dispatched_widths),
        "widths": tuple(queue.dispatched_widths),
        "counts": {k: v["count"] for k, v in counts.items()},
        "bytes": {k: v["bytes"] for k, v in counts.items()},
        "xs": [r.x for r in results],
    }


def run(nx: int = 16, ranks: int = 4, s: int = 5, restart: int = 20,
        widths=WIDTHS) -> ExperimentTable:
    """Sweep width x machine; the table carries ``BENCH_service.json``.

    See the module docstring for the in-run assertions.
    """
    widths = tuple(widths)
    backlog_n = max(widths)
    if any(backlog_n % w for w in widths):
        raise AssertionError(
            f"widths {widths} must divide the backlog size {backlog_n}")
    table = ExperimentTable(
        "service_throughput",
        f"solve requests batched through SolveQueue: backlog of "
        f"{backlog_n} one-cycle solves [laplace2d({nx}), p={ranks}, "
        f"s={s}, m={restart}] dispatched at width w; modeled solves/sec",
        headers=["machine", "width", "batches", "clock s", "solves/s",
                 "speedup", "allreduce/batch", "halo/batch"])
    records = []
    speedup_16x = None
    for label, factory in MACHINES:
        backlog = _backlog(nx * nx, backlog_n)
        runs = {w: run_width(factory, w, backlog, nx=nx, ranks=ranks,
                             s=s, restart=restart) for w in widths}
        base = runs[widths[0]]
        # fusion contracts: identical per-dispatch collective counts,
        # width-invariant total bytes, bit-identical per-request results
        per_batch0 = {k: base["counts"][k] // base["batches"]
                      for k in base["counts"]}
        for w in widths:
            r = runs[w]
            bad = {k: r["counts"][k] for k in r["counts"]
                   if r["counts"][k] * base["batches"]
                   != base["counts"][k] * r["batches"]}
            if bad or set(r["counts"]) != set(base["counts"]):
                raise AssertionError(
                    f"per-dispatch collective counts changed with width on "
                    f"{label}: w={w} gives {r['counts']} over "
                    f"{r['batches']} batches, expected {per_batch0} per "
                    f"batch")
            if r["bytes"] != base["bytes"]:
                raise AssertionError(
                    f"total collective bytes changed with width on "
                    f"{label}: w={w} gives {r['bytes']}, expected "
                    f"{base['bytes']}")
            for j, (x, x0) in enumerate(zip(r["xs"], base["xs"])):
                if not np.array_equal(x, x0):
                    raise AssertionError(
                        f"request {j} result diverged at width {w} on "
                        f"{label} — batching must not change values")
        # affine per-dispatch cost T(w) = F + w V, knee at F/V
        ws = np.array(widths, dtype=float)
        t = np.array([runs[w]["elapsed"] / runs[w]["batches"]
                      for w in widths])
        vf, f = np.polyfit(ws, t, 1)
        knee = f / vf if vf > 0 else float("inf")
        if knee <= max(widths):
            raise AssertionError(
                f"predicted knee {knee:.1f} inside the swept widths on "
                f"{label}; the monotonicity contract needs widths below it")
        rates = {w: backlog_n / runs[w]["elapsed"] for w in widths}
        for prev, cur in zip(widths, widths[1:]):
            if not rates[cur] > rates[prev]:
                raise AssertionError(
                    f"solves/sec must improve monotonically below the knee "
                    f"on {label}: w={cur} gives {rates[cur]:.3f} <= "
                    f"w={prev}'s {rates[prev]:.3f}")
        for w in widths:
            r = runs[w]
            speedup = rates[w] / rates[widths[0]]
            table.add_row(label, str(w), str(r["batches"]),
                          fmt(r["elapsed"]), f"{rates[w]:.1f}",
                          f"{speedup:.2f}x",
                          str(per_batch0.get("allreduce", 0)),
                          str(per_batch0.get("halo", 0)))
            records.append(BenchRecord(
                name=f"service[{label},w{w}]",
                group="service",
                mean=r["elapsed"], min=r["elapsed"], median=r["elapsed"],
                stddev=0.0, rounds=1, iterations=1,
                extra={
                    "machine": label, "width": w,
                    "backlog": backlog_n, "batches": r["batches"],
                    "nx": nx, "ranks": ranks, "s": s, "restart": restart,
                    "solves_per_sec": rates[w], "speedup": speedup,
                    "counts_per_batch": per_batch0,
                    "total_bytes": r["bytes"],
                    "knee_width": knee,
                    "fixed_seconds": float(f),
                    "variable_seconds": float(vf),
                    "bit_identical": True,
                }))
        if label == "summit_lat16x":
            speedup_16x = rates[max(widths)] / rates[widths[0]]
        table.add_note(
            f"{label}: fitted per-dispatch cost T(w) = {f:.3g} + "
            f"w x {vf:.3g} s; predicted knee at w* = F/V = {knee:.0f}")
    if speedup_16x is None or not speedup_16x >= 3.0:
        raise AssertionError(
            f"latency-dominated speedup gate: width-{max(widths)} must be "
            f">= 3x width-1 solves/sec on summit_lat16x, got "
            f"{speedup_16x}")
    table.add_note("per-dispatch collective counts are width-invariant and "
                   "total payload bytes width-invariant (asserted): the "
                   "batch fuses launches, it never reschedules or "
                   "shrinks messages")
    table.add_note("every request's solution is bit-identical at every "
                   "width (asserted): batching changes when work runs, "
                   "never what it computes")
    table.files = {
        "BENCH_service.json": BenchArtifact.fresh("service", records).to_json()}
    return table


QUICK = {"nx": 12, "ranks": 4, "s": 4, "restart": 12}
