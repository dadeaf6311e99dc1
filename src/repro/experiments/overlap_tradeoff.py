"""Overlap windows under growing latency: how much comm stays exposed?

The nonblocking collectives (:mod:`repro.parallel.communicator`) model a
LogGP-style overlap window — compute charged between a ``post_*`` and
its ``wait`` drains the collective's modeled time, so only the
*unhidden* remainder lands on the clock.  This experiment measures the
two consumers of that window on a congested machine as per-message
latency grows:

1. **PA2 matrix powers** (``mpk_mode="ca_overlap"``): the deep-ring
   exchange is posted behind the first owned-rows SpMV.  Exposure is
   governed by the race between the ring's wire time (mostly the
   congested-bandwidth term, latency-multiplier-independent) and the
   SpMV's launch overhead (which scales with the multiplier): as every
   latency constant grows ``L``-fold, the compute window grows with it
   while the ring's bandwidth-bound cost stays put — so the exposed
   fraction of the posted exchange shrinks *strictly monotonically* in
   ``L`` (asserted).
2. **Overlapped pipelined GMRES** (``comm_overlap=True``): the
   settle-side half of each iteration's fused DCGS-2 reduction posts
   before the operator application.  The tiny reductions are
   latency-bound, the hiding window is the whole SpMV — the table
   reports how much of the posted half stays exposed per cycle.

Machine: Summit with the inter-node link congested
(``net_bandwidth_inter`` clamped low) and EVERY latency constant —
network hops, device sync, kernel launch, SpMV fixed overhead — scaled
by the multiplier ``L``.  Both variants are asserted bit-identical to
their blocking counterparts per row (overlap changes charges, never
values).

Emits ``BENCH_overlap.json`` (standard
:class:`~repro.bench.artifacts.BenchArtifact` schema, modeled seconds)
and a Perfetto/Chrome trace ``trace_overlap.json`` of the largest-``L``
PA2 run whose ``cat="post"`` markers and ``cat="comm_overlap"`` window
spans show the hidden vs exposed split visually.  The smoke-size
variant is asserted in ``tests/experiments/test_overlap_tradeoff.py``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench.artifacts import BenchArtifact, BenchRecord
from repro.experiments.common import ExperimentTable, fmt
from repro.krylov.basis import MonomialBasis
from repro.krylov.mpk import MatrixPowersKernel, PreconditionedOperator
from repro.krylov.options import SolverOptions
from repro.krylov.pipelined import pipelined_gmres
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _panel_bounds
from repro.matrices.stencil import laplace2d
from repro.obs.export import chrome_trace_doc
from repro.parallel.machine import MachineSpec, summit

#: Latency multipliers swept (full run); ``--quick`` drops the last.
LATENCY_MULTIPLIERS = (1.0, 2.0, 4.0, 8.0)

#: Congested inter-node bandwidth (bytes/s) — low enough that the
#: posted deep ring is wire-time-dominated, so part of it stays exposed
#: and the exposure trend in ``L`` is visible.
CONGESTED_BW = 2.0e6


def congested_summit(lat_mult: float,
                     bw_inter: float = CONGESTED_BW) -> MachineSpec:
    """Summit, congested inter-node link, ALL latency constants scaled.

    Scaling every per-message/per-launch constant together (network
    hops, device sync, kernel launch, SpMV fixed overhead) models a
    machine whose latency:bandwidth ratio degrades uniformly — the
    regime nonblocking collectives are aimed at.
    """
    m = summit()
    return m.with_overrides(
        name=f"summit_cong_lat{lat_mult:g}x",
        net_bandwidth_inter=bw_inter,
        net_latency_intra=m.net_latency_intra * lat_mult,
        net_latency_inter=m.net_latency_inter * lat_mult,
        device_sync_latency=m.device_sync_latency * lat_mult,
        kernel_latency=m.kernel_latency * lat_mult,
        spmv_fixed_overhead=m.spmv_fixed_overhead * lat_mult)


def _overlap_stats(tracer, snap) -> dict:
    """Exposed/hidden seconds of the posted collectives since ``snap``.

    Exposed = duration of the wait charges (the kernel spans annotated
    with ``overlapped_seconds``); hidden = the tracer's overlapped
    accumulator.  ``exposed_frac`` is exposure as a fraction of all
    posted comm — NaN-free: windows that posted nothing report 0.0.
    """
    totals = tracer.since(snap)
    exposed = sum(sp.duration for sp in tracer.spans
                  if sp.is_charge and sp.overlapped_seconds is not None)
    hidden = sum(totals.overlapped.values())
    posted = exposed + hidden
    return {
        "clock": totals.clock,
        "exposed_seconds": exposed,
        "hidden_seconds": hidden,
        "exposed_frac": exposed / posted if posted > 0.0 else 0.0,
        "totals": totals.to_dict(),
    }


def mpk_basis_run(mode: str, machine: MachineSpec, *, nx: int, ranks: int,
                  s: int, restart: int, seed: int = 0) -> dict:
    """One restart cycle of MPK panels; returns overlap + basis stats."""
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=machine,
                     spans=True)
    op = PreconditionedOperator(sim.matrix)
    mpk = MatrixPowersKernel(op, MonomialBasis(), mode=mode)
    basis = sim.zeros(restart + 1)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(sim.n)
    v0 /= np.linalg.norm(v0)
    basis.view_cols(0).assign_from(sim.vector_from(v0))
    snap = sim.tracer.snapshot()
    for lo, hi in _panel_bounds(s, restart + 1):
        mpk.extend(basis, max(lo, 1), hi)
    stats = _overlap_stats(sim.tracer, snap)
    stats["basis"] = basis.to_global()
    stats["tracer"] = sim.tracer
    return stats


def pipelined_run(overlap: bool, machine: MachineSpec, *, nx: int,
                  ranks: int, restart: int) -> dict:
    """One pipelined-GMRES cycle (tol unreachable); overlap stats."""
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=machine,
                     spans=True)
    b = sim.ones_solution_rhs()
    snap = sim.tracer.snapshot()
    res = pipelined_gmres(sim, b, restart=restart, tol=1e-30,
                          maxiter=restart,
                          options=SolverOptions(comm_overlap=overlap))
    stats = _overlap_stats(sim.tracer, snap)
    stats["x"] = res.x
    stats["sync_count"] = res.sync_count
    return stats


def run(nx: int = 64, ranks: int = 16, s: int = 8, restart: int = 24,
        pipe_nx: int = 48, pipe_ranks: int = 8, pipe_restart: int = 15,
        multipliers=LATENCY_MULTIPLIERS,
        bw_inter: float = CONGESTED_BW) -> ExperimentTable:
    """Sweep latency multipliers; the table carries ``BENCH_overlap.json``
    and ``trace_overlap.json``.

    Asserts, per multiplier: bit-identity of the overlapped variants to
    their blocking counterparts, and — across multipliers — strictly
    decreasing PA2 exposed fraction.
    """
    table = ExperimentTable(
        "overlap_tradeoff",
        f"exposed vs hidden comm under posted collectives, congested "
        f"summit (inter b/w {bw_inter:g} B/s), all latency constants "
        f"x L  [PA2: laplace2d({nx}), p={ranks}, s={s}, m={restart}; "
        f"pipelined: laplace2d({pipe_nx}), p={pipe_ranks}, "
        f"m={pipe_restart}]",
        headers=["consumer", "L", "blocking s", "overlap s", "exposed s",
                 "hidden s", "exposed frac"])
    records = []
    mpk_fracs = []
    trace_doc = None
    for lat in multipliers:
        machine = congested_summit(lat, bw_inter)
        ca = mpk_basis_run("ca", machine, nx=nx, ranks=ranks, s=s,
                           restart=restart)
        ov = mpk_basis_run("ca_overlap", machine, nx=nx, ranks=ranks, s=s,
                           restart=restart)
        if not np.array_equal(ca["basis"], ov["basis"]):
            raise AssertionError(
                f"ca_overlap basis diverged from ca at L={lat:g}")
        mpk_fracs.append(ov["exposed_frac"])
        table.add_row("mpk_pa2", f"{lat:g}x", fmt(ca["clock"]),
                      fmt(ov["clock"]), fmt(ov["exposed_seconds"]),
                      fmt(ov["hidden_seconds"]),
                      f"{ov['exposed_frac']:.1%}")
        records.append(BenchRecord(
            name=f"overlap_tradeoff[mpk_pa2,lat{lat:g}x]",
            group="overlap_tradeoff",
            mean=ov["clock"], min=ov["clock"], median=ov["clock"],
            stddev=0.0, rounds=1, iterations=1,
            extra={
                "consumer": "mpk_pa2", "latency_multiplier": lat,
                "bw_inter": bw_inter, "nx": nx, "ranks": ranks,
                "s": s, "restart": restart,
                "blocking_seconds": ca["clock"],
                "overlap_seconds": ov["clock"],
                "exposed_seconds": ov["exposed_seconds"],
                "hidden_seconds": ov["hidden_seconds"],
                "exposed_frac": ov["exposed_frac"],
                "bit_identical": True,
                "totals": ov["totals"],
            }))
        # Perfetto artifact: the largest-L PA2 run (clearest windows)
        trace_doc = chrome_trace_doc(ov["tracer"])

        base = pipelined_run(False, machine, nx=pipe_nx, ranks=pipe_ranks,
                             restart=pipe_restart)
        pipe = pipelined_run(True, machine, nx=pipe_nx, ranks=pipe_ranks,
                             restart=pipe_restart)
        if base["x"].tobytes() != pipe["x"].tobytes():
            raise AssertionError(
                f"overlapped pipelined solve diverged at L={lat:g}")
        table.add_row("pipelined", f"{lat:g}x", fmt(base["clock"]),
                      fmt(pipe["clock"]), fmt(pipe["exposed_seconds"]),
                      fmt(pipe["hidden_seconds"]),
                      f"{pipe['exposed_frac']:.1%}")
        records.append(BenchRecord(
            name=f"overlap_tradeoff[pipelined,lat{lat:g}x]",
            group="overlap_tradeoff",
            mean=pipe["clock"], min=pipe["clock"], median=pipe["clock"],
            stddev=0.0, rounds=1, iterations=1,
            extra={
                "consumer": "pipelined", "latency_multiplier": lat,
                "bw_inter": bw_inter, "nx": pipe_nx, "ranks": pipe_ranks,
                "restart": pipe_restart,
                "blocking_seconds": base["clock"],
                "overlap_seconds": pipe["clock"],
                "exposed_seconds": pipe["exposed_seconds"],
                "hidden_seconds": pipe["hidden_seconds"],
                "exposed_frac": pipe["exposed_frac"],
                "sync_count_blocking": base["sync_count"],
                "sync_count_overlap": pipe["sync_count"],
                "bit_identical": True,
                "totals": pipe["totals"],
            }))
    for prev, cur in zip(mpk_fracs, mpk_fracs[1:]):
        if not cur < prev:
            raise AssertionError(
                f"PA2 exposed fraction must shrink strictly with the "
                f"latency multiplier, got {mpk_fracs}")
    table.add_note("exposed/hidden = the posted collectives' wait-charged "
                   "remainder vs what compute drained inside the overlap "
                   "window; exposed frac = exposed / (exposed + hidden)")
    table.add_note("every latency constant (net hops, device sync, kernel "
                   "launch, SpMV fixed overhead) scales with L; the "
                   "congested-link bandwidth term does not — so the "
                   "compute window outgrows the wire time and PA2 "
                   "exposure shrinks strictly with L (asserted)")
    table.add_note("overlapped variants are bit-identical to blocking per "
                   "row (asserted); overlap moves charges, never values")
    table.files = {
        "BENCH_overlap.json": BenchArtifact.fresh("overlap", records).to_json(),
        "trace_overlap.json": json.dumps(trace_doc) + "\n"}
    return table


QUICK = {"nx": 48, "ranks": 8, "s": 5, "restart": 15, "bw_inter": 1.0e6,
         "multipliers": LATENCY_MULTIPLIERS[:-1]}
