"""Predicted vs measured: the mp backend validates the cost model.

Every other experiment in this package reports *modeled* seconds from
the SimComm planner.  This one runs the same solves twice — once on
``backend="sim"`` (modeled time) and once on ``backend="mp"`` (every
rank a real OS process, wall clock measured per phase) — and puts the
two timelines side by side.  Three properties are checked/reported:

1. **Bit identity.**  The mp solution must equal the sim solution
   byte-for-byte (the executor folds reductions in the same
   recursive-doubling pair order the planner models), asserted per
   scheme.
2. **Twin consistency.**  MpComm carries a modeled *twin* tracer fed by
   the exact SimComm charge formulas; its clock must equal the sim
   run's clock exactly — the planner and the executor never drift.
3. **Shape agreement.**  The per-phase breakdown (SpMV / halo /
   panel QR / allreduce) of modeled vs measured time, and the measured
   two-stage vs fused-sketched comparison.  Absolute wall seconds on
   the CI host mean little (Python processes over shared memory are
   not a V100 cluster — latency-type costs are wildly different), so
   the table reports both timelines and their per-phase *shares*; the
   artifact keeps the raw numbers.

Emits ``BENCH_measured.json`` (standard
:class:`~repro.bench.artifacts.BenchArtifact` schema): one record per
scheme, wall-clock stats over ``repeats`` mp runs, with the modeled
totals and both phase breakdowns attached as extras.  The smoke-size
variant is asserted in ``tests/experiments/test_backend_validation.py``.
"""

from __future__ import annotations

import json

import numpy as np

from repro.bench.artifacts import BenchArtifact, BenchRecord
from repro.experiments.common import ExperimentTable, fmt
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.obs.drift import DEFAULT_DRIFT_BOUND, drift_report
from repro.obs.export import chrome_trace_doc
from repro.matrices.stencil import laplace2d
from repro.ortho.randomized import SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme

#: The paper's contribution vs its randomized sibling — the two schemes
#: whose communication profiles the measured backend must reproduce.
SCHEMES = ("two-stage", "fused-sketched")

#: Reported phase buckets, and how tracer kernels map onto them.
PHASE_BUCKETS = ("spmv", "halo", "panel_qr", "allreduce")


def _scheme_setup(name: str, restart: int):
    """(scheme instance, SolverOptions) for one validated configuration."""
    if name == "two-stage":
        return TwoStageScheme(restart), SolverOptions()
    if name == "fused-sketched":
        return (SketchedTwoStageScheme(restart, fused=True),
                SolverOptions(solve_mode="sketched"))
    raise ValueError(f"unknown scheme {name!r}; expected one of {SCHEMES}")


def phase_breakdown(totals) -> dict:
    """Fold a tracer snapshot into the SpMV/halo/panel-QR/allreduce view.

    ``panel_qr`` is the ortho phase net of its reductions — the local
    Gram/update/factorization work of the orthogonalization schemes;
    ``allreduce`` aggregates reductions across *all* phases (they are
    the synchronizations the s-step formulation exists to amortize).
    """
    by_kernel = totals.by_kernel
    spmv = sum(v for (ph, k), v in by_kernel.items() if k == "spmv_local")
    halo = sum(v for (ph, k), v in by_kernel.items() if k == "halo")
    allred = sum(v for (ph, k), v in by_kernel.items() if k == "allreduce")
    ortho_allred = sum(v for (ph, k), v in by_kernel.items()
                       if k == "allreduce" and ph == "ortho")
    panel_qr = max(totals.by_phase.get("ortho", 0.0) - ortho_allred, 0.0)
    return {"spmv": spmv, "halo": halo, "panel_qr": panel_qr,
            "allreduce": allred, "total": totals.clock}


def run_scheme(scheme_name: str, *, nx: int, ranks: int, s: int,
               restart: int, tol: float, maxiter: int,
               repeats: int) -> dict:
    """Validate one scheme: sim prediction + ``repeats`` measured runs."""
    a = laplace2d(nx)
    b = np.ones(a.shape[0])

    scheme, options = _scheme_setup(scheme_name, restart)
    with Simulation(a, ranks=ranks, backend="sim") as sim:
        snap = sim.tracer.snapshot()
        res_sim = sstep_gmres(sim, b, s=s, restart=restart, tol=tol,
                              maxiter=maxiter, scheme=scheme,
                              options=options)
        predicted = phase_breakdown(sim.tracer.since(snap))

    measured_runs = []
    modeled_clock = None
    modeled_totals = None
    measured_totals = None
    res_mp = None
    drift = None
    trace_doc = None
    for _ in range(max(repeats, 1)):
        scheme, options = _scheme_setup(scheme_name, restart)
        with Simulation(a, ranks=ranks, backend="mp", spans=True) as mp_sim:
            snap = mp_sim.tracer.snapshot()
            twin_snap = mp_sim.comm.modeled.snapshot()
            res_mp = sstep_gmres(mp_sim, b, s=s, restart=restart, tol=tol,
                                 maxiter=maxiter, scheme=scheme,
                                 options=options)
            measured_runs.append(
                phase_breakdown(mp_sim.tracer.since(snap)))
            modeled_totals = mp_sim.comm.modeled.since(twin_snap)
            measured_totals = mp_sim.tracer.since(snap)
            modeled_clock = modeled_totals.clock
            # drift + trace from the last repeat: span streams cover
            # the whole communicator lifetime, totals just the solve
            drift = drift_report(modeled_totals, measured_totals,
                                 modeled_spans=mp_sim.comm.modeled.spans,
                                 measured_spans=mp_sim.tracer.spans)
            trace_doc = chrome_trace_doc(mp_sim.comm.modeled,
                                         mp_sim.tracer)

        if res_mp.x.tobytes() != res_sim.x.tobytes():
            raise AssertionError(
                f"{scheme_name}: backend='mp' solution diverged from "
                f"backend='sim' — the executor broke the planner's "
                f"reduction order")
    if modeled_clock != predicted["total"]:
        raise AssertionError(
            f"{scheme_name}: MpComm's modeled twin charged "
            f"{modeled_clock!r}s but SimComm predicted "
            f"{predicted['total']!r}s — the charge formulas drifted")

    walls = [m["total"] for m in measured_runs]
    best = measured_runs[int(np.argmin(walls))]
    return {
        "scheme": scheme_name,
        "result": res_mp,
        "predicted": predicted,
        "measured": best,
        "measured_runs": measured_runs,
        "walls": walls,
        "modeled_totals": modeled_totals,
        "measured_totals": measured_totals,
        "drift": drift,
        "trace_doc": trace_doc,
    }


def run(nx: int = 40, ranks: int = 4, s: int = 5, restart: int = 30,
        tol: float = 1.0e-8, maxiter: int = 4000, repeats: int = 3,
        schemes=SCHEMES,
        drift_bound: float | None = DEFAULT_DRIFT_BOUND) -> ExperimentTable:
    """Validate every scheme; the table carries ``BENCH_measured.json``
    and, per scheme, a Chrome trace-event file ``trace_<scheme>.json``
    (modeled + measured tracks, per-rank lanes).

    Every record's extras carry the full modeled/measured tracer totals
    (:meth:`TraceTotals.to_dict`) and a ``drift`` section from
    :func:`repro.obs.drift.drift_report`; when ``drift_bound`` is set
    (default :data:`~repro.obs.drift.DEFAULT_DRIFT_BOUND`) the worst
    per-phase share drift is asserted below it — the nightly model-vs-
    measurement gate.
    """
    table = ExperimentTable(
        "backend_validation",
        f"predicted (sim) vs measured (mp) wall clock per phase "
        f"(laplace2d({nx}), p={ranks}, s={s}, m={restart}, "
        f"min of {repeats} runs)",
        headers=["scheme", "timeline", "SpMV", "halo", "panel QR",
                 "allreduce", "total s"])
    records = []
    for name in schemes:
        out = run_scheme(name, nx=nx, ranks=ranks, s=s, restart=restart,
                         tol=tol, maxiter=maxiter, repeats=repeats)
        for label, bd in (("modeled", out["predicted"]),
                          ("measured", out["measured"])):
            shares = {k: (bd[k] / bd["total"] if bd["total"] > 0 else 0.0)
                      for k in PHASE_BUCKETS}
            table.add_row(
                name, label,
                *(f"{shares[k]:.1%}" for k in PHASE_BUCKETS),
                fmt(bd["total"]))
        walls = out["walls"]
        res = out["result"]
        drift = out["drift"]
        if drift_bound is not None and not drift.within(drift_bound):
            raise AssertionError(
                f"{name}: predicted-vs-measured share drift "
                f"{drift.max_share_drift:.3f} exceeds the configured "
                f"bound {drift_bound} —\n{drift.summary()}")
        table.files[f"trace_{name}.json"] = json.dumps(out["trace_doc"]) + "\n"
        records.append(BenchRecord(
            name=f"backend_validation[{name}]",
            group="backend_validation",
            mean=float(np.mean(walls)),
            min=float(np.min(walls)),
            median=float(np.median(walls)),
            stddev=float(np.std(walls)),
            rounds=len(walls),
            iterations=1,
            extra={
                "scheme": name,
                "ranks": ranks, "nx": nx, "s": s, "restart": restart,
                "solver_iterations": res.iterations,
                "converged": res.converged,
                "bit_identical": True,
                "modeled": out["predicted"],
                "measured": out["measured"],
                "modeled_totals": out["modeled_totals"].to_dict(),
                "measured_totals": out["measured_totals"].to_dict(),
                "drift": drift.to_dict(),
            }))
    table.add_note("solutions are bit-identical across backends and the "
                   "mp modeled twin equals the sim prediction exactly "
                   "(both asserted per scheme)")
    table.add_note("phase cells are shares of the row's total; modeled "
                   "totals are V100-cluster seconds, measured totals are "
                   "Python-process wall clock on this host — compare "
                   "shapes, not magnitudes")
    table.add_note("panel QR = ortho phase net of reductions; allreduce "
                   "aggregates reductions across all phases")
    table.add_note("each artifact record carries a per-phase drift "
                   "section (share drift between the modeled twin and "
                   "the measured timeline)"
                   + (f"; worst drift gated < {drift_bound}"
                      if drift_bound is not None else ""))
    table.files["BENCH_measured.json"] = BenchArtifact.fresh(
        "measured", records).to_json()
    return table


QUICK = {"nx": 24, "restart": 12, "repeats": 1}
