"""LogGP calibration closes the predicted-vs-measured loop.

``backend_validation`` shows the mp executor and the sim planner agree
bit-for-bit and gates their *share* drift under the deliberately loose
:data:`~repro.obs.drift.DEFAULT_DRIFT_BOUND` — loose because the
modeled machine (a V100 cluster) is nothing like the CI host actually
timing the ranks.  This experiment removes that excuse:

1. run each ``backend_validation`` scheme on ``backend="mp"`` with
   span streams enabled (measured wall clock + the modeled twin);
2. fit the LogGP machine constants from the twin span pairing
   (:func:`repro.obs.calibrate.calibrate`), producing a MachineSpec
   describing *this host*;
3. re-run the identical solve on ``backend="sim"`` under the
   calibrated machine (spans recorded, so its metrics snapshot is one
   :meth:`~repro.obs.metrics.MetricsSnapshot.of` away) and compare its
   predictions against the same measured timeline.

Asserted per scheme: the calibrated model's worst per-phase error —
relative error after scale removal AND share drift — is **strictly
smaller** than the uncalibrated twin's, and the calibrated share drift
sits under :data:`CALIBRATED_DRIFT_BOUND`, a bound tighter than the
uncalibrated gate.  Nightly CI runs ``--quick`` and uploads the
``BENCH_calibration.json`` artifact plus the Prometheus metrics
snapshot of the calibrated run.
"""

from __future__ import annotations

import numpy as np

from repro.bench.artifacts import BenchArtifact, BenchRecord
from repro.experiments.backend_validation import (
    SCHEMES,
    _scheme_setup,
    phase_breakdown,
)
from repro.experiments.common import ExperimentTable, fmt
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.calibrate import calibrate
from repro.obs.cli import summarize_doc
from repro.obs.drift import DEFAULT_DRIFT_BOUND, drift_report
from repro.obs.metrics import MetricsSnapshot

#: Share-drift gate for the *calibrated* model — tighter than the
#: uncalibrated :data:`DEFAULT_DRIFT_BOUND` (0.95): once the constants
#: describe the host that produced the measurements, the model has no
#: machine-mismatch excuse left.
CALIBRATED_DRIFT_BOUND = 0.5

assert CALIBRATED_DRIFT_BOUND < DEFAULT_DRIFT_BOUND


def _max_finite_rel_error(report) -> float:
    """Worst finite per-phase scale-removed relative error."""
    errs = [p.rel_error for p in report.phases
            if p.rel_error == p.rel_error and p.rel_error != float("inf")]
    return max(errs, default=0.0)


def run_scheme(scheme_name: str, *, nx: int, ranks: int, s: int,
               restart: int, tol: float, maxiter: int) -> dict:
    """Calibrate one scheme: mp run -> fit -> calibrated sim re-run."""
    a = laplace2d(nx)
    b = np.ones(a.shape[0])

    scheme, options = _scheme_setup(scheme_name, restart)
    with Simulation(a, ranks=ranks, backend="mp", spans=True) as mp_sim:
        snap = mp_sim.tracer.snapshot()
        twin_snap = mp_sim.comm.modeled.snapshot()
        sstep_gmres(mp_sim, b, s=s, restart=restart, tol=tol,
                    maxiter=maxiter, scheme=scheme, options=options)
        measured_totals = mp_sim.tracer.since(snap)
        uncal_totals = mp_sim.comm.modeled.since(twin_snap)
        measured_spans = mp_sim.tracer.spans
        modeled_spans = mp_sim.comm.modeled.spans
        base = mp_sim.machine

    uncal = drift_report(uncal_totals, measured_totals,
                         modeled_spans=modeled_spans,
                         measured_spans=measured_spans)
    fit = calibrate(modeled_spans + measured_spans, base=base, ranks=ranks)

    scheme, options = _scheme_setup(scheme_name, restart)
    with Simulation(a, ranks=ranks, machine=fit.machine, backend="sim",
                    spans=True) as cal_sim:
        snap = cal_sim.tracer.snapshot()
        sstep_gmres(cal_sim, b, s=s, restart=restart, tol=tol,
                    maxiter=maxiter, scheme=scheme, options=options)
        cal_totals = cal_sim.tracer.since(snap)
        cal_spans = cal_sim.tracer.spans
        metrics_snapshot = MetricsSnapshot.of(cal_sim.tracer, cal_spans,
                                              fit.machine, ranks)

    cal = drift_report(cal_totals, measured_totals,
                       modeled_spans=cal_spans,
                       measured_spans=measured_spans)
    return {
        "scheme": scheme_name,
        "fit": fit,
        "uncalibrated": uncal,
        "calibrated": cal,
        "measured_totals": measured_totals,
        "uncal_totals": uncal_totals,
        "cal_totals": cal_totals,
        "measured_summary": summarize_doc(measured_spans),
        "metrics_snapshot": metrics_snapshot,
        "uncal_breakdown": phase_breakdown(uncal_totals),
        "cal_breakdown": phase_breakdown(cal_totals),
        "measured_breakdown": phase_breakdown(measured_totals),
    }


def run(nx: int = 40, ranks: int = 4, s: int = 5, restart: int = 30,
        tol: float = 1.0e-8, maxiter: int = 4000, schemes=SCHEMES,
        drift_bound: float | None = CALIBRATED_DRIFT_BOUND) -> ExperimentTable:
    """Calibrate every scheme; the table carries ``BENCH_calibration.json``
    and ``metrics_calibration.prom``.

    Per scheme, asserts the calibrated model beats the uncalibrated
    twin on BOTH error metrics (worst finite per-phase relative error
    and worst share drift, strictly), and — when ``drift_bound`` is set
    — that the calibrated share drift sits under it.  The Prometheus
    text is the calibrated runs' metrics snapshots.
    """
    table = ExperimentTable(
        "calibration",
        f"LogGP constants fitted from measured mp spans, then re-predicted "
        f"(laplace2d({nx}), p={ranks}, s={s}, m={restart})",
        headers=["scheme", "model", "scale", "max rel err",
                 "max share drift", "net pairs", "kernel pairs"])
    records = []
    prom_chunks = []
    for name in schemes:
        out = run_scheme(name, nx=nx, ranks=ranks, s=s, restart=restart,
                         tol=tol, maxiter=maxiter)
        uncal, cal, fit = out["uncalibrated"], out["calibrated"], out["fit"]
        uncal_err = _max_finite_rel_error(uncal)
        cal_err = _max_finite_rel_error(cal)
        for label, rep, err in (("uncalibrated", uncal, uncal_err),
                                ("calibrated", cal, cal_err)):
            table.add_row(
                name, label, fmt(rep.scale), fmt(err),
                f"{rep.max_share_drift:.3f}",
                str(fit.n_net_pairs), str(fit.n_kernel_pairs))
        if not cal_err < uncal_err:
            raise AssertionError(
                f"{name}: calibrated per-phase relative error {cal_err:.3f} "
                f"is not strictly smaller than uncalibrated "
                f"{uncal_err:.3f} —\n{cal.summary()}")
        if not cal.max_share_drift < uncal.max_share_drift:
            raise AssertionError(
                f"{name}: calibrated share drift {cal.max_share_drift:.3f} "
                f"is not strictly smaller than uncalibrated "
                f"{uncal.max_share_drift:.3f} —\n{cal.summary()}")
        if drift_bound is not None and not cal.within(drift_bound):
            raise AssertionError(
                f"{name}: calibrated share drift {cal.max_share_drift:.3f} "
                f"exceeds the tightened bound {drift_bound} —\n"
                f"{cal.summary()}")
        prom_chunks.append(out["metrics_snapshot"].to_prometheus())
        records.append(BenchRecord(
            name=f"calibration[{name}]",
            group="calibration",
            mean=float(out["measured_totals"].clock),
            min=float(out["measured_totals"].clock),
            median=float(out["measured_totals"].clock),
            stddev=0.0,
            rounds=1,
            iterations=1,
            extra={
                "scheme": name,
                "ranks": ranks, "nx": nx, "s": s, "restart": restart,
                "fit": fit.to_dict(),
                "uncalibrated_drift": uncal.to_dict(),
                "calibrated_drift": cal.to_dict(),
                "uncalibrated_max_rel_error": uncal_err,
                "calibrated_max_rel_error": cal_err,
                "drift_bound": drift_bound,
                "uncalibrated_breakdown": out["uncal_breakdown"],
                "calibrated_breakdown": out["cal_breakdown"],
                "measured_breakdown": out["measured_breakdown"],
                "measured_trace_summary": out["measured_summary"],
                "metrics": out["metrics_snapshot"].to_dict(),
            }))
    table.add_note("uncalibrated rows compare the mp run's modeled twin "
                   "(V100-cluster constants) against its measured wall "
                   "clock; calibrated rows re-predict with constants "
                   "fitted from that run's span pairing")
    table.add_note("asserted per scheme: calibrated max rel error and "
                   "share drift strictly beat uncalibrated"
                   + (f", and share drift < {drift_bound} (tighter than "
                      f"the uncalibrated gate {DEFAULT_DRIFT_BOUND})"
                      if drift_bound is not None else ""))
    table.add_note("driver-side charges (panel QR, sketch apply, TSQR "
                   "tree) are excluded from the network fit")
    table.files = {
        "BENCH_calibration.json":
            BenchArtifact.fresh("calibration", records).to_json(),
        "metrics_calibration.prom": "\n".join(prom_chunks)}
    return table


QUICK = {"nx": 24, "restart": 12}
