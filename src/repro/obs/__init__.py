"""Observability: structured solve telemetry, trace export, drift monitoring.

This package turns the raw signals the library already produces — the
:class:`~repro.parallel.tracing.Tracer` span stream and the solvers'
per-cycle numerics monitors — into first-class artifacts:

:mod:`repro.obs.telemetry`
    :class:`CycleRecord` / :class:`SolveTelemetry` — one structured
    record per restart cycle (residual norm, residual gap, basis
    condition, embedding distortion, solve mode, resketch/breakdown
    events),
    surfaced as ``SolveResult.telemetry`` and backing the legacy
    ``diagnostics`` keys.

:mod:`repro.obs.export`
    Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``,
    modeled and measured streams as separate tracks with per-rank lanes)
    and JSONL exporters, plus the matching loaders.

:mod:`repro.obs.drift`
    The predicted-vs-measured drift monitor: pairs an
    :class:`~repro.parallel.mp_backend.MpComm` measured tracer against
    its modeled twin span-by-span and reports per-phase relative error
    and share drift — the CI-gated number in ``BENCH_measured.json``.

:mod:`repro.obs.metrics`
    :meth:`MetricsSnapshot.of` — one snapshot of a tracer's totals and
    its charge spans, for a live run and a loaded export alike:
    per-kernel flops, bytes moved (memory + network), arithmetic
    intensity and roofline utilization against the
    :class:`~repro.parallel.machine.MachineSpec` peaks, and per-charge
    duration histograms read off the span stream (nothing hooks
    ``Tracer.add``); rides on ``SolveResult.metrics``, exports as JSON
    or Prometheus text.

:mod:`repro.obs.calibrate`
    LogGP calibration: least-squares fit of the machine constants from
    an mp run's measured span stream (:func:`fit_machine`), feeding the
    CI-gated prediction-error bound of ``experiments/calibration.py``.

:mod:`repro.obs.cli`
    The ``repro-trace`` command (``summarize`` / ``diff`` / ``metrics``
    / ``calibrate`` / ``export``), also reachable as
    ``python -m repro.obs.cli``.
"""

from repro.obs.calibrate import calibrate
from repro.obs.drift import DEFAULT_DRIFT_BOUND, drift_report
from repro.obs.export import (
    chrome_trace_doc,
    export_chrome_trace,
    export_jsonl,
    load_spans,
)
from repro.obs.metrics import MetricsSnapshot
from repro.obs.telemetry import SolveTelemetry

__all__ = [
    "DEFAULT_DRIFT_BOUND",
    "MetricsSnapshot",
    "SolveTelemetry",
    "drift_report",
    "calibrate",
    "chrome_trace_doc",
    "export_chrome_trace",
    "export_jsonl",
    "load_spans",
]
