"""Calibration experiment: real quick fit plus gate-arming checks."""

from __future__ import annotations

import json

import pytest

from repro.bench.artifacts import SCHEMA, load_artifact
from repro.experiments import calibration
from repro.obs.calibrate import calibrate
from repro.obs.drift import DEFAULT_DRIFT_BOUND, DriftReport, PhaseDrift
from repro.obs.metrics import MetricsSnapshot
from repro.parallel.machine import generic_cpu
from repro.parallel.tracing import Tracer


def test_bound_is_tighter_than_uncalibrated_gate():
    assert calibration.CALIBRATED_DRIFT_BOUND < DEFAULT_DRIFT_BOUND


class TestMaxFiniteRelError:
    def _report(self, errors):
        phases = tuple(
            PhaseDrift(phase=f"p{i}", modeled_seconds=1.0,
                       measured_seconds=1.0, modeled_share=0.5,
                       measured_share=0.5, rel_error=e, share_drift=0.1)
            for i, e in enumerate(errors))
        return DriftReport(phases=phases, modeled_total=1.0,
                           measured_total=1.0, scale=1.0)

    def test_ignores_inf_and_nan(self):
        rep = self._report([0.2, float("inf"), float("nan"), 0.7])
        assert calibration._max_finite_rel_error(rep) == 0.7

    def test_empty_report_is_zero(self):
        assert calibration._max_finite_rel_error(DriftReport()) == 0.0


def _fake_outcome(uncal_err, cal_err, uncal_drift, cal_drift):
    """A run_scheme() result with controlled drift numbers."""
    def report(err, drift):
        phase = PhaseDrift(phase="ortho", modeled_seconds=1.0,
                           measured_seconds=1.0, modeled_share=0.5,
                           measured_share=0.5 + drift, rel_error=err,
                           share_drift=drift)
        return DriftReport(phases=(phase,), modeled_total=1.0,
                           measured_total=1.0, scale=1.0)

    t = Tracer()
    t.enable_spans()
    t.add("dot", 1.0, flops=8.0, mem_bytes=64.0)
    totals = t.snapshot()
    return {
        "scheme": "two-stage",
        "fit": calibrate([], base=generic_cpu()),
        "uncalibrated": report(uncal_err, uncal_drift),
        "calibrated": report(cal_err, cal_drift),
        "measured_totals": totals,
        "uncal_totals": totals,
        "cal_totals": totals,
        "measured_summary": {"n_spans": 0, "streams": {}},
        "metrics_snapshot": MetricsSnapshot.of(t, t.spans, generic_cpu(), 4),
        "uncal_breakdown": {"total": 1.0},
        "cal_breakdown": {"total": 1.0},
        "measured_breakdown": {"total": 1.0},
    }


class TestGateIsArmed:
    """run() must enforce all three assertions, not just report."""

    def _patched(self, monkeypatch, **kw):
        monkeypatch.setattr(calibration, "run_scheme",
                            lambda *a, **k: _fake_outcome(**kw))
        return calibration.run(schemes=("two-stage",))

    def test_passes_when_strictly_better_and_bounded(self, monkeypatch,
                                                     tmp_path):
        table = self._patched(
            monkeypatch, uncal_err=1.0, cal_err=0.4,
            uncal_drift=0.4, cal_drift=0.1)
        assert len(table.rows) == 2
        table.write_files(tmp_path)
        art = load_artifact(tmp_path / "BENCH_calibration.json")
        assert art.names() == ["calibration[two-stage]"]
        assert ("repro_kernel_seconds_total"
                in table.files["metrics_calibration.prom"])

    def test_rel_error_regression_trips(self, monkeypatch):
        with pytest.raises(AssertionError, match="relative error"):
            self._patched(monkeypatch, uncal_err=0.5, cal_err=0.5,
                          uncal_drift=0.4, cal_drift=0.1)

    def test_share_drift_regression_trips(self, monkeypatch):
        with pytest.raises(AssertionError, match="share drift"):
            self._patched(monkeypatch, uncal_err=1.0, cal_err=0.4,
                          uncal_drift=0.1, cal_drift=0.1)

    def test_tightened_bound_trips(self, monkeypatch):
        with pytest.raises(AssertionError, match="tightened bound"):
            self._patched(monkeypatch, uncal_err=1.0, cal_err=0.4,
                          uncal_drift=0.9, cal_drift=0.6)


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """One real mp-run calibration at the nightly --quick size: (table,
    its BENCH artifact loaded back, its Prometheus text)."""
    table = calibration.run(nx=24, ranks=4, s=5, restart=12,
                            schemes=("two-stage",))
    out = tmp_path_factory.mktemp("calibration")
    table.write_files(out)
    return (table, load_artifact(out / "BENCH_calibration.json"),
            (out / "metrics_calibration.prom").read_text())


class TestRealRun:
    def test_calibrated_strictly_beats_uncalibrated(self, outcome):
        _, art, _ = outcome
        (rec,) = art.benchmarks
        assert (rec.extra["calibrated_max_rel_error"]
                < rec.extra["uncalibrated_max_rel_error"])
        assert (rec.extra["calibrated_drift"]["max_share_drift"]
                < rec.extra["uncalibrated_drift"]["max_share_drift"])
        assert (rec.extra["calibrated_drift"]["max_share_drift"]
                < calibration.CALIBRATED_DRIFT_BOUND)

    def test_fit_used_real_pairs(self, outcome):
        _, art, _ = outcome
        (rec,) = art.benchmarks
        fit = rec.extra["fit"]
        assert fit["n_net_pairs"] > 0 and fit["n_kernel_pairs"] > 0
        assert fit["machine"].endswith("-calibrated")
        # two-stage charges no driver-side collectives (the TSQR tree
        # ablation does); the exclusion path is unit-tested in
        # tests/obs/test_calibrate.py
        assert fit["n_driver_excluded"] == 0
        assert fit["span_mismatches"] == 0

    def test_artifact_round_trips(self, outcome, tmp_path):
        _, art, prom = outcome
        path = art.write(tmp_path / "BENCH_calibration.json")
        loaded = load_artifact(path)
        assert loaded.names() == art.names()
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA
        rec = doc["benchmarks"][0]
        assert rec["extra"]["metrics"]["totals"]["flops"] > 0.0
        assert rec["extra"]["measured_trace_summary"]["n_spans"] > 0

    def test_prometheus_snapshot_is_exposition_text(self, outcome):
        _, _, prom = outcome
        assert "# TYPE repro_kernel_seconds_total counter" in prom
        assert 'repro_net_bytes_total{kind="allreduce"}' in prom
        assert prom.endswith("\n")

    def test_table_rows_pair_models(self, outcome):
        table, _, _ = outcome
        labels = [(table.cell(r, 0), table.cell(r, 1))
                  for r in range(len(table.rows))]
        assert labels == [("two-stage", "uncalibrated"),
                          ("two-stage", "calibrated")]
