"""Smoke-size assertions of the predicted-vs-measured validation."""

from __future__ import annotations

import json

import pytest

from repro.bench.artifacts import SCHEMA, load_artifact
from repro.experiments import backend_validation
from repro.obs import DEFAULT_DRIFT_BOUND, load_spans


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("traces")


@pytest.fixture(scope="module")
def outcome(trace_dir):
    """(table, its BENCH artifact loaded back); every file the table
    carries is written to ``trace_dir``."""
    table = backend_validation.run(nx=16, s=3, restart=9, repeats=1)
    table.write_files(trace_dir)
    return table, load_artifact(trace_dir / "BENCH_measured.json")


class TestTable:
    def test_two_rows_per_scheme(self, outcome):
        table, _ = outcome
        labels = [(table.cell(r, 0), table.cell(r, 1))
                  for r in range(len(table.rows))]
        assert labels == [(name, timeline)
                          for name in backend_validation.SCHEMES
                          for timeline in ("modeled", "measured")]

    def test_phase_shares_rendered(self, outcome):
        table, _ = outcome
        for r in range(len(table.rows)):
            for c in range(2, 6):
                assert table.cell(r, c).endswith("%")


class TestArtifact:
    def test_schema_and_records(self, outcome):
        _, art = outcome
        assert art.schema == SCHEMA
        assert art.name == "measured"
        assert art.names() == [f"backend_validation[{s}]"
                               for s in backend_validation.SCHEMES]

    def test_extras_carry_both_timelines(self, outcome):
        _, art = outcome
        for rec in art.benchmarks:
            assert rec.extra["bit_identical"] is True
            assert rec.extra["converged"]
            for timeline in ("modeled", "measured"):
                bd = rec.extra[timeline]
                assert set(backend_validation.PHASE_BUCKETS) < set(bd)
                assert bd["total"] > 0.0
            # phases cover (nearly) the whole timeline on both sides
            modeled = rec.extra["modeled"]
            covered = sum(modeled[k]
                          for k in backend_validation.PHASE_BUCKETS)
            assert covered <= modeled["total"] * 1.0000001
            assert covered >= modeled["total"] * 0.5

    def test_drift_section_within_gate(self, outcome):
        """The ISSUE's acceptance gate: every scheme's drift section is
        present in the artifact and under the configured bound."""
        _, art = outcome
        for rec in art.benchmarks:
            drift = rec.extra["drift"]
            assert drift["max_share_drift"] < DEFAULT_DRIFT_BOUND
            assert drift["spans_paired"] > 0
            assert drift["span_mismatches"] == 0
            assert drift["measured_total"] > 0.0
            gated = {p["phase"]: p["share_drift"] for p in drift["phases"]}
            assert max(gated.values()) == drift["max_share_drift"]

    def test_extras_embed_machine_readable_totals(self, outcome):
        _, art = outcome
        for rec in art.benchmarks:
            for key in ("modeled_totals", "measured_totals"):
                doc = rec.extra[key]
                assert doc["clock"] > 0.0
                assert any(k.endswith("/allreduce") for k in doc["counts"])

    def test_round_trips_through_loader(self, outcome, tmp_path):
        _, art = outcome
        path = art.write(tmp_path / "BENCH_measured.json")
        loaded = load_artifact(path)
        assert loaded.names() == art.names()
        doc = json.loads(path.read_text())
        assert doc["schema"] == SCHEMA


class TestTraceExport:
    def test_trace_file_per_scheme(self, outcome, trace_dir):
        table, _ = outcome
        assert list(table.files) == [
            *(f"trace_{name}.json" for name in backend_validation.SCHEMES),
            "BENCH_measured.json"]
        for name in backend_validation.SCHEMES:
            assert (trace_dir / f"trace_{name}.json").exists()

    def test_trace_holds_both_streams_and_rank_lanes(self, outcome,
                                                     trace_dir):
        spans = load_spans(trace_dir / "trace_two-stage.json")
        streams = {s.stream for s in spans}
        assert streams == {"modeled", "measured"}
        ranks = {s.rank for s in spans if s.rank is not None}
        assert ranks == {0, 1, 2, 3}  # the mp run's per-worker SpMV lanes
        # driver kernel charges exist on both streams for pairing
        for stream in streams:
            assert any(s.cat == "kernel" and s.rank is None
                       for s in spans if s.stream == stream)

    def test_trace_is_valid_chrome_document(self, outcome, trace_dir):
        doc = json.loads((trace_dir / "trace_two-stage.json").read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phs = {e["ph"] for e in doc["traceEvents"]}
        assert phs == {"M", "X"}
        assert all(e["dur"] >= 0.0 for e in doc["traceEvents"]
                   if e["ph"] == "X")


def test_drift_gate_is_armed():
    """run() must actually enforce the bound: an absurdly tight one
    trips the assertion with the drift summary in the message."""
    with pytest.raises(AssertionError, match="share drift|drift"):
        backend_validation.run(nx=12, ranks=4, s=3, restart=9, repeats=1,
                               schemes=("two-stage",), drift_bound=1e-12)


def test_bit_identity_assertion_is_armed(monkeypatch):
    """run_scheme must actually compare the backends: poison the sim
    result and expect the assertion to fire."""
    real = backend_validation.sstep_gmres
    calls = {"n": 0}

    def poisoned(sim, b, **kwargs):
        res = real(sim, b, **kwargs)
        calls["n"] += 1
        if calls["n"] == 1:  # the backend="sim" reference run
            res.x = res.x + 1.0e-3
        return res

    monkeypatch.setattr(backend_validation, "sstep_gmres", poisoned)
    with pytest.raises(AssertionError, match="bit-identical|diverged"):
        backend_validation.run_scheme(
            "two-stage", nx=12, ranks=4, s=3, restart=9,
            tol=1e-8, maxiter=500, repeats=1)
