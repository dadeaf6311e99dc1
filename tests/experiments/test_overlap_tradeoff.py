"""Smoke-size assertions of the overlap-window trade-off experiment."""

from __future__ import annotations

import json

import pytest

from repro.bench.artifacts import load_artifact
from repro.experiments import overlap_tradeoff, runner

QUICK = dict(nx=32, ranks=8, s=5, restart=15, pipe_nx=32, pipe_restart=10,
             multipliers=(1.0, 2.0, 4.0), bw_inter=1.0e6)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(table, its BENCH artifact loaded back, its trace document)."""
    table = overlap_tradeoff.run(**QUICK)
    out = tmp_path_factory.mktemp("overlap")
    table.write_files(out)
    return (table, load_artifact(out / "BENCH_overlap.json"),
            json.loads((out / "trace_overlap.json").read_text()))


class TestTable:
    def test_one_row_per_consumer_and_multiplier(self, outputs):
        table, _, _ = outputs
        assert table.column(0) == ["mpk_pa2", "pipelined"] * 3

    def test_exposure_strictly_shrinks_with_latency(self, outputs):
        """The acceptance claim — also asserted inside run(), but pin it
        from the artifact so a silent assert removal cannot pass."""
        _, artifact, _ = outputs
        fracs = [rec.extra["exposed_frac"] for rec in artifact.benchmarks
                 if rec.extra["consumer"] == "mpk_pa2"]
        assert len(fracs) == 3
        assert all(b < a for a, b in zip(fracs, fracs[1:]))
        assert fracs[0] > 0.0  # something was actually exposed at L=1

    def test_hidden_seconds_positive_everywhere(self, outputs):
        _, artifact, _ = outputs
        for rec in artifact.benchmarks:
            assert rec.extra["hidden_seconds"] > 0.0
            assert rec.extra["bit_identical"] is True

    def test_monotonicity_violation_raises(self):
        """A single multiplier repeated twice cannot strictly decrease."""
        with pytest.raises(AssertionError, match="strict"):
            overlap_tradeoff.run(**{**QUICK, "multipliers": (1.0, 1.0)})


class TestArtifacts:
    def test_bench_artifact_round_trips(self, outputs):
        table, artifact, _ = outputs
        assert sorted(table.files) == ["BENCH_overlap.json",
                                       "trace_overlap.json"]
        assert artifact.names() == [
            f"overlap_tradeoff[{consumer},lat{lat:g}x]"
            for lat in QUICK["multipliers"]
            for consumer in ("mpk_pa2", "pipelined")]
        rec = artifact.record("overlap_tradeoff[mpk_pa2,lat1x]")
        assert rec.extra["latency_multiplier"] == 1.0
        assert "overlapped" in rec.extra["totals"]

    def test_trace_doc_has_overlap_spans(self, outputs):
        _, _, trace_doc = outputs
        cats = {ev.get("cat") for ev in trace_doc["traceEvents"]
                if ev.get("ph") == "X"}
        assert "post" in cats
        assert "comm_overlap" in cats
        exposed = [ev for ev in trace_doc["traceEvents"]
                   if ev.get("ph") == "X"
                   and "overlapped_seconds" in ev.get("args", {})]
        assert exposed  # the wait charges carry the hidden annotation


def test_cli_quick(tmp_path, capsys):
    assert runner.main(["overlap", "--quick", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "overlap_tradeoff" in out
    assert (tmp_path / "BENCH_overlap.json").exists()
    assert (tmp_path / "trace_overlap.json").exists()
