"""Smoke-size assertions of the service-throughput experiment."""

from __future__ import annotations

import pytest

from repro.bench.artifacts import load_artifact
from repro.experiments import runner, service_throughput

QUICK = dict(nx=12, ranks=4, s=4, restart=12)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(table, its BENCH artifact loaded back)."""
    table = service_throughput.run(**QUICK)
    out = tmp_path_factory.mktemp("service")
    table.write_files(out)
    return table, load_artifact(out / "BENCH_service.json")


class TestTable:
    def test_one_row_per_machine_and_width(self, outputs):
        table, _ = outputs
        machines = [m for m, _ in service_throughput.MACHINES]
        widths = [str(w) for w in service_throughput.WIDTHS]
        assert table.column(0) == [m for m in machines
                                   for _ in widths]
        assert table.column(1) == widths * len(machines)

    def test_speedup_gate_on_latency_machine(self, outputs):
        """The batching claim: width-8 >= 3x width-1 solves/sec on
        summit_lat16x — pinned from the artifact so a silent assert
        removal inside run() cannot pass."""
        _, artifact = outputs
        w = max(service_throughput.WIDTHS)
        top = artifact.record(f"service[summit_lat16x,w{w}]")
        assert top.extra["speedup"] >= 3.0

    def test_throughput_monotone_below_knee(self, outputs):
        _, artifact = outputs
        for machine, _ in service_throughput.MACHINES:
            rates = [artifact.record(f"service[{machine},w{w}]")
                     .extra["solves_per_sec"]
                     for w in service_throughput.WIDTHS]
            assert all(b > a for a, b in zip(rates, rates[1:]))
            knee = artifact.record(
                f"service[{machine},w1]").extra["knee_width"]
            assert knee > max(service_throughput.WIDTHS)

    def test_counts_and_bytes_invariants(self, outputs):
        _, artifact = outputs
        for machine, _ in service_throughput.MACHINES:
            recs = [artifact.record(f"service[{machine},w{w}]")
                    for w in service_throughput.WIDTHS]
            counts = [r.extra["counts_per_batch"] for r in recs]
            assert all(c == counts[0] for c in counts)
            assert counts[0]["allreduce"] > 0
            assert counts[0]["halo"] > 0
            totals = [r.extra["total_bytes"] for r in recs]
            assert all(t == totals[0] for t in totals)
            assert all(r.extra["bit_identical"] for r in recs)

    def test_indivisible_widths_rejected(self):
        with pytest.raises(AssertionError, match="divide"):
            service_throughput.run(**{**QUICK, "widths": (1, 3, 8)})


class TestArtifacts:
    def test_bench_artifact_round_trips(self, outputs):
        table, artifact = outputs
        assert list(table.files) == ["BENCH_service.json"]
        assert artifact.names() == [
            f"service[{machine},w{w}]"
            for machine, _ in service_throughput.MACHINES
            for w in service_throughput.WIDTHS]
        rec = artifact.record("service[summit,w1]")
        assert rec.extra["width"] == 1
        assert rec.extra["machine"] == "summit"


def test_cli_quick(tmp_path, capsys):
    assert runner.main(["service", "--quick", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "service_throughput" in out
    assert (tmp_path / "BENCH_service.json").exists()
