"""repro-trace CLI: summarize / diff / export via main(argv)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.cli import main
from repro.obs.export import (export_chrome_trace, export_jsonl, infer_ranks,
                              load_spans)
from repro.parallel.tracing import SpanEvent, Tracer


@pytest.fixture()
def twin_trace(tmp_path):
    """Chrome trace holding both streams (an mp-backend style export)."""
    modeled = Tracer()
    measured = Tracer(stream="measured")
    for t in (modeled, measured):
        t.enable_spans()
    with modeled.phase("spmv"):
        modeled.add("halo", 1.0, payload_bytes=64.0)
    with modeled.phase("ortho"):
        modeled.add("allreduce", 1.0, payload_bytes=8.0)
    with measured.phase("spmv"):
        measured.add("halo", 3.0, payload_bytes=64.0)
        measured.record_span("halo", 0.0, 1.5, rank=0)
    with measured.phase("ortho"):
        measured.add("allreduce", 1.0, payload_bytes=8.0)
    path = tmp_path / "twin.json"
    export_chrome_trace(path, modeled, measured)
    return path


class TestSummarize:
    def test_reports_both_streams(self, twin_trace, capsys):
        assert main(["summarize", str(twin_trace)]) == 0
        out = capsys.readouterr().out
        assert "[modeled]" in out and "[measured]" in out
        assert "1 rank lanes" in out
        assert "72 collective payload bytes" in out

    def test_payload_is_the_charges_payload(self, tmp_path, capsys):
        """The summarized collective payload of an export is what the
        solve's charges carried."""
        sim = Simulation(laplace2d(16), ranks=4, spans=True)
        sstep_gmres(sim, np.ones(sim.n), s=5, restart=10, tol=0.0,
                    maxiter=10, options=SolverOptions(mpk_mode="ca"))
        path = export_jsonl(tmp_path / "payload.jsonl", sim.tracer)
        assert main(["summarize", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["streams"]["modeled"]["collective_payload_bytes"] == sum(
            sim.tracer.payload_bytes.values())

    def test_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}\n')
        assert main(["summarize", str(path)]) == 1
        assert "no spans" in capsys.readouterr().out


class TestSummarizeJson:
    def test_machine_readable_document(self, twin_trace, capsys):
        assert main(["summarize", str(twin_trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["streams"]) == {"modeled", "measured"}
        mea = doc["streams"]["measured"]
        assert mea["rank_lanes"] == 1
        assert mea["collective_payload_bytes"] == 72.0
        assert mea["totals"]["by_kernel"]["spmv/halo"] == 3.0
        assert mea["totals"]["payload_bytes"]["spmv/halo"] == 64.0
        assert doc["n_spans"] == sum(s["spans"]
                                     for s in doc["streams"].values())

    def test_empty_trace_still_emits_json_but_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": []}\n')
        assert main(["summarize", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {"n_spans": 0,
                                                       "streams": {}}


class TestMetrics:
    def test_replay_modeled_stream(self, twin_trace, capsys):
        assert main(["metrics", str(twin_trace)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["machine"] == "summit"
        assert doc["ranks"] == 1  # one rank lane in the fixture
        assert doc["kernels"]["spmv/halo"]["seconds"] == 1.0
        assert doc["net_bytes"]["allreduce"] == 8.0

    def test_prometheus_flag(self, twin_trace, capsys):
        assert main(["metrics", str(twin_trace), "--prometheus",
                     "--stream", "measured", "--ranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_kernel_seconds_total counter" in out
        assert 'repro_net_bytes_total{kind="halo"} 64.0' in out

    def test_sim_export_needs_ranks(self, tmp_path, capsys):
        """A ``backend="sim"`` export has no rank lanes: the rank count
        cannot be read off it, so it must be given, not assumed 1."""
        sim = Simulation(laplace2d(16), ranks=4, metrics=True)
        sstep_gmres(sim, np.ones(sim.n), s=4, restart=8, tol=0.0,
                    maxiter=8)
        path = export_jsonl(tmp_path / "sim.jsonl", sim.tracer)
        assert main(["metrics", str(path)]) == 2
        assert "--ranks" in capsys.readouterr().err
        assert main(["metrics", str(path), "--ranks", "4"]) == 0
        got = json.loads(capsys.readouterr().out)["totals"]
        live = sim.metrics_doc()["totals"]
        assert got["flop_utilization"] == pytest.approx(
            live["flop_utilization"], rel=1e-9)

    def test_missing_stream_fails(self, tmp_path, capsys):
        t = Tracer()  # modeled-only trace
        t.enable_spans()
        t.add("dot", 1.0)
        path = export_chrome_trace(tmp_path / "m.json", t)
        assert main(["metrics", str(path), "--stream", "measured"]) == 1
        assert "no driver kernel spans" in capsys.readouterr().err


def test_rank_inference_reads_the_highest_lane():
    lane = SpanEvent("halo", 0.0, 1.0, rank=5)
    driver = SpanEvent("halo", 0.0, 1.0)
    assert infer_ranks([driver, lane]) == 6
    assert infer_ranks([driver]) is None


#: name -> (file content, what the error must name besides the file)
MALFORMED = {
    "jsonl-line-missing-t1": (
        '{"name": "dot", "t0": 0.0, "t1": 1.0}\n'
        '{"name": "dot", "t0": 1.0}\n', ":2:"),
    "empty-document": ("{}\n", ":1:"),
    "truncated-last-line": (
        '{"name": "dot", "t0": 0.0, "t1": 1.0}\n{"name": "dot", "t0"',
        ":2:"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_trace_is_a_typed_error(case, tmp_path, capsys):
    text, where = MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=f"bad.jsonl{where}"):
        load_spans(path)
    assert main(["summarize", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_malformed_chrome_event_names_the_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"traceEvents": [{"ph": "X", "name": "dot"}]}')
    with pytest.raises(ConfigurationError, match="bad.json"):
        load_spans(path)


class TestCalibrate:
    def test_human_table(self, twin_trace, capsys):
        assert main(["calibrate", str(twin_trace), "--ranks", "4"]) == 0
        out = capsys.readouterr().out
        assert "calibrated 'summit'" in out
        assert "net_bandwidth_inter" in out and "->" in out

    def test_json_fit_document(self, twin_trace, capsys):
        assert main(["calibrate", str(twin_trace), "--ranks", "4",
                     "--machine", "generic_cpu", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["base_machine"] == "generic_cpu"
        assert doc["ranks"] == 4
        assert doc["n_net_pairs"] + doc["n_kernel_pairs"] > 0
        assert set(doc["constants"]) >= {"net_latency_intra", "peak_flops"}


class TestDiff:
    def test_self_diff_twin_file(self, twin_trace, capsys):
        assert main(["diff", str(twin_trace)]) == 0
        out = capsys.readouterr().out
        assert "max share drift" in out and "spmv" in out

    def test_self_diff_needs_both_streams(self, tmp_path, capsys):
        t = Tracer()
        t.enable_spans()
        t.add("dot", 1.0)
        path = export_chrome_trace(tmp_path / "single.json", t)
        assert main(["diff", str(path)]) == 1
        assert "need both" in capsys.readouterr().out

    def test_two_single_stream_files(self, tmp_path, capsys):
        a, b = Tracer(), Tracer(stream="measured")
        for t in (a, b):
            t.enable_spans()
            t.add("dot", 1.0)
        pa = export_chrome_trace(tmp_path / "a.json", a)
        pb = export_chrome_trace(tmp_path / "b.json", b)
        assert main(["diff", str(pa), str(pb)]) == 0
        assert "max share drift" in capsys.readouterr().out


class TestExport:
    def test_chrome_to_jsonl_and_back(self, twin_trace, tmp_path, capsys):
        jsonl = tmp_path / "out.jsonl"
        assert main(["export", str(twin_trace), str(jsonl)]) == 0
        assert "jsonl" in capsys.readouterr().out
        assert len(load_spans(jsonl)) == len(load_spans(twin_trace))

        chrome = tmp_path / "back.json"
        assert main(["export", str(jsonl), str(chrome)]) == 0
        doc = json.loads(chrome.read_text())
        assert "traceEvents" in doc

    def test_format_flag_overrides_extension(self, twin_trace, tmp_path):
        dst = tmp_path / "forced.json"
        assert main(["export", str(twin_trace), str(dst),
                     "--format", "jsonl"]) == 0
        # JSONL content despite the .json extension (sniffed on read)
        first = dst.read_text().splitlines()[0]
        assert "traceEvents" not in first


def test_module_entrypoint_help():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "repro.obs.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "repro-trace" in proc.stdout
