"""MetricsSnapshot: a view of a tracer's totals and charge spans —
derived gauges, duration histograms, Prometheus text."""

from __future__ import annotations

import json
import math

import numpy as np

from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.metrics import DURATION_BUCKETS, MetricsSnapshot
from repro.ortho.backend import DistBackend
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import CostModel, KernelCharge
from repro.parallel.machine import generic_cpu
from repro.parallel.tracing import Tracer


def _tracer() -> Tracer:
    t = Tracer()
    t.enable_spans()
    return t


def _snap(t: Tracer, ranks=4) -> MetricsSnapshot:
    return MetricsSnapshot.of(t, t.spans, generic_cpu(), ranks)


class TestRecord:
    """What a charge's record counts (the facts the old pending queue
    and its rank fan-out used to state)."""

    def test_record_totals_the_shapes_of_its_evaluation(self):
        cost = CostModel(generic_cpu())
        charge = cost.record(lambda c: [c.gemm(100, 3, 2), c.gemm(50, 3, 2)])
        assert charge.seconds == cost.gemm(100, 3, 2)      # slowest rank
        assert charge.flops == 2.0 * (100 + 50) * 3 * 2
        assert charge.mem_bytes == 8.0 * (150 * 3 + 2 * 3 * 2 + 150 * 2)
        # the recorder lived for that evaluation alone: the model the
        # caller holds keeps nothing, and a second record starts empty
        assert cost._shapes is None
        assert cost.record(lambda c: 0.5) == KernelCharge(0.5, 0.0, 0.0)

    def test_uniform_charge_counts_ranks_times_one_shard(self):
        """One shard costed, every rank executing it: ``times(ranks)``
        fans the shapes out, the seconds stay one shard's."""
        cost = CostModel(generic_cpu())
        one = cost.record(lambda c: c.gemm(100, 3, 2))
        fanned = cost.record(lambda c: c.times(4).gemm(100, 3, 2))
        assert fanned == KernelCharge(one.seconds, 4 * one.flops,
                                      4 * one.mem_bytes)
        # ... which is what evaluating it per rank totals
        assert fanned == cost.record(
            lambda c: [c.gemm(100, 3, 2) for _ in range(4)])

    def test_host_flops_count_once_per_rank(self):
        comm = SimComm(generic_cpu(), 4, Tracer())
        with comm.tracer.phase("ortho"):
            DistBackend(comm).host_flops(1000.0)
        t, key = comm.tracer, ("ortho", "host")
        assert t.by_kernel[key] == 1000.0 / comm.machine.host_flops
        assert (t.flops[key], t.mem_bytes[key]) == (4000.0, 0.0)

    def test_collectives_feed_net_bytes_not_flops(self):
        comm = SimComm(generic_cpu(), 4, Tracer())
        with comm.tracer.phase("ortho"):
            comm.allreduce([np.ones((4, 8))])
        with comm.tracer.phase("spmv"):
            comm.charge_halo([{1: 256.0}, {0: 256.0}, {}, {}])
        comm.tracer.add("dot", 0.1, payload_bytes=999.0)  # not a collective
        snap = _snap(comm.tracer)
        assert snap.net_bytes == {"allreduce": 64.0, "halo": 256.0}
        assert not comm.tracer.flops and not comm.tracer.mem_bytes
        assert snap.totals["flops"] == 0.0

    def test_flops_are_carried_whether_or_not_metrics_are_on(self):
        docs = []
        for metrics in (False, True):
            sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu(),
                             metrics=metrics)
            sstep_gmres(sim, np.ones(sim.n), s=3, restart=9, tol=1.0e-8,
                        maxiter=18)
            docs.append(sim.tracer.to_dict())
        assert docs[0] == docs[1]
        assert sum(docs[0]["flops"].values()) > 0.0


class TestSnapshot:
    def test_rows_are_read_off_the_tracer(self):
        t = _tracer()
        with t.phase("ortho"):
            t.add("dot", 0.5, count=2, flops=100.0, mem_bytes=800.0,
                  driver_side=True)
            t.add("dot", 0.25, flops=50.0, mem_bytes=400.0)
        row = _snap(t).kernels[("ortho", "dot")]
        assert row["seconds"] == 0.75 and row["calls"] == 3
        assert row["flops"] == 150.0 and row["mem_bytes"] == 1200.0
        assert row["driver_seconds"] == 0.5

    def test_derived_gauges(self):
        t, m = _tracer(), generic_cpu()
        with t.phase("ortho"):
            t.add("dot", 0.5, flops=1.0e9, mem_bytes=2.0e8)
        row = _snap(t, ranks=4).kernels[("ortho", "dot")]
        assert math.isclose(row["arithmetic_intensity"], 5.0)
        assert math.isclose(row["flop_utilization"],
                            1.0e9 / (0.5 * 4 * m.peak_flops))
        assert math.isclose(row["mem_bw_utilization"],
                            2.0e8 / (0.5 * 4 * m.mem_bandwidth))

    def test_totals_cover_all_kernels(self):
        t = _tracer()
        with t.phase("ortho"):
            t.add("dot", 0.5, flops=100.0, mem_bytes=50.0)
        with t.phase("spmv"):
            t.add("halo", 0.1, payload_bytes=64.0)
        snap = _snap(t)
        assert snap.totals["seconds"] == 0.6
        assert snap.totals["flops"] == 100.0
        assert snap.totals["net_bytes"] == 64.0
        assert math.isclose(snap.totals["arithmetic_intensity"], 2.0)

    def test_zero_byte_kernel_has_no_intensity_gauge(self):
        t = _tracer()
        with t.phase("ortho"):
            t.add("allreduce", 0.1, payload_bytes=8.0)
        row = _snap(t).kernels[("ortho", "allreduce")]
        assert "arithmetic_intensity" not in row
        assert "flop_utilization" in row  # seconds > 0

    def test_to_dict_flattens_keys_and_is_json_safe(self):
        t = _tracer()
        with t.phase("ortho"):
            t.add("dot", 0.5, count=2, flops=10.0, mem_bytes=5.0,
                  driver_side=True)
        doc = _snap(t).to_dict()
        json.dumps(doc)
        assert doc["machine"] == generic_cpu().name
        assert doc["kernels"]["ortho/dot"]["calls"] == 2
        assert doc["kernels"]["ortho/dot"]["driver_seconds"] == 0.5

    def test_histogram_buckets_are_cumulative_with_inf(self):
        t = _tracer()
        t.add("dot", DURATION_BUCKETS[0] / 2)
        t.add("dot", DURATION_BUCKETS[3])
        t.add("dot", DURATION_BUCKETS[-1] * 10)
        h = _snap(t).histograms["dot"]
        les = [le for le, _ in h["buckets"]]
        counts = [n for _, n in h["buckets"]]
        assert les[-1] == float("inf")
        assert counts == sorted(counts)  # cumulative
        assert counts[0] == 1 and counts[3] == 2 and counts[-1] == 3
        assert h["count"] == 3

    def test_snapshot_is_repeatable(self):
        t = _tracer()
        t.add("dot", 0.5)
        assert _snap(t).to_dict() == _snap(t).to_dict()

    def test_histograms_are_a_view_of_the_charge_spans(self):
        """Totals belong to the tracer (charged before spans recorded,
        they still show); histograms count the charge spans given — not
        phase envelopes or rank lanes."""
        t = Tracer()
        t.add("dot", 0.5)
        t.enable_spans()
        with t.phase("ortho"):
            t.add("dot", 0.25)
        t.record_span("dot", 0.0, 1.0, rank=2)
        snap = _snap(t)
        assert snap.kernels[("other", "dot")]["seconds"] == 0.5
        assert snap.kernels[("ortho", "dot")]["seconds"] == 0.25
        assert snap.histograms == {"dot": {
            "buckets": snap.histograms["dot"]["buckets"],
            "sum": 0.25, "count": 1}}
        assert MetricsSnapshot.of(t, [], generic_cpu(), 4).histograms == {}


class TestPrometheus:
    def _snap(self):
        t = _tracer()
        with t.phase("ortho"):
            t.add("dot", 0.5, count=2, flops=1.0e6, mem_bytes=1.0e5,
                  driver_side=True)
            t.add("allreduce", 0.1, payload_bytes=64.0)
        return _snap(t)

    def test_exposition_format(self):
        text = self._snap().to_prometheus()
        assert text.endswith("\n")
        assert "# TYPE repro_kernel_seconds_total counter" in text
        assert ('repro_kernel_seconds_total{phase="ortho",kernel="dot"} 0.5'
                in text)
        assert 'repro_net_bytes_total{kind="allreduce"} 64.0' in text
        assert "# TYPE repro_arithmetic_intensity gauge" in text
        assert ('repro_kernel_driver_seconds_total'
                '{phase="ortho",kernel="dot"} 0.5') in text

    def test_totals_row_and_histogram(self):
        text = self._snap().to_prometheus()
        assert 'repro_roofline_flop_utilization{phase="all",kernel="all"}' \
            in text
        assert "# TYPE repro_kernel_duration_seconds histogram" in text
        assert 'repro_kernel_duration_seconds_bucket{kernel="dot",le="+Inf"}' \
            in text
        # one charge (count=2 calls) is one histogram sample
        assert 'repro_kernel_duration_seconds_count{kernel="dot"} 1' in text


class TestSimulationIntegration:
    def _solve(self, **sim_kw):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu(),
                         **sim_kw)
        res = sstep_gmres(sim, np.ones(sim.n), s=3, restart=9, tol=1.0e-8,
                          maxiter=100, scheme=TwoStageScheme(9))
        return sim, res

    def test_disabled_by_default(self):
        sim, res = self._solve()
        assert sim.metrics is False
        assert res.metrics == {}
        assert sim.metrics_doc() == {}
        assert not sim.tracer.spans_enabled

    def test_spans_alone_leave_metrics_doc_empty(self):
        sim, res = self._solve(spans=True)
        assert sim.tracer.spans and res.metrics == sim.metrics_doc() == {}

    def test_metrics_record_the_modeled_span_stream(self):
        sim, res = self._solve(metrics=True)
        spans = sim.tracer.spans
        assert res.metrics == sim.metrics_doc() == MetricsSnapshot.of(
            sim.tracer, spans, sim.machine, sim.ranks).to_dict()
        charges = sum(s.is_charge for s in spans)
        assert charges == sum(h["count"]
                              for h in res.metrics["histograms"].values())

    def test_enabled_snapshot_rides_on_result(self):
        sim, res = self._solve(metrics=True)
        assert res.metrics["machine"] == sim.machine.name
        assert res.metrics["ranks"] == 4
        assert res.metrics["totals"]["flops"] > 0.0
        assert res.metrics["net_bytes"]["allreduce"] > 0.0
        # seconds in the snapshot match the tracer's accumulators
        assert math.isclose(res.metrics["totals"]["seconds"],
                            sum(sim.tracer.by_phase.values()))

    def test_enable_metrics_is_idempotent(self):
        sim, _ = self._solve(metrics=True)
        doc = sim.metrics_doc()
        sim.enable_metrics()
        assert sim.metrics is True and sim.metrics_doc() == doc

    def test_prometheus_from_live_solve(self):
        sim, _ = self._solve(metrics=True)
        text = MetricsSnapshot.of(sim.tracer, sim.tracer.spans, sim.machine,
                                  sim.ranks).to_prometheus()
        assert "repro_kernel_flops_total" in text
        assert 'kind="halo"' in text

    def test_counters_are_engine_invariant(self):
        """Loop costs every rank's shard; batched costs one shard per run
        of equal-count ranks and counts it per rank — the aggregate flop,
        memory-byte, and wire-byte counters must agree exactly."""
        totals = {}
        for engine in ("loop", "batched"):
            sim, res = self._solve(metrics=True, engine=engine)
            totals[engine] = res.metrics["totals"]
        for field in ("flops", "mem_bytes", "net_bytes", "seconds"):
            assert totals["loop"][field] == totals["batched"][field], field
