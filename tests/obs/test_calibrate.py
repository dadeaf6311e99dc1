"""LogGP calibration: synthetic-stream fits with known ground truth."""

from __future__ import annotations

import math

import pytest

from repro.obs.calibrate import (DEFAULT_RANKS, CalibrationFit, calibrate,
                                 fit_machine)
from repro.parallel.costmodel import CostModel
from repro.parallel.machine import generic_cpu
from repro.parallel.tracing import SpanEvent

RANKS = 4


def _twin(name, phase, modeled_s, measured_s, t0=0.0, *, payload=None,
          driver_side=False):
    """One modeled/measured span pair for the same logical charge."""
    mod = SpanEvent(name, t0, t0 + modeled_s, phase, "modeled",
                    payload_bytes=payload, driver_side=driver_side)
    mea = SpanEvent(name, t0, t0 + measured_s, phase, "measured",
                    payload_bytes=payload, driver_side=driver_side)
    return [mod, mea]


def _net_parts(cost, payload, ranks=RANKS):
    """The exact (latency, wire) decomposition the fitter inverts."""
    m = cost.machine
    intra, inter = cost._tree_hops(ranks)
    lat = (2.0 * m.device_sync_latency + intra * m.net_latency_intra
           + inter * m.net_latency_inter)
    wire = (intra * payload / m.net_bandwidth_intra
            + inter * payload / m.net_bandwidth_inter)
    return lat, wire


def _synthetic_net_stream(base, lam, beta, payloads):
    """Collective pairs whose measured time is lam*L + beta*W exactly."""
    cost = CostModel(base)
    spans = []
    t = 0.0
    for payload in payloads:
        lat, wire = _net_parts(cost, payload)
        spans += _twin("allreduce", "ortho", lat + wire, lam * lat + beta * wire,
                       t, payload=payload)
        t += 1.0
    return spans


def _synthetic_kernel_stream(base, kappa, gamma, rates):
    """Local-kernel pairs with measured = kappa*fixed + gamma*rate."""
    spans = []
    t = 100.0
    for i, rate in enumerate(rates):
        name = "spmv_local" if i % 2 == 0 else "dot"
        fixed = base.kernel_latency
        if name == "spmv_local":
            fixed += base.spmv_fixed_overhead
        spans += _twin(name, "spmv", fixed + rate,
                       kappa * fixed + gamma * rate, t)
        t += 1.0
    return spans


class TestNetworkFit:
    def test_recovers_known_scales(self):
        base = generic_cpu()
        spans = _synthetic_net_stream(base, lam=3.0, beta=0.5,
                                      payloads=[8.0, 64.0, 1024.0, 65536.0])
        fit = calibrate(spans, base=base, ranks=RANKS)
        assert math.isclose(fit.lam_net, 3.0, rel_tol=1e-9)
        assert math.isclose(fit.beta_net, 0.5, rel_tol=1e-9)
        assert fit.n_net_pairs == 4 and fit.span_mismatches == 0

    def test_constants_rescaled_consistently(self):
        base = generic_cpu()
        spans = _synthetic_net_stream(base, lam=2.0, beta=4.0,
                                      payloads=[8.0, 512.0, 8192.0])
        m = calibrate(spans, base=base, ranks=RANKS).machine
        assert m.name == f"{base.name}-calibrated"
        assert math.isclose(m.net_latency_intra,
                            base.net_latency_intra * 2.0)
        assert math.isclose(m.device_sync_latency,
                            base.device_sync_latency * 2.0)
        # bandwidth DIVIDED by the wire scale: slower wire, lower bw
        assert math.isclose(m.net_bandwidth_inter,
                            base.net_bandwidth_inter / 4.0)

    def test_driver_side_collectives_excluded(self):
        """TSQR tree reductions run on the driver: they must count as
        excluded, not skew the latency estimate."""
        base = generic_cpu()
        spans = _synthetic_net_stream(base, lam=3.0, beta=0.5,
                                      payloads=[8.0, 64.0, 4096.0])
        # a driver-side allreduce whose measured time is wildly off
        spans += _twin("allreduce", "ortho", 1.0e-5, 17.0, 50.0,
                       payload=64.0, driver_side=True)
        fit = calibrate(spans, base=base, ranks=RANKS)
        assert fit.n_driver_excluded == 1
        assert fit.n_net_pairs == 3
        assert math.isclose(fit.lam_net, 3.0, rel_tol=1e-9)


class TestKernelFit:
    def test_recovers_known_scales(self):
        base = generic_cpu()
        spans = _synthetic_kernel_stream(
            base, kappa=2.0, gamma=8.0,
            rates=[1.0e-6, 5.0e-6, 4.0e-5, 3.0e-4])
        fit = calibrate(spans, base=base, ranks=RANKS)
        assert math.isclose(fit.kappa_kernel, 2.0, rel_tol=1e-6)
        assert math.isclose(fit.gamma_kernel, 8.0, rel_tol=1e-6)
        assert fit.n_kernel_pairs == 4

    def test_rate_scale_divides_machine_rates(self):
        base = generic_cpu()
        spans = _synthetic_kernel_stream(base, kappa=1.5, gamma=3.0,
                                         rates=[1.0e-6, 2.0e-5, 8.0e-4])
        m = calibrate(spans, base=base, ranks=RANKS).machine
        assert math.isclose(m.kernel_latency, base.kernel_latency * 1.5,
                            rel_tol=1e-4)
        assert math.isclose(m.spmv_fixed_overhead,
                            base.spmv_fixed_overhead * 1.5, rel_tol=1e-4)
        assert math.isclose(m.peak_flops, base.peak_flops / 3.0,
                            rel_tol=1e-4)
        assert math.isclose(m.host_flops, base.host_flops / 3.0,
                            rel_tol=1e-4)

    def test_host_kernel_is_pure_rate(self):
        """The host kernel has no launch latency: a host-only stream
        must leave kernel_latency untouched (scalar fallback aside)."""
        base = generic_cpu()
        spans = []
        for i, dur in enumerate([1.0e-5, 3.0e-5, 9.0e-5]):
            spans += _twin("host", "lsq", dur, 5.0 * dur, float(i))
        fit = calibrate(spans, base=base, ranks=RANKS)
        # one regressor identically zero -> scalar-ratio fallback
        assert math.isclose(fit.kappa_kernel, fit.gamma_kernel)
        assert math.isclose(fit.gamma_kernel, 5.0, rel_tol=1e-9)


class TestGuards:
    def test_empty_stream_returns_identity_fit(self):
        base = generic_cpu()
        fit = calibrate([], base=base)
        assert isinstance(fit, CalibrationFit)
        assert fit.machine is base
        assert (fit.lam_net, fit.beta_net) == (1.0, 1.0)
        assert (fit.kappa_kernel, fit.gamma_kernel) == (1.0, 1.0)
        assert fit.n_net_pairs == fit.n_kernel_pairs == 0

    def test_default_base_and_ranks(self):
        fit = calibrate([])
        assert fit.base.name == "summit"
        assert fit.ranks == DEFAULT_RANKS

    def test_ranks_inferred_from_rank_lanes(self):
        lanes = [SpanEvent("spmv_local", 0.0, 1.0, "spmv", "measured",
                           rank=r) for r in range(6)]
        fit = calibrate(lanes, base=generic_cpu())
        assert fit.ranks == 6

    def test_mismatched_streams_counted_not_fitted(self):
        base = generic_cpu()
        spans = [SpanEvent("dot", 0.0, 1.0, "ortho", "modeled"),
                 SpanEvent("halo", 0.0, 1.0, "spmv", "measured")]
        fit = calibrate(spans, base=base, ranks=RANKS)
        assert fit.span_mismatches == 1
        assert fit.machine is base

    def test_to_dict_carries_constants(self):
        import json
        base = generic_cpu()
        spans = _synthetic_net_stream(base, 2.0, 2.0, [8.0, 512.0])
        doc = calibrate(spans, base=base, ranks=RANKS).to_dict()
        json.dumps(doc)
        assert doc["base_machine"] == base.name
        assert set(doc["constants"]) == {
            "net_latency_intra", "net_latency_inter", "net_bandwidth_intra",
            "net_bandwidth_inter", "device_sync_latency", "kernel_latency",
            "spmv_fixed_overhead", "peak_flops", "mem_bandwidth",
            "host_flops"}

    def test_fit_machine_shorthand(self):
        base = generic_cpu()
        spans = _synthetic_net_stream(base, 2.0, 2.0, [8.0, 512.0])
        m = fit_machine(spans, base=base, ranks=RANKS)
        assert m.name.endswith("-calibrated")


class TestEndToEnd:
    @pytest.mark.parametrize("ranks", [2, 4])
    def test_sim_twin_streams_calibrate_toward_measured_scale(self, ranks):
        """Synthesize a 'measured' stream by uniformly scaling a real
        sim run's modeled spans 10x: the fitted machine must predict
        ~10x the base machine's durations for those same charges."""
        import numpy as np

        from repro.krylov.simulation import Simulation
        from repro.krylov.sstep_gmres import sstep_gmres
        from repro.matrices.stencil import laplace2d
        from repro.ortho.two_stage import TwoStageScheme

        sim = Simulation(laplace2d(12), ranks=ranks, machine=generic_cpu(),
                         spans=True)
        sstep_gmres(sim, np.ones(sim.n), s=3, restart=9, tol=1.0e-8,
                    maxiter=60, scheme=TwoStageScheme(9))
        modeled = sim.tracer.spans
        measured = [
            SpanEvent(s.name, s.t0 * 10.0, s.t0 * 10.0 + s.duration * 10.0,
                      s.phase, "measured", cat=s.cat, count=s.count,
                      payload_bytes=s.payload_bytes, cycle=s.cycle,
                      rank=s.rank, driver_side=s.driver_side)
            for s in modeled]
        fit = calibrate(modeled + measured, base=sim.machine, ranks=ranks)
        assert fit.n_kernel_pairs > 0
        assert math.isclose(fit.kappa_kernel, 10.0, rel_tol=1e-3)
        assert math.isclose(fit.gamma_kernel, 10.0, rel_tol=1e-3)
        if fit.n_net_pairs:
            assert math.isclose(fit.lam_net, 10.0, rel_tol=1e-3)
            assert math.isclose(fit.beta_net, 10.0, rel_tol=1e-3)
