"""Nonblocking collectives: overlap-window charging semantics.

These pin the LogGP-style contract of the ``post_*``/``wait`` API on the
simulated communicator: posted collectives drain FIFO under compute
charges, ``wait`` charges only the exposed remainder, and results are
bit-identical to the blocking calls (both run the same pack -> fold ->
unpack core).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CommunicatorError
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import KernelCharge
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.tracing import Tracer


def blocking_cost(comm, payload_elems: int) -> float:
    return comm.cost.allreduce(payload_elems * 8.0, comm.size)


def charge_compute(comm, seconds: float) -> None:
    """Charge ``seconds`` of local work inside the overlap window."""
    comm.charge("spmv", KernelCharge(seconds, 0.0, 0.0))


class TestResultsBitIdentical:
    def test_posted_allreduce_matches_blocking(self, comm4):
        rng = np.random.default_rng(3)
        shards = [rng.standard_normal((3, 2)) for _ in range(4)]
        (blocking,) = SimComm(generic_cpu(), 4, Tracer()).allreduce([shards])
        req = comm4.post_allreduce([shards])
        (posted,) = comm4.wait(req)
        assert posted.tobytes() == blocking.tobytes()

    def test_posted_fused_matches_blocking(self, comm4):
        rng = np.random.default_rng(4)
        g1 = [rng.standard_normal(5) for _ in range(4)]
        g2 = [rng.standard_normal((2, 2)) for _ in range(4)]
        blocking = SimComm(generic_cpu(), 4, Tracer()).allreduce([g1, g2])
        posted = comm4.wait(comm4.post_allreduce([g1, g2]))
        for p, b in zip(posted, blocking):
            assert p.tobytes() == b.tobytes()

    def test_posted_stacked_matches_loop_variant(self, comm4):
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((4, 3, 3))
        blocking = SimComm(generic_cpu(), 4, Tracer()).allreduce(
            [list(stack)])
        posted = comm4.wait(comm4.post_allreduce([stack]))
        assert posted[0].tobytes() == blocking[0].tobytes()


class TestChargeSemantics:
    def test_wait_before_compute_charges_full_cost(self, comm4):
        """No intervening compute: the window is empty and the wait is
        charge-identical to the blocking collective."""
        shards = [np.ones(16)] * 4
        req = comm4.post_allreduce([shards])
        assert comm4.tracer.clock == 0.0  # post itself is free
        comm4.wait(req)
        assert comm4.tracer.clock == blocking_cost(comm4, 16)
        assert comm4.tracer.overlapped_seconds() == 0.0

    def test_compute_exceeding_inflight_hides_fully(self, comm4):
        """Enough compute between post and wait: the wait charges zero
        seconds (but still counts), and the full cost shows up as
        overlapped."""
        shards = [np.ones(16)] * 4
        full = blocking_cost(comm4, 16)
        req = comm4.post_allreduce([shards])
        charge_compute(comm4, 10.0 * full)
        before = comm4.tracer.clock
        comm4.wait(req)
        assert comm4.tracer.clock == before  # zero exposed seconds
        assert comm4.tracer.sync_count() == 1
        assert comm4.tracer.overlapped_seconds() == pytest.approx(full)

    def test_partial_drain_charges_remainder(self, comm4):
        shards = [np.ones(1024)] * 4
        full = blocking_cost(comm4, 1024)
        compute = 0.25 * full
        req = comm4.post_allreduce([shards])
        charge_compute(comm4, compute)
        comm4.wait(req)
        assert comm4.tracer.kernel_seconds("other", "allreduce") == \
            pytest.approx(full - compute)
        assert comm4.tracer.overlapped_seconds() == pytest.approx(compute)
        # total elapsed = compute + exposed remainder, not compute + full
        assert comm4.tracer.clock == pytest.approx(full)

    def test_nested_posts_drain_fifo(self, comm4):
        """Two in-flight requests: compute drains the OLDEST first."""
        shards = [np.ones(1024)] * 4
        full = blocking_cost(comm4, 1024)
        first = comm4.post_allreduce([shards])
        second = comm4.post_allreduce([shards])
        charge_compute(comm4, 1.5 * full)
        assert first.hidden == pytest.approx(full)      # fully drained
        assert second.hidden == pytest.approx(0.5 * full)  # the spill
        comm4.wait(first)
        comm4.wait(second)
        assert comm4.tracer.kernel_seconds("other", "allreduce") == \
            pytest.approx(0.5 * full)

    def test_wait_does_not_drain_queued_requests(self, comm4):
        """Serialized NIC: the exposed remainder of waiting the head
        request cannot progress the one queued behind it."""
        shards = [np.ones(1024)] * 4
        full = blocking_cost(comm4, 1024)
        first = comm4.post_allreduce([shards])
        second = comm4.post_allreduce([shards])
        comm4.wait(first)  # charges `full` exposed seconds
        assert second.hidden == 0.0
        comm4.wait(second)
        assert comm4.tracer.clock == pytest.approx(2.0 * full)

    def test_posted_total_never_below_compute_plus_zero(self, comm4):
        """Overlap can at best hide the whole collective: clock with
        posting is within [compute, compute + full]."""
        shards = [np.ones(64)] * 4
        full = blocking_cost(comm4, 64)
        for factor in (0.0, 0.3, 1.0, 2.5):
            comm = SimComm(generic_cpu(), 4, Tracer())
            req = comm.post_allreduce([shards])
            if factor:
                charge_compute(comm, factor * full)
            comm.wait(req)
            compute = factor * full
            assert compute <= comm.tracer.clock <= compute + full + 1e-18
            assert comm.tracer.clock == pytest.approx(max(compute, full))

    def test_counts_unchanged_vs_blocking(self, comm4):
        """post contributes no collective count; wait counts exactly 1."""
        shards = [np.ones(8)] * 4
        req = comm4.post_allreduce([shards])
        assert comm4.tracer.sync_count() == 0
        charge_compute(comm4, 1.0)
        comm4.wait(req)
        assert comm4.tracer.sync_count() == 1

    def test_empty_fused_post_is_zero_cost(self, comm4):
        req = comm4.post_allreduce([])
        assert req.seconds == 0.0 and req.payload_bytes == 0.0
        assert comm4.wait(req) == []
        assert comm4.tracer.clock == 0.0


class TestPostedHalo:
    def test_posted_halo_matches_blocking_charge(self):
        a = SimComm(summit(), 8, Tracer())
        b = SimComm(summit(), 8, Tracer())
        recv = [{(r + 1) % 8: 4096.0, (r - 1) % 8: 4096.0} for r in range(8)]
        b.charge_halo(recv)
        a.wait(a.post_ihalo(recv))
        assert a.tracer.clock == b.tracer.clock
        assert a.tracer.kernel_seconds("other", "halo") == \
            b.tracer.kernel_seconds("other", "halo")

    def test_posted_halo_hides_behind_spmv(self):
        comm = SimComm(summit(), 8, Tracer())
        recv = [{(r + 1) % 8: 4096.0} for r in range(8)]
        req = comm.post_ihalo(recv)
        charge_compute(comm, 1.0)  # way more than the halo
        comm.wait(req)
        assert comm.tracer.kernel_seconds("other", "halo") == 0.0
        assert comm.tracer.overlapped_seconds(kernel="halo") > 0.0

    def test_descriptor_count_validated(self, comm4):
        with pytest.raises(CommunicatorError):
            comm4.post_ihalo([{0: 1.0}] * 3)


class TestWaitErrors:
    def test_double_wait_raises(self, comm4):
        req = comm4.post_allreduce([[np.ones(2)] * 4])
        comm4.wait(req)
        with pytest.raises(CommunicatorError, match="twice"):
            comm4.wait(req)

    def test_foreign_request_raises(self, comm4):
        other = SimComm(generic_cpu(), 4, Tracer())
        req = other.post_allreduce([[np.ones(2)] * 4])
        with pytest.raises(CommunicatorError, match="different communicator"):
            comm4.wait(req)


class TestOverlapSpans:
    def test_post_marker_and_window_span(self, comm4):
        comm4.tracer.enable_spans()
        shards = [np.ones(16)] * 4
        req = comm4.post_allreduce([shards])
        charge_compute(comm4, 1e-3)
        comm4.wait(req)
        cats = {s.cat: s for s in comm4.tracer.spans}
        post = cats["post"]
        assert post.duration == 0.0  # zero-duration wire marker
        window = cats["comm_overlap"]
        assert window.t0 == post.t0
        assert window.duration == pytest.approx(1e-3)  # post .. wait-start

    def test_no_window_span_without_compute(self, comm4):
        comm4.tracer.enable_spans()
        comm4.wait(comm4.post_allreduce([[np.ones(4)] * 4]))
        assert all(s.cat != "comm_overlap" for s in comm4.tracer.spans)

    def test_exposed_charge_span_carries_overlapped(self, comm4):
        comm4.tracer.enable_spans()
        req = comm4.post_allreduce([[np.ones(2048)] * 4])
        charge_compute(comm4, 1e-7)
        comm4.wait(req)
        charge = [s for s in comm4.tracer.spans
                  if s.cat == "kernel" and s.name == "allreduce"][-1]
        assert charge.overlapped_seconds == pytest.approx(1e-7)
        assert charge.to_dict()["overlapped_seconds"] == \
            charge.overlapped_seconds


class TestTracerOverlapAccounting:
    def test_totals_carry_overlapped_dimension(self, comm4):
        snap = comm4.tracer.snapshot()
        req = comm4.post_allreduce([[np.ones(2048)] * 4])
        charge_compute(comm4, 1e-7)
        comm4.wait(req)
        totals = comm4.tracer.since(snap)
        assert totals.overlapped[("other", "allreduce")] == \
            pytest.approx(1e-7)
        doc = totals.to_dict()
        assert doc["overlapped"]["other/allreduce"] == pytest.approx(1e-7)

    def test_report_mentions_hidden_comm(self, comm4):
        req = comm4.post_allreduce([[np.ones(2048)] * 4])
        charge_compute(comm4, 1e-7)
        comm4.wait(req)
        assert "hidden comm" in comm4.tracer.report()

    def test_reset_clears_overlapped(self, comm4):
        req = comm4.post_allreduce([[np.ones(2048)] * 4])
        charge_compute(comm4, 1e-7)
        comm4.wait(req)
        comm4.tracer.reset()
        assert comm4.tracer.overlapped_seconds() == 0.0
