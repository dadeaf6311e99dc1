"""Leader/follower charge fusion of lockstep members: the ``group()`` /
``member()`` scopes of the communicator and the ``_charge`` funnel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.costmodel import KernelCharge
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.tracing import Tracer


def fresh_comm(machine=None, ranks=8):
    return SimComm(machine or summit(), ranks, Tracer())


class TestScopes:
    def test_scopes_leave_no_state_behind(self):
        comm = fresh_comm()
        with comm.group():
            with comm.member():
                assert comm._cursor == {} and comm._fused == {}
            assert comm._cursor is None
        assert comm._fused is None
        # the funnel is the class's own method, never an instance patch
        assert "_charge" not in vars(comm)

    def test_scopes_close_when_a_member_raises(self):
        comm = fresh_comm()
        with pytest.raises(RuntimeError):
            with comm.group():
                with comm.member():
                    raise RuntimeError("member failed")
        assert comm._fused is None and comm._cursor is None

    def test_nested_group_is_inert(self):
        """A group opened inside a member (``matvec_batched`` under a
        block solve) neither resets the outer round's leadership nor
        fuses on its own: its charges are the enclosing member's."""
        nested, flat = fresh_comm(), fresh_comm()
        payload = np.ones(100)
        with nested.group():
            for _ in range(2):
                with nested.member():
                    with nested.group():
                        for _ in range(2):
                            with nested.member():
                                nested.allreduce([[payload] * nested.size])
        with flat.group():
            for _ in range(2):
                with flat.member():
                    for _ in range(2):
                        flat.allreduce([[payload] * flat.size])
        assert nested.tracer.to_dict() == flat.tracer.to_dict()
        assert nested.tracer.collective_counts()["allreduce"] == 2
        assert nested._fused is None and nested._cursor is None

    def test_member_outside_any_group_fuses_nothing(self):
        a, b = fresh_comm(), fresh_comm()
        for _ in range(2):
            with a.member():
                a.allreduce([[np.ones(4)] * a.size])
            b.allreduce([[np.ones(4)] * b.size])
        assert a.tracer.to_dict() == b.tracer.to_dict()

    def test_outside_member_charges_pass_through(self):
        """Charges between members (driver-side work) fuse nothing."""
        a, b = fresh_comm(), fresh_comm()
        with a.group():
            a.allreduce([[np.ones(4)] * a.size])
            a.allreduce([[np.ones(4)] * a.size])
        b.allreduce([[np.ones(4)] * b.size])
        b.allreduce([[np.ones(4)] * b.size])
        assert a.tracer.clock == b.tracer.clock
        assert (a.tracer.collective_counts()["allreduce"]
                == b.tracer.collective_counts()["allreduce"] == 2)


class TestFusion:
    def test_follower_pays_seconds_minus_fixed_cost(self):
        """Occurrence i of a kernel: first member charges in full, later
        members shed exactly the cost model's fixed (latency) part."""
        comm = fresh_comm()
        ref = fresh_comm()
        payload = np.ones(1000)
        ref.allreduce([[payload] * ref.size])
        full = ref.tracer.clock
        fixed = ref.cost.fixed_cost("allreduce", ref.size)
        assert 0.0 < fixed < full
        with comm.group():
            for _ in range(3):
                with comm.member():
                    comm.allreduce([[payload] * comm.size])
        assert comm.tracer.clock == pytest.approx(full + 2 * (full - fixed))

    def test_follower_count_is_zero_bytes_accumulate(self):
        """The collective count stays width-independent while payload
        bytes grow with the batch — the wire truth of message fusion."""
        comm = fresh_comm()
        with comm.group():
            for _ in range(4):
                with comm.member():
                    comm.allreduce([[np.ones(100)] * comm.size])
        counts = comm.tracer.collective_counts(payload_bytes=True)
        assert counts["allreduce"]["count"] == 1
        ref = fresh_comm()
        ref.allreduce([[np.ones(100)] * ref.size])
        ref_bytes = ref.tracer.collective_counts(
            payload_bytes=True)["allreduce"]["bytes"]
        assert counts["allreduce"]["bytes"] == 4 * ref_bytes

    def test_occurrence_matching_is_per_kernel_kind(self):
        """Members with different kernel interleavings still fuse by
        (kind, occurrence): the 2nd allreduce of member B fuses with the
        2nd of member A even if B skipped other work in between."""
        comm = fresh_comm()
        with comm.group():
            with comm.member():
                comm.allreduce([[np.ones(10)] * comm.size])
                comm.charge("dot", KernelCharge(1e-6, 0.0, 0.0))
                comm.allreduce([[np.ones(20)] * comm.size])
            with comm.member():
                comm.allreduce([[np.ones(10)] * comm.size])
                comm.allreduce([[np.ones(20)] * comm.size])
        assert comm.tracer.collective_counts()["allreduce"] == 2

    def test_follower_carries_its_whole_payload_and_shapes(self):
        """What the fused pass moves and computes grows with the batch:
        a follower sheds launch seconds, never bytes or flops."""
        comm = fresh_comm()
        charge = KernelCharge(seconds=1.0e-3, flops=64.0, mem_bytes=512.0)
        with comm.group():
            for _ in range(3):
                with comm.member():
                    comm.charge("dot", charge)
        t, key = comm.tracer, ("other", "dot")
        fixed = comm.cost.fixed_cost("dot", comm.size)
        assert t.counts[key] == 1
        assert t.flops[key] == 3 * 64.0
        assert t.mem_bytes[key] == 3 * 512.0
        assert t.clock == pytest.approx(3 * 1.0e-3 - 2 * fixed)

    def test_new_group_resets_leadership(self):
        comm = fresh_comm()
        for _ in range(2):
            with comm.group():
                with comm.member():
                    comm.allreduce([[np.ones(10)] * comm.size])
        # two groups -> two leaders -> two counted collectives
        assert comm.tracer.collective_counts()["allreduce"] == 2

    def test_width_one_is_charge_identical(self):
        """A single member is always the leader: the batch wrapper is
        a no-op for width 1 (the degenerate-case contract)."""
        batched, plain = fresh_comm(), fresh_comm()
        with batched.group():
            with batched.member():
                batched.allreduce([[np.ones(64)] * batched.size])
                batched.charge_halo([{1: 256.0}] * batched.size)
        plain.allreduce([[np.ones(64)] * plain.size])
        plain.charge_halo([{1: 256.0}] * plain.size)
        assert batched.tracer.clock == plain.tracer.clock
        assert (batched.tracer.collective_counts(payload_bytes=True)
                == plain.tracer.collective_counts(payload_bytes=True))

    def test_follower_seconds_never_negative(self):
        """A follower cheaper than the fixed cost clamps to zero."""
        comm = fresh_comm(machine=generic_cpu(), ranks=4)
        with comm.group():
            for _ in range(2):
                with comm.member():
                    comm.allreduce([[np.ones(1)] * comm.size])
        ref = fresh_comm(machine=generic_cpu(), ranks=4)
        ref.allreduce([[np.ones(1)] * ref.size])
        assert comm.tracer.clock >= ref.tracer.clock
