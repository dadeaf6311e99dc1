"""BatchCharges: leader/follower charge fusion on the ``_charge`` funnel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.parallel.batch import BatchCharges
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.tracing import Tracer


def fresh_comm(machine=None, ranks=8):
    return SimComm(machine or summit(), ranks, Tracer())


class TestInstallation:
    def test_install_and_restore(self):
        comm = fresh_comm()
        orig = comm._charge
        with BatchCharges(comm):
            assert "_charge" in vars(comm)
        assert "_charge" not in vars(comm)
        assert comm._charge == orig

    def test_nested_installation_is_inert(self):
        comm = fresh_comm()
        with BatchCharges(comm) as outer:
            installed = comm._charge
            with BatchCharges(comm) as inner:
                # inner must NOT re-wrap the already-wrapped funnel
                assert comm._charge is installed
                assert not inner._installed
            # ... and must not tear the outer wrapper down on exit
            assert comm._charge is installed
            assert outer._installed

    def test_outside_member_charges_pass_through(self):
        """Charges between members (driver-side work) fuse nothing."""
        a, b = fresh_comm(), fresh_comm()
        with BatchCharges(a) as batch:
            with batch.group():
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
        with BatchCharges(comm) as batch:
            with batch.group():
                for _ in range(3):
                    with batch.member():
                        comm.allreduce([[payload] * comm.size])
        assert comm.tracer.clock == pytest.approx(full + 2 * (full - fixed))

    def test_follower_count_is_zero_bytes_accumulate(self):
        """The collective count stays width-independent while payload
        bytes grow with the batch — the wire truth of message fusion."""
        comm = fresh_comm()
        with BatchCharges(comm) as batch:
            with batch.group():
                for _ in range(4):
                    with batch.member():
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
        with BatchCharges(comm) as batch:
            with batch.group():
                with batch.member():
                    comm.allreduce([[np.ones(10)] * comm.size])
                    comm.charge_local("dot", [1e-6] * comm.size)
                    comm.allreduce([[np.ones(20)] * comm.size])
                with batch.member():
                    comm.allreduce([[np.ones(10)] * comm.size])
                    comm.allreduce([[np.ones(20)] * comm.size])
        assert comm.tracer.collective_counts()["allreduce"] == 2

    def test_new_group_resets_leadership(self):
        comm = fresh_comm()
        with BatchCharges(comm) as batch:
            for _ in range(2):
                with batch.group():
                    with batch.member():
                        comm.allreduce([[np.ones(10)] * comm.size])
        # two groups -> two leaders -> two counted collectives
        assert comm.tracer.collective_counts()["allreduce"] == 2

    def test_width_one_is_charge_identical(self):
        """A single member is always the leader: the batch wrapper is
        a no-op for width 1 (the degenerate-case contract)."""
        batched, plain = fresh_comm(), fresh_comm()
        with BatchCharges(batched) as batch:
            with batch.group():
                with batch.member():
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
        with BatchCharges(comm) as batch:
            with batch.group():
                for _ in range(2):
                    with batch.member():
                        comm.allreduce([[np.ones(1)] * comm.size])
        ref = fresh_comm(machine=generic_cpu(), ranks=4)
        ref.allreduce([[np.ones(1)] * ref.size])
        assert comm.tracer.clock >= ref.tracer.clock
