"""Simulated communicator: tree reductions, fused collectives, accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import CommunicatorError
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.tracing import Tracer


class TestAllreduce:
    def test_sums_correctly(self, comm4):
        shards = [np.full((2, 2), float(r)) for r in range(4)]
        (out,) = comm4.allreduce([shards])
        np.testing.assert_array_equal(out, np.full((2, 2), 6.0))

    def test_tree_order_matches_pairwise(self, comm4):
        rng = np.random.default_rng(7)
        shards = [rng.standard_normal((3,)) for _ in range(4)]
        (out,) = comm4.allreduce([shards])
        expected = (shards[0] + shards[2]) + (shards[1] + shards[3])
        np.testing.assert_array_equal(out, expected)

    def test_charges_time_and_counts(self, comm4):
        before = comm4.tracer.clock
        comm4.allreduce([[np.zeros(4)] * 4])
        assert comm4.tracer.clock > before
        assert comm4.tracer.sync_count() == 1

    def test_wrong_shard_count(self, comm4):
        with pytest.raises(CommunicatorError):
            comm4.allreduce([[np.zeros(2)] * 3])

    def test_scalar(self, comm4):
        """Per-rank Python floats reduce as a 0-d group."""
        (out,) = comm4.allreduce([[1.0, 2.0, 3.0, 4.0]])
        assert out.shape == () and out == 10.0
        assert comm4.tracer.kernel_seconds("other", "allreduce") == \
            comm4.cost.allreduce(8.0, 4)


class TestFusedAllreduce:
    def test_single_latency_charge(self, comm4):
        g1 = [np.ones(3)] * 4
        g2 = [np.ones((2, 2))] * 4
        out = comm4.allreduce([g1, g2])
        np.testing.assert_array_equal(out[0], 4 * np.ones(3))
        np.testing.assert_array_equal(out[1], 4 * np.ones((2, 2)))
        assert comm4.tracer.sync_count() == 1  # ONE collective for both

    def test_fused_cheaper_than_separate(self):
        m = summit()
        a = SimComm(m, 24, Tracer())
        b = SimComm(m, 24, Tracer())
        payload = [np.ones(16)] * 24
        a.allreduce([payload, payload])
        b.allreduce([payload])
        b.allreduce([payload])
        assert a.tracer.clock < b.tracer.clock

    def test_empty(self, comm4):
        assert comm4.allreduce([]) == []
        assert comm4.tracer.clock == 0.0
        assert comm4.tracer.sync_count() == 0


class TestLocalCharges:
    def test_charge_halo(self, comm4):
        comm4.charge_halo([{1: 800.0}, {0: 800.0}, {3: 800.0}, {2: 800.0}])
        assert comm4.tracer.kernel_seconds("other", "halo") > 0

    def test_size_validation(self):
        with pytest.raises(CommunicatorError):
            SimComm(generic_cpu(), 0)


class TestAllreducePayloadWordSize:
    """Both transports move float64, so every reduced element charges an
    8-byte word whatever the contribution dtype."""

    def test_fp64_payload_matches_result_nbytes(self, comm4):
        shards = [np.ones((3, 3)) for _ in range(4)]
        comm4.allreduce([shards])
        expected = comm4.cost.allreduce(9 * 8.0, 4)
        assert comm4.tracer.kernel_seconds("other", "allreduce") == expected

    def test_fp32_contributions_charge_fp64_words(self):
        m = summit()
        a = SimComm(m, 24, Tracer())
        b = SimComm(m, 24, Tracer())
        a.allreduce([[np.ones((8, 8), dtype=np.float32)] * 24])
        b.allreduce([[np.ones((8, 8))] * 24])
        assert a.tracer.clock == a.cost.allreduce(64 * 8.0, 24)
        assert b.tracer.clock == b.cost.allreduce(64 * 8.0, 24)
        assert a.tracer.snapshot() == b.tracer.snapshot()

    def test_fp32_result_is_still_float64(self, comm4):
        """The reduction tree stays float64 regardless of what travels."""
        (out,) = comm4.allreduce([[np.ones(4, dtype=np.float32)] * 4])
        assert out.dtype == np.float64

    def test_stacked_variant_matches_loop_variant(self):
        m = summit()
        a = SimComm(m, 8, Tracer())
        b = SimComm(m, 8, Tracer())
        stack = np.ones((8, 4, 4), dtype=np.float32)
        (x,) = a.allreduce([stack])
        (y,) = b.allreduce([list(stack)])
        assert x.tobytes() == y.tobytes()
        assert a.tracer.clock == b.tracer.clock

    def test_fused_mixed_precision_groups(self):
        """Fused groups of any contribution dtype travel as fp64 words."""
        m = summit()
        comm = SimComm(m, 8, Tracer())
        g32 = [np.ones(16, dtype=np.float32)] * 8
        g64 = [np.ones(16)] * 8
        comm.allreduce([g32, g64])
        expected = comm.cost.allreduce(16 * 8.0 + 16 * 8.0, 8)
        assert comm.tracer.clock == expected
