"""MpComm: real-process reductions bit-identical to SimComm, the
modeled twin, shared-memory stacks, and lifecycle hygiene."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dd.linalg import matmul_dd
from repro.exceptions import CommunicatorError
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import KernelCharge
from repro.parallel.machine import generic_cpu
from repro.parallel.mp_backend import MpComm, _reduce_schedule
from repro.parallel.tracing import Tracer


@pytest.fixture(scope="module")
def mp4():
    comm = MpComm(generic_cpu(), 4, Tracer())
    yield comm
    comm.close()


def _pair(size):
    """A fresh (SimComm, MpComm) pair of the same size."""
    return (SimComm(generic_cpu(), size, Tracer()),
            MpComm(generic_cpu(), size, Tracer()))


class TestReduceSchedule:
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 7, 8])
    def test_mirrors_tree_sum(self, size):
        """Folding the schedule's (a, b) pairs level by level reproduces
        SimComm._fold's pairing exactly."""
        rng = np.random.default_rng(size)
        items = rng.standard_normal((size, 5))
        slots = [x.copy() for x in items]
        for level in _reduce_schedule(size):
            for a, b in level:
                slots[a] = slots[a] + slots[b]
        assert slots[0].tobytes() == SimComm._fold(items).tobytes()


class TestBitIdenticalReductions:
    """Every collective, byte-for-byte against the simulator."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    def test_allreduce_sum(self, size):
        rng = np.random.default_rng(size)
        shards = [rng.standard_normal((3, 2)) for _ in range(size)]
        sim, mp = _pair(size)
        try:
            (a,) = sim.allreduce([[s.copy() for s in shards]])
            (b,) = mp.allreduce([[s.copy() for s in shards]])
            assert a.tobytes() == b.tobytes()
        finally:
            mp.close()

    def test_allreduce_sum_f32_contributions(self, mp4):
        rng = np.random.default_rng(0)
        shards = [rng.standard_normal((4,)).astype(np.float32)
                  for _ in range(4)]
        sim = SimComm(generic_cpu(), 4, Tracer())
        (a,) = sim.allreduce([[s.copy() for s in shards]])
        (b,) = mp4.allreduce([[s.copy() for s in shards]])
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()

    def test_allreduce_scalar(self, mp4):
        vals = [0.1, 0.2, 0.3, 0.7]
        sim = SimComm(generic_cpu(), 4, Tracer())
        (a,) = sim.allreduce([vals])
        (b,) = mp4.allreduce([vals])
        assert a.shape == b.shape == ()
        assert a.tobytes() == b.tobytes()

    def test_fused_allreduce_sum(self, mp4):
        rng = np.random.default_rng(1)
        g1 = [rng.standard_normal((2, 2)) for _ in range(4)]
        g2 = [rng.standard_normal((3,)) for _ in range(4)]
        sim = SimComm(generic_cpu(), 4, Tracer())
        a = sim.allreduce([[s.copy() for s in g] for g in (g1, g2)])
        b = mp4.allreduce([[s.copy() for s in g] for g in (g1, g2)])
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_stacked_variants(self, mp4):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((4, 3, 2))
        sim = SimComm(generic_cpu(), 4, Tracer())
        assert (sim.allreduce([stack.copy()])[0].tobytes()
                == mp4.allreduce([stack.copy()])[0].tobytes())
        s2 = rng.standard_normal((4, 5))
        a = sim.allreduce([stack.copy(), s2.copy()])
        b = mp4.allreduce([stack.copy(), s2.copy()])
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_allreduce_dd(self, mp4):
        rng = np.random.default_rng(3)
        pairs = [matmul_dd(rng.standard_normal((6, 2)),
                           rng.standard_normal((6, 2))) for _ in range(4)]
        his = [p[0] for p in pairs]
        los = [p[1] for p in pairs]
        sim = SimComm(generic_cpu(), 4, Tracer())
        ah, al = sim.allreduce_dd([h.copy() for h in his],
                                  [lo.copy() for lo in los])
        bh, bl = mp4.allreduce_dd([h.copy() for h in his],
                                  [lo.copy() for lo in los])
        assert ah.tobytes() == bh.tobytes()
        assert al.tobytes() == bl.tobytes()


class TestModeledTwin:
    def test_twin_matches_sim_charges_exactly(self):
        """Running the same collective/charge sequence on both backends
        leaves the mp modeled twin equal to the sim tracer — clock,
        kernels, counts."""
        rng = np.random.default_rng(9)
        shards = [rng.standard_normal((4, 4)) for _ in range(3)]
        sim, mp = _pair(3)
        try:
            for comm in (sim, mp):
                with comm.tracer.phase("ortho"):
                    comm.allreduce([[s.copy() for s in shards]])
                with comm.tracer.phase("spmv"):
                    comm.charge("spmv_local", KernelCharge(3e-4, 60.0, 480.0))
                    comm.charge_halo([{1: 640.0}, {0: 640.0}, {0: 64.0}])
                comm.charge("host", KernelCharge(5e-5, 30.0, 240.0))
            assert mp.modeled.snapshot() == sim.tracer.snapshot()
            # the shapes land on the modeled twin only
            assert mp.modeled.flops == {("spmv", "spmv_local"): 60.0,
                                        ("other", "host"): 30.0}
            assert not mp.tracer.flops and not mp.tracer.mem_bytes
        finally:
            mp.close()

    def test_measured_tracer_records_wall_clock(self, mp4):
        before = mp4.tracer.clock
        mp4.allreduce([np.ones((4, 64))])
        assert mp4.tracer.clock > before
        assert mp4.tracer.sync_count() >= 1

    def test_phase_stack_aliased(self, mp4):
        """One phase region attributes both streams."""
        with mp4.tracer.phase("ortho"):
            mp4.allreduce([np.ones((4, 8))])
        assert ("ortho", "allreduce") in mp4.tracer.by_kernel
        assert ("ortho", "allreduce") in mp4.modeled.by_kernel


class TestSharedStacks:
    def test_alloc_column_major_zeroed(self, mp4):
        flat = mp4.alloc(28, 2)
        assert flat.shape == (28, 2)
        assert flat.dtype == np.float64
        assert flat.flags.f_contiguous
        assert not flat.any()
        flat[9, 1] = 3.0  # writable shared memory
        assert flat[9, 1] == 3.0

    def test_describe_finds_strided_views(self, mp4):
        flat = mp4.alloc(24, 3)
        view = flat[:, 1:2].reshape(4, 6, 1)  # one column as a rank stack
        assert np.shares_memory(view, flat)
        desc = mp4._describe(view)
        assert desc is not None
        assert desc["shape"] == view.shape
        assert desc["strides"] == view.strides
        assert mp4._describe(flat[3:, ::2]) is not None  # non-contiguous
        private = np.zeros((24, 3), order="F")
        assert mp4._describe(private) is None


class TestValidationAndLifecycle:
    def test_contribution_count_checked(self, mp4):
        with pytest.raises(CommunicatorError):
            mp4.allreduce([[np.zeros(2)] * 3])

    def test_close_idempotent_and_rejects_use(self):
        comm = MpComm(generic_cpu(), 2, Tracer())
        assert comm.allreduce([[1.0, 1.0]])[0] == 2.0
        comm.close()
        comm.close()
        with pytest.raises(CommunicatorError):
            comm.allreduce([[1.0, 1.0]])
        assert "closed" in repr(comm)

    def test_context_manager_closes(self):
        with MpComm(generic_cpu(), 2, Tracer()) as comm:
            comm.allreduce([[1.0, 2.0]])
        with pytest.raises(CommunicatorError):
            comm.allreduce([[1.0, 2.0]])

    def test_size_one_works(self):
        with MpComm(generic_cpu(), 1, Tracer()) as comm:
            (out,) = comm.allreduce([[np.arange(3.0)]])
            np.testing.assert_array_equal(out, np.arange(3.0))
