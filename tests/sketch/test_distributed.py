"""Distributed sketch application: engine equivalence, costs, syncs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import make_operator, sketch_multivector, sketch_rows

FAMILIES = ["sparse", "gaussian", "srht"]
M_ROWS = 24
K = 3


def sketch_under(engine: str, family: str, n: int, ranks: int,
                 seed: int = 17):
    comm = SimComm(generic_cpu(), ranks, Tracer(), engine=engine)
    part = Partition(n, ranks)
    rng = np.random.default_rng(0)
    v = DistMultiVector.from_global(rng.standard_normal((n, K)), part, comm)
    op = make_operator(family, n, M_ROWS, seed=seed)
    return sketch_multivector(v, op), comm.tracer, op, v


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("ranks,n", [(4, 96), (8, 96), (8, 101), (3, 37)],
                         ids=["uniform4", "uniform8", "ragged8", "ragged3"])
class TestEngineEquivalence:
    def test_bit_identical_across_engines(self, family, ranks, n):
        loop, _, _, _ = sketch_under("loop", family, n, ranks)
        batched, _, _, _ = sketch_under("batched", family, n, ranks)
        np.testing.assert_array_equal(batched, loop)

    def test_charged_costs_identical(self, family, ranks, n):
        _, t_loop, _, _ = sketch_under("loop", family, n, ranks)
        _, t_batched, _, _ = sketch_under("batched", family, n, ranks)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)

    def test_matches_in_memory_apply(self, family, ranks, n):
        out, _, op, v = sketch_under("batched", family, n, ranks)
        ref = op.apply(v.to_global())
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


def test_fp64_charged_costs_are_pinned():
    """Regression net for the word-size parameterization: the modeled
    seconds one sketch of an 8192 x 30 fp64 basis charges on 64 ranks
    (a wrong word size would be off by 2x; the tolerance only absorbs
    last-digit noise of the environment)."""
    n, ranks, k = 8_192, 64, 30
    comm = SimComm(generic_cpu(), ranks, Tracer())
    basis = DistMultiVector.from_global(
        np.random.default_rng(0).standard_normal((n, k)),
        Partition(n, ranks), comm)
    for family, seconds in (
            ("sparse", float.fromhex("0x1.ef2d33a98f6fbp-16")),
            ("gaussian", float.fromhex("0x1.8707a96930cb4p-16")),
            ("srht", float.fromhex("0x1.8707a96930cb4p-16"))):
        op = make_operator(family, n, sketch_rows(k, n, family=family),
                           seed=0xC0FFEE)
        before = comm.tracer.clock
        sketch_multivector(basis, op)
        assert comm.tracer.clock - before == pytest.approx(
            seconds, rel=1e-12), family


class TestProtocol:
    def test_single_synchronization(self):
        _, tracer, _, _ = sketch_under("loop", "sparse", 96, 8)
        assert tracer.sync_count() == 1
        _, tracer, _, _ = sketch_under("batched", "sparse", 96, 8)
        assert tracer.sync_count() == 1

    def test_rank_count_invariance(self):
        """The sketch is a property of (operator, V), not of the
        partition: different rank counts agree to reduction rounding."""
        ref, _, _, _ = sketch_under("loop", "sparse", 96, 2)
        for ranks in (3, 8):
            out, _, _, _ = sketch_under("batched", "sparse", 96, ranks)
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-14)

    def test_height_mismatch_rejected(self):
        comm = SimComm(generic_cpu(), 4, Tracer())
        part = Partition(96, 4)
        v = DistMultiVector.zeros(part, comm, K)
        op = make_operator("sparse", 97, M_ROWS, seed=0)
        with pytest.raises(ShapeError):
            sketch_multivector(v, op)


class TestFusedDotSketch:
    @pytest.mark.parametrize("n", [96, 101], ids=["uniform", "ragged"])
    def test_fused_matches_separate_and_one_sync(self, n):
        from repro.ortho.backend import DistBackend
        part = Partition(n, 8)
        rng = np.random.default_rng(5)
        q_arr = rng.standard_normal((n, 4))
        v_arr = rng.standard_normal((n, K))
        op = make_operator("sparse", n, M_ROWS, seed=9)
        for engine in ("loop", "batched"):
            comm = SimComm(generic_cpu(), 8, Tracer(), engine=engine)
            q = DistMultiVector.from_global(q_arr, part, comm)
            v = DistMultiVector.from_global(v_arr, part, comm)
            backend = DistBackend(comm)
            (p,), sv = backend.fused_dots_sketch([(q, v)], v, op)
            assert comm.tracer.sync_count() == 1
            np.testing.assert_allclose(p, backend.dot(q, v), rtol=1e-13)
            np.testing.assert_array_equal(sv, backend.sketch(v, op))
