"""``DistSparseMatrix.matvec_batched``: one charged pass, per-member values.

Results are bit-identical to per-member ``matvec`` calls, and the
modeled charges fuse so a width-``b`` panel is ONE charged pass — the
halo count stays width-independent while payload bytes accumulate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ShapeError
from repro.matrices.stencil import laplace2d
from repro.parallel.communicator import SimComm
from repro.parallel.machine import summit
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

RANKS, WIDTH = 4, 3


def fresh_comm():
    return SimComm(summit(), RANKS, Tracer())


class TestMatvecBatched:
    def test_values_match_loop_and_halo_fuses(self):
        def setup():
            comm = fresh_comm()
            part = Partition(256, RANKS)
            mat = DistSparseMatrix(laplace2d(16), part, comm)
            rng = np.random.default_rng(2)
            xs = [DistMultiVector.from_global(
                rng.standard_normal((256, 1)), part, comm)
                for _ in range(WIDTH)]
            return comm, mat, xs

        comm_b, mat_b, xs_b = setup()
        outs = mat_b.matvec_batched(xs_b)
        comm_l, mat_l, xs_l = setup()
        refs = [mat_l.matvec(x) for x in xs_l]
        for out, ref in zip(outs, refs):
            np.testing.assert_array_equal(out.to_global(), ref.to_global())
        fused = comm_b.tracer.collective_counts(payload_bytes=True)
        serial = comm_l.tracer.collective_counts(payload_bytes=True)
        assert fused["halo"]["count"] == 1
        assert serial["halo"]["count"] == WIDTH
        assert fused["halo"]["bytes"] == serial["halo"]["bytes"]

    def test_outs_length_validated(self):
        comm = fresh_comm()
        part = Partition(256, RANKS)
        mat = DistSparseMatrix(laplace2d(16), part, comm)
        x = DistMultiVector.zeros(part, comm, 1)
        with pytest.raises(ShapeError, match="output"):
            mat.matvec_batched([x, x], outs=[None])
