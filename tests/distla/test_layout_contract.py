"""The storage layout contract and what the kernels may assume of it.

Every multivector — library-built or constructed from per-rank shards —
keeps its values in ONE column-major ``(n, k)`` array (Tpetra's
``LayoutLeft``): a basis vector is contiguous, a column range is one
contiguous slab, and every per-rank structure the engines derive from it
— shards, the rank stack, the equal-count run stacks, the whole-rank
tiles — is a strided view.  A reshape that
silently copied would be a silent slowdown (or, for an in-place kernel, a
silent no-op), and a C-ordered copy would silently undo the layout, so
both are pinned here.  The last test pins the consequence the hot kernels
rely on: none of them allocates anything ``(n, k)``-sized.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla import blas
from repro.distla import engine as eng
from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.matrices.stencil import laplace2d
from repro.parallel.api import make_comm
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

#: uniform, default ragged (two runs), explicit offsets (a run per rank,
#: one of them empty)
PARTITIONS = {
    "uniform": lambda: Partition(24, 4),
    "ragged": lambda: Partition(23, 4),
    "offsets": lambda: Partition(24, 5, offsets=np.array([0, 3, 3, 10, 17,
                                                          24])),
}


@pytest.fixture(params=["sim", "mp"])
def comm4(request):
    comm = make_comm(request.param, generic_cpu(), 4)
    yield comm
    comm.close()


def _library_built(part, comm):
    rng = np.random.default_rng(3)
    base = DistMultiVector.from_global(
        rng.standard_normal((part.n_global, 7)), part, comm)
    return {
        "zeros": DistMultiVector.zeros(part, comm, 3),
        "from_global": base,
        "copy": base.copy(),
        "view_cols": base.view_cols(slice(2, 6)),
        "copy of a view": base.view_cols(slice(2, 6)).copy(),
        "view of a view": base.view_cols(slice(1, 6)).view_cols(slice(1, 3)),
        "one column": base.view_cols(4),
        "from shards": DistMultiVector(
            part, comm, [np.array(s) for s in base.shards]),
    }


class TestColumnMajorStorage:
    def test_every_library_built_vector_is_column_major(self, comm4):
        part = Partition(23, 4)
        for how, mv in _library_built(part, comm4).items():
            flat = mv.flat
            assert flat.flags.f_contiguous, how
            assert flat.shape[1] == 1 or not flat.flags.c_contiguous, how
            assert flat.dtype == np.float64, how
            # a basis vector is contiguous
            assert flat[:, 0].flags.c_contiguous, how

    def test_copy_keeps_values_and_owns_its_storage(self, comm4):
        part = Partition(23, 4)
        base = DistMultiVector.from_global(
            np.arange(23.0 * 5).reshape(23, 5), part, comm4)
        view = base.view_cols(slice(1, 4))
        dup = view.copy()
        np.testing.assert_array_equal(dup.to_global(), view.to_global())
        assert not np.shares_memory(dup.flat, base.flat)
        assert dup.to_global().flags.c_contiguous  # the gather is C-ordered

    def test_shards_are_packed_not_aliased(self, comm4):
        """The constructor copies the arrays it is handed into storage
        of its own, so there is one storage form."""
        part = Partition(23, 4)
        shards = [np.full((rows, 2), float(r))
                  for r, rows in enumerate(part.counts.tolist())]
        mv = DistMultiVector(part, comm4, shards)
        assert mv.flat.shape == (23, 2) and mv.flat.flags.f_contiguous
        np.testing.assert_array_equal(mv.to_global(), np.concatenate(shards))
        assert not any(np.shares_memory(s, mv.flat) for s in shards)
        mv.fill(-1.0)
        assert [float(s[0, 0]) for s in shards] == [0.0, 1.0, 2.0, 3.0]

    def test_mp_copy_stays_in_shared_memory(self):
        """``copy()`` and the shard constructor allocate through the
        communicator, so the real-process SpMV can still reach their
        shards."""
        with make_comm("mp", generic_cpu(), 4) as comm:
            part = Partition(24, 4)
            x = DistMultiVector.from_global(np.ones(24), part, comm)
            packed = DistMultiVector(part, comm, [np.ones((6, 1))] * 4)
            a = DistSparseMatrix(
                sp.diags([1.0, 2.0, 1.0], [-1, 0, 1], shape=(24, 24)),
                part, comm)
            for mv in (x.copy(), packed):
                assert comm._describe(mv.stack) is not None
                assert comm.exec_spmv(a, mv, mv.copy()) is True


class TestDerivedStructureNeverCopies:
    @pytest.mark.parametrize("shape", PARTITIONS)
    def test_views_share_the_flat_array(self, shape):
        part = PARTITIONS[shape]()
        comm = SimComm(generic_cpu(), part.ranks, Tracer())
        for how, mv in _library_built(part, comm).items():
            flat, k = mv.flat, mv.n_cols
            for shard in mv.shards:
                assert not shard.size or np.shares_memory(shard, flat), how
            if part.is_uniform:
                assert np.shares_memory(mv.stack, flat), how
                # (rows * itemsize, itemsize, n * itemsize); the stride
                # of a length-1 column axis is arbitrary
                assert k == 1 or mv.stack.strides == (
                    flat.strides[0] * part.runs[0][2], *flat.strides), how
            else:
                assert mv.stack is None

            # the stacks the reductions run their batched matmul over
            seen = []
            eng._over_runs(
                part, lambda s: seen.append(s) or np.zeros((len(s), 1)), flat)
            assert len(seen) == len(part.runs)
            for stack in seen:
                assert not stack.size or np.shares_memory(stack, flat), how

            # the whole-rank tiles of the row-local GEMMs, in both the
            # (ranks, rows, k) and the transposed (k, ranks, rows) form
            covered = 0
            for rows, count, each in eng._rank_tiles(part, k):
                tile = flat[rows]
                covered += tile.shape[0]
                assert tile.shape[0] == count * each
                for view in (tile.reshape(count, each, k),
                             tile.T.reshape(k, count, each)):
                    assert np.shares_memory(view, flat), how
            assert covered == part.n_global


class TestHotKernelsAllocateNoPanelCopy:
    """A 5-column panel at column offset 30 of a ``(40000, 61)`` basis —
    the operands of one s-step panel — under ``tracemalloc``.  An
    ``(n, k)`` transpose or gather copy is 1.6 MB; one row tile is
    ``_TILE_ELEMS`` words.  Deterministic, no timing."""

    N, RANKS = 40_000, 24

    @pytest.fixture(scope="class")
    def operands(self):
        rng = np.random.default_rng(0)
        comm = SimComm(generic_cpu(), self.RANKS, Tracer())
        part = Partition(self.N, self.RANKS)
        basis = DistMultiVector.from_global(
            rng.standard_normal((self.N, 61)), part, comm)
        return {
            "basis": basis,
            "v": basis.view_cols(slice(30, 35)),
            "q": basis.view_cols(slice(0, 30)),
            "a": DistSparseMatrix(laplace2d(200), part, comm),
            "r": np.triu(np.eye(5) + 0.01 * rng.standard_normal((5, 5))),
            "p": 1e-3 * rng.standard_normal((30, 5)),
        }

    @staticmethod
    def _peak_bytes(call) -> int:
        call()  # memoized charges, lazily built shards
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_panel_kernels_stay_within_one_tile(self, operands):
        v, q, r, p = (operands[key] for key in "vqrp")
        tile = eng._TILE_ELEMS * 8
        assert tile < self.N * 5 * 8 / 4  # a panel copy cannot hide in it
        calls = {
            "trsm_inplace": lambda: blas.trsm_inplace(v, r),
            "block_update": lambda: blas.block_update(v, q, p),
            "block_dot_multi": lambda: blas.block_dot_multi([(q, v), (v, v)]),
        }
        for name, call in calls.items():
            assert self._peak_bytes(call) < tile, name

    def test_matvec_allocates_only_its_result(self, operands):
        basis, a = operands["basis"], operands["a"]
        x, y = basis.view_cols(30), basis.view_cols(31)
        peak = self._peak_bytes(lambda: a.matvec(x, out=y))
        assert peak < 1.5 * self.N * 8  # the product, no operand gather
