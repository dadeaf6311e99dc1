"""Set-up of a ``DistSparseMatrix`` without per-rank row blocks.

The matrix keeps only the global CSR: the halo analysis reads it
whole, the ``spmv_local`` charge reads each rank's nonzeros off its
``indptr``, and ``local_block(r)`` slices a rank's rows when asked.
These tests hold that set-up to the per-block one it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import ghost_oracle as oracle
from repro.distla.spmatrix import DistSparseMatrix
from repro.matrices.stencil import laplace2d
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer


def tridiag(n: int) -> sp.csr_matrix:
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsr()


def _unsorted_with_zeros() -> sp.csr_matrix:
    """Rows stored in descending column order, with explicit zeros."""
    a = sp.csr_matrix(laplace2d(6, stencil=9))
    a.data[::5] = 0.0
    for lo, hi in zip(a.indptr[:-1], a.indptr[1:]):
        a.indices[lo:hi] = a.indices[lo:hi][::-1].copy()
        a.data[lo:hi] = a.data[lo:hi][::-1].copy()
    a.has_sorted_indices = False
    return a


#: The matrices and partitions of ``test_halo.py``, and a ragged one
#: with empty ranks over unsorted rows with stored zeros.
CASES = {
    "tridiag-16x4": (lambda: tridiag(16), lambda n: Partition(n, 4)),
    "tridiag-12x3": (lambda: tridiag(12), lambda n: Partition(n, 3)),
    "tridiag-9x1": (lambda: tridiag(9), lambda n: Partition(n, 1)),
    "laplace-20x8": (lambda: laplace2d(20), lambda n: Partition(n, 8)),
    "laplace-12x6": (lambda: laplace2d(12), lambda n: Partition(n, 6)),
    "laplace-8x4": (lambda: laplace2d(8), lambda n: Partition(n, 4)),
    "laplace9-7x5": (lambda: laplace2d(7, stencil=9),
                     lambda n: Partition(n, 5)),
    "block-diag-12x3": (lambda: sp.block_diag([tridiag(4)] * 3).tocsr(),
                        lambda n: Partition(n, 3)),
    "ragged-empty-unsorted": (
        _unsorted_with_zeros,
        lambda n: Partition(n, 5, offsets=np.array([0, 0, 9, 9, 30, n]))),
}


def _build(case: str):
    make_a, make_part = CASES[case]
    a = make_a()
    part = make_part(a.shape[0])
    comm = SimComm(generic_cpu(), part.ranks, Tracer())
    return a, part, DistSparseMatrix(a, part, comm)


def _blocks(a: sp.csr_matrix, part: Partition) -> list[sp.csr_matrix]:
    return [a[part.local_slice(r), :].tocsr() for r in range(part.ranks)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_local_block_is_the_row_slice(case):
    a, part, matrix = _build(case)
    for rank, want in enumerate(_blocks(a, part)):
        got = matrix.local_block(rank)
        assert isinstance(got, sp.csr_matrix)
        assert got.shape == want.shape
        for field in ("data", "indices", "indptr"):
            assert getattr(got, field).dtype == getattr(want, field).dtype
            assert getattr(got, field).tobytes() == \
                getattr(want, field).tobytes(), (rank, field)


@pytest.mark.parametrize("case", sorted(CASES))
def test_halo_plan_equals_per_block_analysis(case):
    a, part, matrix = _build(case)
    recv, counts = oracle.halo_fields(_blocks(a, part), part)
    assert [list(d.items()) for d in matrix.halo.recv_counts_by_peer] == \
        [list(d.items()) for d in recv]
    np.testing.assert_array_equal(matrix.halo.halo_counts, counts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_spmv_record_equals_per_block_record(case):
    a, part, matrix = _build(case)
    cost = matrix.comm.cost
    halo = matrix.halo.halo_counts
    want = cost.record(lambda c: [
        c.spmv(block.nnz, block.shape[0],
               part.local_count(rank) + int(halo[rank]))
        for rank, block in enumerate(_blocks(a, part))])
    got = matrix._local_spmv_charge(cost)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_construction_slices_no_rank_block(monkeypatch):
    """Building the matrix makes as many scipy submatrix calls on 192
    ranks as on one (per-rank slicing made one per rank)."""
    calls = []
    getitem = sp.csr_matrix.__getitem__

    def counted(self, key):
        calls.append(key)
        return getitem(self, key)

    monkeypatch.setattr(sp.csr_matrix, "__getitem__", counted)

    def submatrix_calls(ranks: int) -> int:
        calls.clear()
        DistSparseMatrix(laplace2d(24), Partition(576, ranks),
                         SimComm(generic_cpu(), ranks, Tracer()))
        return len(calls)

    assert submatrix_calls(192) == submatrix_calls(1)
