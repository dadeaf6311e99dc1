"""``DistSparseMatrix.matvec`` equals the per-rank block products bit for bit.

The simulator computes every SpMV as ONE product with the global CSR
matrix.  The definition of the distributed kernel — and what the
real-process backend's workers run — is the per-rank product
``block_r @ x_global``.  This is the oracle; the property below holds
the production kernel to it byte for byte over partitions and
non-canonical CSR inputs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition


def raw_csr(rng: np.random.Generator, n: int) -> sp.csr_matrix:
    """Non-canonical CSR: per-row column indices drawn with replacement
    (unsorted, explicit duplicates), a fifth of the stored values exactly
    zero, magnitudes spread over twelve decades so that the order of a
    row's additions shows in the last bits."""
    row_nnz = rng.integers(0, 7, size=n)
    indptr = np.concatenate([[0], np.cumsum(row_nnz)])
    indices = rng.integers(0, n, size=int(indptr[-1]))
    data = (rng.standard_normal(indices.size)
            * 10.0 ** rng.uniform(-6.0, 6.0, indices.size))
    data[rng.random(indices.size) < 0.2] = 0.0
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


@st.composite
def partitions(draw, n: int) -> Partition:
    """Uniform (default block-row) or ragged with explicit cut points;
    repeated cut points give the empty shards ``Partition`` permits."""
    if draw(st.booleans()):
        ranks = draw(st.sampled_from(
            [r for r in (1, 2, 3, 4, 6, 8) if n % r == 0]))
        return Partition(n, ranks)
    ranks = draw(st.integers(min_value=1, max_value=7))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=ranks - 1,
                                max_size=ranks - 1)))
    return Partition(n, ranks, offsets=np.array([0, *cuts, n]))


def reference(da: DistSparseMatrix, x_global: np.ndarray
              ) -> list[np.ndarray]:
    """The per-block oracle: one product per rank."""
    return [block @ x_global
            for block in map(da.local_block, range(da.partition.ranks))]


def assert_bits(result: DistMultiVector, expected: list[np.ndarray]) -> None:
    assert len(result.shards) == len(expected)
    for rank, (got, want) in enumerate(zip(result.shards, expected)):
        assert got.dtype == want.dtype, rank
        assert got[:, 0].tobytes() == want.tobytes(), rank


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_matvec_equals_block_products(data, n, seed):
    rng = np.random.default_rng(seed)
    part = data.draw(partitions(n))
    comm = SimComm(generic_cpu(), part.ranks)
    da = DistSparseMatrix(raw_csr(rng, n), part, comm)
    x = DistMultiVector.from_global(rng.standard_normal(n), part, comm)
    x_global = x.to_global()[:, 0].copy()

    fresh = da.matvec(x)
    assert_bits(fresh, reference(da, x_global))

    # into a column of a wider vector: the strided write a basis takes
    basis = DistMultiVector.zeros(part, comm, 3)
    assert_bits(da.matvec(x, out=basis.view_cols(1)),
                reference(da, x_global))
    assert not basis.view_cols(0).to_global().any()
    assert not basis.view_cols(2).to_global().any()

    # ``out`` aliasing ``x``: the product completes before the write
    aliased = da.matvec(x, out=x)
    assert aliased is x
    assert_bits(x, reference(da, x_global))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       width=st.sampled_from([1, 3]))
def test_matvec_batched_equals_block_products(data, n, seed, width):
    rng = np.random.default_rng(seed)
    part = data.draw(partitions(n))
    comm = SimComm(generic_cpu(), part.ranks)
    da = DistSparseMatrix(raw_csr(rng, n), part, comm)
    xs = [DistMultiVector.from_global(rng.standard_normal(n), part, comm)
          for _ in range(width)]
    outs = [DistMultiVector.zeros(part, comm, 1) for _ in range(width)]
    results = da.matvec_batched(xs, outs)
    assert len(results) == width
    for x, out, res in zip(xs, outs, results):
        assert res is out
        assert_bits(out, reference(da, x.to_global()[:, 0]))


def test_caller_supplied_shards_scatter_by_offsets(comm4):
    """An output vector constructed from per-rank shards is written like
    any other: the constructor packed it into flat storage."""
    rng = np.random.default_rng(7)
    part = Partition(24, 4)
    da = DistSparseMatrix(raw_csr(rng, 24), part, comm4)
    x = DistMultiVector.from_global(rng.standard_normal(24), part, comm4)
    out = DistMultiVector(part, comm4, [np.zeros((6, 1)) for _ in range(4)])
    da.matvec(x, out=out)
    assert_bits(out, reference(da, x.to_global()[:, 0]))
