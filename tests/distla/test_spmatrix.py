"""Distributed sparse matrix: SpMV equivalence and halo analysis."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ShapeError
from repro.matrices.stencil import laplace2d
from repro.parallel.partition import Partition


class TestMatvec:
    def test_matches_scipy(self, comm4, rng):
        a = laplace2d(10)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = rng.standard_normal(a.shape[0])
        dx = DistMultiVector.from_global(x, part, comm4)
        y = da.matvec(dx)
        np.testing.assert_allclose(y.to_global()[:, 0], a @ x, rtol=1e-13)

    def test_out_parameter_reused(self, comm4, rng):
        a = laplace2d(8)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = DistMultiVector.from_global(rng.standard_normal(a.shape[0]),
                                        part, comm4)
        out = DistMultiVector.zeros(part, comm4, 1)
        res = da.matvec(x, out=out)
        assert res is out

    def test_multicolumn_rejected(self, comm4):
        a = laplace2d(8)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = DistMultiVector.zeros(part, comm4, 2)
        with pytest.raises(ShapeError):
            da.matvec(x)

    def test_charges_halo_and_local(self, comm4, rng):
        a = laplace2d(10)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = DistMultiVector.from_global(rng.standard_normal(a.shape[0]),
                                        part, comm4)
        with comm4.tracer.phase("spmv"):
            da.matvec(x)
        assert comm4.tracer.kernel_seconds("spmv", "halo") > 0
        assert comm4.tracer.kernel_seconds("spmv", "spmv_local") > 0


class TestHaloPlan:
    def test_block_diagonal_has_no_halo(self, comm4):
        blocks = [sp.random(10, 10, density=0.5, random_state=1) + sp.eye(10)
                  for _ in range(4)]
        a = sp.block_diag(blocks).tocsr()
        part = Partition(40, 4)
        da = DistSparseMatrix(a, part, comm4)
        assert all(not peers for peers in da.halo.recv_bytes())
        assert np.all(da.halo.halo_counts == 0)

    def test_tridiagonal_touches_neighbours_only(self, comm4):
        n = 40
        a = sp.diags([np.ones(n - 1), 2 * np.ones(n), np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        part = Partition(n, 4)
        da = DistSparseMatrix(a, part, comm4)
        for rank, peers in enumerate(da.halo.recv_bytes()):
            for peer in peers:
                assert abs(peer - rank) == 1
        # interior ranks see exactly two external entries (one per side)
        assert da.halo.halo_counts[1] == 2

    def test_laplace2d_halo_is_one_grid_row(self, comm4):
        nx = 12
        a = laplace2d(nx)
        part = Partition(nx * nx, 4)
        da = DistSparseMatrix(a, part, comm4)
        # interior ranks need one grid row from each side
        assert da.halo.halo_counts[1] == 2 * nx

    def test_diagonal_and_shape(self, comm4):
        a = laplace2d(6)
        part = Partition(36, 4)
        da = DistSparseMatrix(a, part, comm4)
        np.testing.assert_array_equal(da.diagonal(), a.diagonal())
        assert da.shape == (36, 36)
        assert da.nnz == a.nnz

    def test_to_scipy_roundtrip(self, comm4):
        a = laplace2d(6)
        da = DistSparseMatrix(a, Partition(36, 4), comm4)
        assert (da.to_scipy() != a).nnz == 0

    @pytest.mark.parametrize("offsets", [None, [0, 1, 1, 30, 36]],
                             ids=["uniform", "ragged"])
    def test_to_scipy_is_a_copy_of_the_input(self, comm4, offsets):
        a = laplace2d(6)
        part = Partition(36, 4, offsets=None if offsets is None
                         else np.array(offsets))
        da = DistSparseMatrix(a, part, comm4)
        back = da.to_scipy()
        assert back.format == "csr" and back.shape == a.shape
        for attr in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(back, attr),
                                          getattr(a, attr))
        # a copy: scribbling on it reaches neither the matrix nor the input
        back.data[:] = 0.0
        assert (da.to_scipy() != a).nnz == 0
        x = DistMultiVector.from_global(np.ones(36), part, comm4)
        np.testing.assert_array_equal(da.matvec(x).to_global()[:, 0],
                                      a @ np.ones(36))

    def test_rectangular_rejected(self, comm4):
        with pytest.raises(ShapeError):
            DistSparseMatrix(sp.random(5, 6), Partition(5, 4), comm4)

    def test_partition_mismatch_rejected(self, comm4):
        with pytest.raises(ShapeError):
            DistSparseMatrix(laplace2d(6), Partition(35, 4), comm4)
