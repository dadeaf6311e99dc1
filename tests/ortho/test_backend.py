"""Backend equivalence: NumPy vs distributed substrate."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla.multivector import DistMultiVector
from repro.ortho.backend import DistBackend, NumpyBackend
from repro.parallel.partition import Partition
from repro.sketch.operators import SparseSignSketch


@pytest.fixture
def backends(comm4):
    return NumpyBackend(), DistBackend(comm4), Partition(97, 4), comm4


def dist_of(arr, part, comm):
    return DistMultiVector.from_global(arr, part, comm)


class TestPrimitiveEquivalence:
    def test_dot(self, backends, rng):
        nb, db, part, comm = backends
        x = rng.standard_normal((97, 3))
        y = rng.standard_normal((97, 2))
        a = nb.dot(x, y)
        b = db.dot(dist_of(x, part, comm), dist_of(y, part, comm))
        np.testing.assert_allclose(a, b, rtol=1e-13)

    def test_fused_dots(self, backends, rng):
        nb, db, part, comm = backends
        x = rng.standard_normal((97, 3))
        seq = nb.fused_dots([(x, x)])
        dx = dist_of(x, part, comm)
        dist = db.fused_dots([(dx, dx)])
        np.testing.assert_allclose(seq[0], dist[0], rtol=1e-13)

    def test_update_trsm_scale(self, backends, rng):
        nb, db, part, comm = backends
        v = rng.standard_normal((97, 2))
        q = rng.standard_normal((97, 3))
        r = rng.standard_normal((3, 2))
        tri = np.triu(rng.standard_normal((2, 2))) + 2 * np.eye(2)
        v1 = v.copy()
        nb.update(v1, q, r)
        nb.trsm(v1, tri)
        nb.scale_cols(v1, np.array([2.0, 3.0]))
        dv = dist_of(v, part, comm)
        db.update(dv, dist_of(q, part, comm), r)
        db.trsm(dv, tri)
        db.scale_cols(dv, np.array([2.0, 3.0]))
        np.testing.assert_allclose(v1, dv.to_global(), rtol=1e-11)

    def test_norms(self, backends, rng):
        nb, db, part, comm = backends
        x = rng.standard_normal((97, 4))
        np.testing.assert_allclose(nb.norms(x),
                                   db.norms(dist_of(x, part, comm)),
                                   rtol=1e-13)

    def test_view_and_copy(self, backends, rng):
        nb, db, part, comm = backends
        x = rng.standard_normal((97, 4))
        dx = dist_of(x, part, comm)
        v_np = nb.view(x, slice(1, 3))
        v_db = db.view(dx, slice(1, 3))
        np.testing.assert_array_equal(v_np, v_db.to_global())
        assert db.n_cols(v_db) == 2
        assert db.n_rows_global(dx) == 97
        c = db.copy(dx)
        c.shards[0][...] = 0
        assert not np.allclose(dx.to_global(), c.to_global())

    def test_sketch_dot_bit_identical(self, backends, rng):
        nb, db, part, comm = backends
        x = rng.standard_normal((97, 3))
        op = SparseSignSketch(97, 16, seed=42)
        s_np = nb.sketch(x, op)
        s_db = db.sketch(dist_of(x, part, comm), op)
        # same hash maps; only the reduction tree differs
        np.testing.assert_allclose(s_np, s_db, rtol=1e-13, atol=1e-15)


class TestFactorizations:
    def test_householder_numpy_reconstructs(self, rng):
        nb = NumpyBackend()
        v = rng.standard_normal((60, 5))
        q = v.copy()
        r = nb.householder_qr(q)
        np.testing.assert_allclose(q @ r, v, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-13)
        assert np.all(np.diag(r) >= 0)

    def test_householder_dist_matches_numpy_quality(self, backends, rng):
        nb, db, part, comm = backends
        v = rng.standard_normal((97, 4))
        dv = dist_of(v, part, comm)
        r = db.householder_qr(dv)
        q = dv.to_global()
        np.testing.assert_allclose(q @ r, v, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)
        assert np.all(np.diag(r) >= 0)
        assert np.allclose(r, np.triu(r))

    def test_householder_dist_r_triangular_q_orthonormal(self, backends,
                                                         rng):
        """R exactly upper triangular, Q orthonormal to working
        precision."""
        nb, db, part, comm = backends
        v = rng.standard_normal((97, 4))
        dv = DistMultiVector.from_global(v, part, comm)
        stored = dv.to_global()
        r = db.householder_qr(dv)
        q = dv.to_global()
        ortho_tol = 1e-12
        assert np.array_equal(r, np.triu(r)) and np.all(np.diag(r) >= 0)
        assert np.abs(q.T @ q - np.eye(4)).max() <= ortho_tol
        assert (np.abs(q @ r - stored).max()
                <= 10 * ortho_tol * np.abs(stored).max())

    def test_householder_dist_charges_many_syncs(self, backends, rng):
        nb, db, part, comm = backends
        v = dist_of(rng.standard_normal((97, 4)), part, comm)
        before = comm.tracer.sync_count()
        db.householder_qr(v)
        # ~2 reductions per column in the factorization + 1 per column in
        # the explicit-Q rebuild: far more than CholQR's single reduce
        assert comm.tracer.sync_count() - before >= 2 * 4

    def test_tsqr_dist(self, backends, rng):
        nb, db, part, comm = backends
        v = rng.standard_normal((97, 5))
        dv = dist_of(v, part, comm)
        r = db.tsqr(dv)
        q = dv.to_global()
        np.testing.assert_allclose(q @ r, v, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(q.T @ q, np.eye(5), atol=1e-12)
        assert np.all(np.diag(r) >= 0)

    def test_tsqr_stable_on_illconditioned(self, comm4, rng):
        from repro.matrices.synthetic import logscaled_matrix
        db = DistBackend(comm4)
        part = Partition(500, 4)
        v = logscaled_matrix(500, 5, 1e12, rng)
        dv = dist_of(v, part, comm4)
        db.tsqr(dv)
        q = dv.to_global()
        # TSQR is unconditionally stable: O(eps) orthogonality regardless
        assert np.linalg.norm(np.eye(5) - q.T @ q, 2) < 1e-13

    def test_tsqr_numpy_fallback(self, rng):
        nb = NumpyBackend()
        v = rng.standard_normal((40, 3))
        q = v.copy()
        r = nb.tsqr(q)
        np.testing.assert_allclose(q @ r, v, rtol=1e-12)
