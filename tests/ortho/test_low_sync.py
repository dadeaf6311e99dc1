"""DCGS-2 low-synchronization Gram-Schmidt (paper ref. [25])."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EPS
from repro.exceptions import ConfigurationError, NumericalError
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho.analysis import orthogonality_error, representation_error
from repro.ortho.backend import DistBackend, NumpyBackend
from repro.ortho.low_sync import DCGS2Orthogonalizer


@pytest.fixture
def nb():
    return NumpyBackend()


def dcgs2_factor(backend, v) -> np.ndarray:
    """Orthonormalize ``v`` in place through the start / push / flush
    protocol; returns the upper-triangular R with ``Q R = V``."""
    k = backend.n_cols(v)
    r = np.zeros((k, k))
    ortho = DCGS2Orthogonalizer()
    r[0, 0] = ortho.start(backend, v)
    for j in range(1, k):
        col = ortho.push(j)
        if col is not None:
            r[: col.shape[0], j - 1] = col
    last = ortho.flush()
    r[: last.shape[0], k - 1] = last
    return r


class TestNumerics:
    def test_orthonormal_and_factorizes(self, nb, rng):
        v = rng.standard_normal((200, 10))
        q = v.copy()
        r = dcgs2_factor(nb, q)
        assert orthogonality_error(q) < 1000 * EPS
        assert np.allclose(r, np.triu(r))
        assert representation_error(v, q, r) < 1e-13

    def test_matches_cgs2_quality_on_moderate_conditioning(self, nb, rng):
        v = logscaled_matrix(500, 8, 1e6, rng)
        q = v.copy()
        dcgs2_factor(nb, q)
        assert orthogonality_error(q) < 1000 * EPS

    def test_diagonal_positive(self, nb, rng):
        v = rng.standard_normal((100, 6))
        r = dcgs2_factor(nb, v.copy())
        assert np.all(np.diag(r) > 0)

    def test_dependent_column_raises(self, nb, rng):
        v = rng.standard_normal((50, 3))
        v[:, 2] = v[:, 0] + v[:, 1]  # exactly dependent
        with pytest.raises(NumericalError):
            dcgs2_factor(nb, v.copy())

    def test_zero_seed_raises(self, nb):
        v = np.zeros((10, 2))
        with pytest.raises(NumericalError):
            dcgs2_factor(nb, v)


class TestProtocol:
    def test_push_out_of_order(self, nb, rng):
        v = rng.standard_normal((30, 4))
        ortho = DCGS2Orthogonalizer()
        ortho.start(nb, v)
        with pytest.raises(ConfigurationError):
            ortho.push(2)

    def test_push_before_start(self, nb, rng):
        with pytest.raises(ConfigurationError):
            DCGS2Orthogonalizer().push(1)

    def test_flush_without_pending(self, nb, rng):
        v = rng.standard_normal((30, 2))
        ortho = DCGS2Orthogonalizer()
        ortho.start(nb, v)
        with pytest.raises(ConfigurationError):
            ortho.flush()

    def test_first_push_returns_none(self, nb, rng):
        v = rng.standard_normal((30, 3))
        ortho = DCGS2Orthogonalizer()
        ortho.start(nb, v)
        assert ortho.push(1) is None


class TestSynchronization:
    def test_one_reduce_per_column(self, comm4, rng):
        from repro.distla.multivector import DistMultiVector
        from repro.parallel.partition import Partition
        part = Partition(200, 4)
        k = 8
        basis = DistMultiVector.from_global(rng.standard_normal((200, k)),
                                            part, comm4)
        db = DistBackend(comm4)
        ortho = DCGS2Orthogonalizer()
        ortho.start(db, basis)
        syncs_after_start = comm4.tracer.sync_count()
        assert syncs_after_start == 1
        for j in range(1, k):
            before = comm4.tracer.sync_count()
            ortho.push(j)
            assert comm4.tracer.sync_count() - before == 1  # THE reduce
        ortho.flush()
        # total: k + 1 reductions for k columns (vs 3k for CGS2)
        assert comm4.tracer.sync_count() == k + 1

    def test_distributed_matches_numpy(self, comm4, rng):
        from repro.distla.multivector import DistMultiVector
        from repro.parallel.partition import Partition
        part = Partition(150, 4)
        v = rng.standard_normal((150, 6))
        q_np = v.copy()
        r_np = dcgs2_factor(NumpyBackend(), q_np)
        dv = DistMultiVector.from_global(v, part, comm4)
        r_db = dcgs2_factor(DistBackend(comm4), dv)
        np.testing.assert_allclose(r_np, r_db, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(q_np, dv.to_global(), rtol=1e-10,
                                   atol=1e-12)
