"""DistMultiVector: scatter/gather, views, conformality."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.krylov.simulation import Simulation
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition


@pytest.fixture
def part() -> Partition:
    return Partition(37, 4)  # deliberately non-divisible


class TestRoundtrip:
    def test_from_global_to_global(self, part, comm4, rng):
        arr = rng.standard_normal((37, 3))
        mv = DistMultiVector.from_global(arr, part, comm4)
        np.testing.assert_array_equal(mv.to_global(), arr)

    def test_1d_promoted(self, part, comm4):
        mv = DistMultiVector.from_global(np.ones(37), part, comm4)
        assert mv.shape == (37, 1)

    def test_zeros(self, part, comm4):
        mv = DistMultiVector.zeros(part, comm4, 5)
        assert mv.shape == (37, 5)
        assert np.all(mv.to_global() == 0)

    def test_wrong_length_rejected(self, part, comm4):
        with pytest.raises(ShapeError):
            DistMultiVector.from_global(np.ones(36), part, comm4)


class TestInputDtype:
    def test_non_real_refused_real_copied_exactly(self, part, comm4):
        """Every vector stores float64.  Complex input is refused by
        every constructor, naming its dtype, with no ``ComplexWarning``
        and no truncation; float32 and integer input lands exactly."""
        z = np.ones(37) * (1 + 2j)
        sim = Simulation(sp.identity(37, format="csr"), ranks=4,
                         machine=generic_cpu())
        for build in (
                lambda: DistMultiVector.from_global(z, part, comm4),
                lambda: DistMultiVector(
                    part, comm4, [z[rows, None] for rows in part.local_slices]),
                lambda: sim.vector_from(z)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ShapeError, match="complex128"):
                    build()
        f32 = (np.arange(37) / 3.0).astype(np.float32)
        ints = np.arange(37, dtype=np.int64) * 2**40 + 1
        for arr in (f32, ints):
            exact = arr.astype(np.float64)
            for mv in (DistMultiVector.from_global(arr, part, comm4),
                       DistMultiVector(part, comm4, [
                           arr[rows, None] for rows in part.local_slices]),
                       sim.vector_from(arr)):
                assert mv.flat.dtype == np.float64
                assert mv.to_global()[:, 0].tobytes() == exact.tobytes()


class TestViews:
    def test_view_aliases_storage(self, part, comm4, rng):
        arr = rng.standard_normal((37, 4))
        mv = DistMultiVector.from_global(arr, part, comm4)
        view = mv.view_cols(slice(1, 3))
        view.shards[0][...] = 0.0
        assert np.all(mv.shards[0][:, 1:3] == 0.0)

    def test_int_view_is_single_column(self, part, comm4):
        mv = DistMultiVector.zeros(part, comm4, 4)
        assert mv.view_cols(2).n_cols == 1

    def test_copy_is_independent(self, part, comm4, rng):
        mv = DistMultiVector.from_global(rng.standard_normal((37, 2)),
                                         part, comm4)
        cp = mv.copy()
        cp.shards[0][...] = 99.0
        assert not np.any(mv.shards[0] == 99.0)

    def test_assign_and_fill(self, part, comm4, rng):
        a = DistMultiVector.from_global(rng.standard_normal((37, 2)),
                                        part, comm4)
        b = DistMultiVector.zeros(part, comm4, 2)
        b.assign_from(a)
        np.testing.assert_array_equal(b.to_global(), a.to_global())
        b.fill(7.0)
        assert np.all(b.to_global() == 7.0)

    def test_conformality_checks(self, part, comm4):
        a = DistMultiVector.zeros(part, comm4, 2)
        b = DistMultiVector.zeros(part, comm4, 3)
        with pytest.raises(ShapeError):
            a.assign_from(b)

    def test_shard_shape_validation(self, part, comm4):
        shards = [np.zeros((part.local_count(r), 2)) for r in range(4)]
        shards[2] = np.zeros((1, 2))
        with pytest.raises(ShapeError):
            DistMultiVector(part, comm4, shards)
