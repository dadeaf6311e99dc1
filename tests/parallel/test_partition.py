"""Partition invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import PartitionError
from repro.parallel.partition import Partition


class TestConstruction:
    @given(st.integers(min_value=1, max_value=10000),
           st.integers(min_value=1, max_value=64))
    def test_balanced_covers_all_rows(self, n, p):
        part = Partition(n, p)
        assert part.counts.sum() == n
        assert part.counts.min() >= n // p
        assert part.counts.max() <= n // p + 1

    def test_explicit_offsets(self):
        part = Partition(10, 3, offsets=np.array([0, 2, 2, 10]))
        assert part.local_count(0) == 2
        assert part.local_count(1) == 0
        assert part.local_count(2) == 8

    def test_bad_offsets_rejected(self):
        with pytest.raises(PartitionError):
            Partition(10, 2, offsets=np.array([0, 11, 10]))
        with pytest.raises(PartitionError):
            Partition(10, 2, offsets=np.array([1, 5, 10]))
        with pytest.raises(PartitionError):
            Partition(10, 2, offsets=np.array([0, 5]))

    def test_bad_sizes_rejected(self):
        with pytest.raises(Exception):
            Partition(0, 2)
        with pytest.raises(Exception):
            Partition(10, 0)


class TestOwnership:
    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=16))
    def test_owner_consistent_with_slices(self, n, p):
        part = Partition(n, p)
        for rank in range(p):
            sl = part.local_slice(rank)
            for row in range(sl.start, min(sl.stop, sl.start + 3)):
                assert part.owner(row) == rank

    def test_owners_vectorized(self):
        part = Partition(100, 4)
        rows = np.array([0, 24, 25, 99])
        owners = part.owners(rows)
        assert list(owners) == [part.owner(int(r)) for r in rows]

    def test_owner_out_of_range(self):
        part = Partition(10, 2)
        with pytest.raises(PartitionError):
            part.owner(10)
        with pytest.raises(PartitionError):
            part.owner(-1)

    def test_rank_out_of_range(self):
        part = Partition(10, 2)
        with pytest.raises(PartitionError):
            part.local_slice(2)


class TestEquality:
    def test_eq_and_hash(self):
        a = Partition(100, 4)
        b = Partition(100, 4)
        c = Partition(100, 5)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_max_local_count(self):
        part = Partition(10, 3)
        assert part.max_local_count() == 4


class TestDerivedStructure:
    """What the dense kernels read on every call, computed once."""

    def test_runs_of_equal_count_ranks(self):
        assert Partition(12, 4).runs == ((4, 0, 3),)
        assert Partition(14, 4).runs == ((2, 0, 4), (2, 8, 3))
        assert Partition(3, 5).runs == ((3, 0, 1), (2, 3, 0))
        ragged = Partition(10, 4, offsets=np.array([0, 1, 3, 6, 10]))
        assert ragged.runs == ((1, 0, 1), (1, 1, 2), (1, 3, 3), (1, 6, 4))
        assert Partition(12, 4).is_uniform and not ragged.is_uniform

    @given(st.integers(min_value=1, max_value=500),
           st.integers(min_value=1, max_value=40))
    def test_runs_and_slices_cover_the_ranks(self, n, p):
        part = Partition(n, p)
        assert len(part.runs) <= 2
        assert sum(ranks for ranks, _, _ in part.runs) == p
        assert [s.stop - s.start for s in part.local_slices] \
            == part.counts.tolist()
        row = 0
        for ranks, first_row, rows in part.runs:
            assert first_row == row
            row += ranks * rows
        assert row == n

    def test_counts_are_read_only(self):
        with pytest.raises(ValueError):
            Partition(10, 3).counts[0] = 7

    def test_identity_short_circuits_eq(self):
        part = Partition(10, 3)
        assert part == part
        assert part != "partition"
