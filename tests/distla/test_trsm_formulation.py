"""``trsm_inplace``: one formulation per width, for both engines.

A panel of at most ``_TRSM_BLOCK`` columns is the elementwise column
sweep; a wider one is one BLAS ``dtrsm`` per rank's rows (held to that
call byte for byte in ``test_trsm_wide.py``).  What that buys, and what
is pinned here:

* a panel of at most one block is the sweep alone, so its result for a
  row depends on that row alone — bit-identical on ANY partition, tiling,
  engine and operand (column view of a wider basis or standalone);
* wider panels are loop == batched bit for bit (the same per-rank call);
* the result is backward stable, also for an ill-conditioned ``R``;
* unsolvable input is rejected before a single row is written.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distla import blas
from repro.distla.engine import _TRSM_BLOCK
from repro.distla.multivector import DistMultiVector
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

ENGINES = ("loop", "batched")
EPS = np.finfo(np.float64).eps


def _upper(rng, k, cond=None):
    """Random upper-triangular ``R``; with ``cond``, singular values
    graded from 1 down to ``1 / cond``."""
    if cond is None:
        return np.triu(rng.standard_normal((k, k))) + 3.0 * np.eye(k)
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    w, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return np.linalg.qr((u * np.logspace(0, -np.log10(cond), k)) @ w.T)[1]


def _solve(v, r, part, engine, offset=None):
    """``trsm_inplace`` on ``v`` scattered over ``part``: standalone, or
    as the column view at ``offset`` of a wider basis."""
    comm = SimComm(generic_cpu(), part.ranks, Tracer(), engine=engine)
    n, k = v.shape
    if offset is None:
        mv = DistMultiVector.from_global(v, part, comm)
    else:
        wide = np.full((n, offset + k + 2), np.nan)
        wide[:, offset:offset + k] = v
        basis = DistMultiVector.from_global(wide, part, comm)
        mv = basis.view_cols(slice(offset, offset + k))
    blas.trsm_inplace(mv, r)
    return mv.to_global()


class TestNarrowPanelsIgnoreThePartition:
    """``k <= _TRSM_BLOCK``: the sweep alone."""

    N = 2000  # ragged on 7, 24 and 192 ranks

    @pytest.mark.parametrize("k", [1, 2, 5, 6, _TRSM_BLOCK])
    def test_bit_identical_on_any_partition_engine_and_operand(self, k):
        rng = np.random.default_rng(k)
        v = rng.standard_normal((self.N, k))
        r = _upper(rng, k)
        want = _solve(v, r, Partition(self.N, 1), "loop")
        cuts = np.sort(rng.choice(self.N, size=9, replace=False))
        partitions = [Partition(self.N, ranks) for ranks in (7, 24, 192)]
        partitions.append(
            Partition(self.N, 10, offsets=np.array([0, *cuts, self.N])))
        for part in partitions:
            for engine in ENGINES:
                for offset in (None, 30):
                    got = _solve(v, r, part, engine, offset)
                    assert got.tobytes() == want.tobytes(), (
                        part.ranks, engine, offset)

    def test_matches_the_textbook_column_sweep(self):
        """``x_j = (v_j - sum_i x_i r_ij) / r_jj``, one elementwise
        multiply and subtract per term, in order of ``i``."""
        rng = np.random.default_rng(1)
        v = rng.standard_normal((self.N, 6))
        r = _upper(rng, 6)
        x = v.copy()
        for j in range(6):
            for i in range(j):
                x[:, j] = x[:, j] - x[:, i] * r[i, j]
            x[:, j] = x[:, j] / r[j, j]
        got = _solve(v, r, Partition(self.N, 24), "batched", offset=30)
        assert got.tobytes() == x.tobytes()


@st.composite
def _partitions(draw, n):
    if draw(st.booleans()):
        return Partition(n, draw(st.integers(1, 9)))
    ranks = draw(st.integers(1, 7))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=ranks - 1,
                                max_size=ranks - 1)))
    return Partition(n, ranks, offsets=np.array([0, *cuts, n]))


class TestEveryWidth:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 300), k=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1),
           offset=st.sampled_from([None, 3]))
    def test_loop_equals_batched(self, data, n, k, seed, offset):
        part = data.draw(_partitions(n))
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, k))
        r = _upper(rng, k)
        loop = _solve(v, r, part, "loop", offset)
        batched = _solve(v, r, part, "batched", offset)
        assert batched.tobytes() == loop.tobytes()

    @pytest.mark.parametrize("n, ranks", [(3969, 24), (20736, 192),
                                          (2001, 7)])
    def test_loop_equals_batched_at_solver_shapes(self, n, ranks):
        """The stage-2 solve of the two-stage scheme: up to ``m + 1 = 61``
        columns, one ``dtrsm`` per rank."""
        rng = np.random.default_rng(7)
        v = rng.standard_normal((n, 61))
        r = _upper(rng, 61)
        part = Partition(n, ranks)
        assert (_solve(v, r, part, "batched").tobytes()
                == _solve(v, r, part, "loop").tobytes())

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("cond", [None, 1e8])
    @pytest.mark.parametrize("k", [1, 5, 8, 9, 24, 61])
    def test_backward_stable(self, k, cond, engine):
        """``||X R - V|| <= c k eps ||X|| ||R||`` — the bound of any
        substitution order — and agreement with LAPACK to the accuracy
        the conditioning of ``R`` allows."""
        rng = np.random.default_rng(100 + k)
        n = 1500
        v = rng.standard_normal((n, k))
        r = _upper(rng, k, cond)
        x = _solve(v, r, Partition(n, 7), engine, offset=2)
        norm_r = np.linalg.norm(r, 2)
        assert (np.linalg.norm(x @ r - v)
                <= 4 * k * EPS * np.linalg.norm(x) * norm_r)
        want = scipy.linalg.solve_triangular(r, v.T, trans="T").T
        kappa = norm_r * np.linalg.norm(np.linalg.inv(r), 2)
        assert (np.linalg.norm(x - want)
                <= 8 * k * EPS * kappa * np.linalg.norm(want))


class TestRejectedBeforeAnyWrite:
    N, K = 120, 11  # wider than one sweep

    def _operand(self, engine, ranks=5):
        rng = np.random.default_rng(0)
        comm = SimComm(generic_cpu(), ranks, Tracer(), engine=engine)
        basis = DistMultiVector.from_global(
            rng.standard_normal((self.N, self.K + 3)),
            Partition(self.N, ranks), comm)
        return basis, basis.view_cols(slice(2, 2 + self.K)), rng

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("pivot", [0, 4, 10])
    def test_zero_pivot_names_the_diagonal(self, engine, pivot):
        basis, v, rng = self._operand(engine)
        before = basis.to_global()
        r = _upper(rng, self.K)
        r[pivot, pivot] = 0.0
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"resolution failed at diagonal {pivot}$"):
            blas.trsm_inplace(v, r)
        np.testing.assert_array_equal(basis.to_global(), before)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_r_or_v_is_a_value_error(self, engine, bad):
        basis, v, rng = self._operand(engine)
        before = basis.to_global()
        r = _upper(rng, self.K)
        r[1, 9] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            blas.trsm_inplace(v, r)
        np.testing.assert_array_equal(basis.to_global(), before)

        v.flat[self.N - 1, self.K - 1] = bad  # last rank, last block
        with pytest.raises(ValueError, match="infs or NaNs"):
            blas.trsm_inplace(v, _upper(rng, self.K))
        after = basis.to_global()
        assert np.array_equal(after, before) is False  # the planted value
        after[self.N - 1, 2 + self.K - 1] = before[self.N - 1, 2 + self.K - 1]
        np.testing.assert_array_equal(after, before)
