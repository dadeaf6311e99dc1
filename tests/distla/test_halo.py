"""The halo subsystem: multi-level ghost-zone closures (GhostPlan)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distla.halo import EXPAND_MODES, GhostPlan, HaloPlan, \
    check_closure
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ConfigurationError
from repro.matrices.stencil import laplace2d
from repro.parallel.communicator import HaloDescriptors, SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition


def tridiag(n: int) -> sp.csr_matrix:
    """1-D Laplacian: each closure level grows by exactly one row per
    side, which makes every level set predictable by hand."""
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsr()


class TestGhostPlanClosure:
    def test_levels_grow_by_one_ring(self):
        n, ranks, depth = 16, 4, 3
        part = Partition(n, ranks)
        plan = GhostPlan.analyze(tridiag(n), part, depth)
        # rank 1 owns rows 4..7; level l reaches l rows past each edge
        for lvl in range(depth + 1):
            expect = np.arange(4 - lvl, 8 + lvl)
            np.testing.assert_array_equal(plan.levels[1][lvl], expect)
        # edge rank 0 grows only rightward
        np.testing.assert_array_equal(plan.levels[0][depth],
                                      np.arange(0, 4 + depth))

    def test_levels_are_nested(self):
        part = Partition(400, 8)
        plan = GhostPlan.analyze(laplace2d(20), part, 4)
        for per_rank in plan.levels:
            for shallow, deep in zip(per_rank, per_rank[1:]):
                assert np.isin(shallow, deep).all()

    def test_ghost_rows_and_peer_counts(self):
        n, ranks = 16, 4
        part = Partition(n, ranks)
        plan = GhostPlan.analyze(tridiag(n), part, 2)
        # rank 1 needs rows {2, 3} from rank 0 and {8, 9} from rank 2
        np.testing.assert_array_equal(plan.ghost_rows[1], [2, 3, 8, 9])
        assert plan.recv_counts_by_peer[1] == {0: 2, 2: 2}
        # edge ranks have one neighbour only
        assert plan.recv_counts_by_peer[0] == {1: 2}

    def test_depth_one_matches_halo_plan(self):
        """The depth-1 ghost closure is exactly the standard halo."""
        a = laplace2d(12)
        part = Partition(a.shape[0], 6)
        halo = HaloPlan.analyze(a, part)
        plan = GhostPlan.analyze(a, part, 1)
        assert plan.recv_counts_by_peer == halo.recv_counts_by_peer
        np.testing.assert_array_equal(plan.ghost_counts(), halo.halo_counts)

    def test_level_sizes_are_those_of_row_submatrices(self):
        """What a rank multiplies at level ``l`` is ``A[L_l, :]``; the
        plan keeps its size (what the work is charged from), not it."""
        a = laplace2d(10)
        part = Partition(100, 4)
        plan = GhostPlan.analyze(a, part, 2)
        assert not hasattr(plan, "level_blocks")
        assert plan.level_rows.shape == plan.level_nnz.shape == (4, 3)
        for rank in range(4):
            for lvl in range(3):
                rows = plan.levels[rank][lvl]
                block = a[rows, :]
                assert plan.level_nnz[rank, lvl] == block.nnz
                assert plan.level_rows[rank, lvl] == rows.size

    def test_block_expand_rounds_to_owner_blocks(self):
        n, ranks = 16, 4
        part = Partition(n, ranks)
        plan = GhostPlan.analyze(tridiag(n), part, 1, expand="block")
        # one hop from rank 1's rows touches ranks 0 and 2 -> their whole
        # blocks join the closure
        np.testing.assert_array_equal(plan.levels[1][1], np.arange(0, 12))
        assert plan.recv_counts_by_peer[1] == {0: 4, 2: 4}
        np.testing.assert_array_equal(plan.level_ranks[1][1], [0, 1, 2])

    def test_block_diagonal_matrix_has_empty_ghosts(self):
        """Ghost-level-0 degenerate case: no inter-rank coupling."""
        part = Partition(12, 3)
        a = sp.block_diag([tridiag(4)] * 3).tocsr()
        plan = GhostPlan.analyze(a, part, 3)
        assert all(g.size == 0 for g in plan.ghost_rows)
        assert all(not by_peer for by_peer in plan.recv_counts_by_peer)
        np.testing.assert_array_equal(plan.ghost_counts(), 0)

    def test_single_rank_has_empty_ghosts(self):
        part = Partition(9, 1)
        plan = GhostPlan.analyze(tridiag(9), part, 4)
        assert plan.ghost_rows[0].size == 0
        assert plan.recv_counts_by_peer == [{}]


class TestClosureInvariant:
    """What the per-rank ghosted execution used to prove by running:
    every step finds all it reads inside the next closure level."""

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(3, 9), ranks=st.integers(1, 7),
           depth=st.integers(0, 4), expand=st.sampled_from(EXPAND_MODES),
           stencil=st.sampled_from([5, 9]))
    def test_analyzed_plans_are_closed(self, nx, ranks, depth, expand,
                                       stencil):
        a = laplace2d(nx, stencil=stencil)
        n = a.shape[0]
        part = Partition(n, min(ranks, n))
        plan = GhostPlan.analyze(a, part, depth, expand=expand)
        pattern = a.toarray() != 0.0
        for rank in range(part.ranks):
            sl = part.local_slice(rank)
            np.testing.assert_array_equal(plan.levels[rank][0],
                                          np.arange(sl.start, sl.stop))
            for lvl in range(depth):
                inner = set(plan.levels[rank][lvl].tolist())
                outer = set(plan.levels[rank][lvl + 1].tolist())
                reads = set(np.flatnonzero(
                    pattern[plan.levels[rank][lvl], :].any(axis=0)).tolist())
                assert inner <= outer and reads <= outer
                if expand == "block":
                    for owner in {part.owner(col) for col in reads}:
                        block = part.local_slice(owner)
                        assert set(range(block.start, block.stop)) <= outer

    @pytest.mark.parametrize("expand", EXPAND_MODES)
    def test_truncated_level_is_rejected(self, expand):
        a = laplace2d(8)
        part = Partition(64, 4)
        levels = GhostPlan.analyze(a, part, 3, expand=expand).levels
        check_closure(a, part, levels, expand)  # as analyzed: closed
        # rank 2 loses one ghost row of its level 2
        levels[2][2] = levels[2][2][1:]
        with pytest.raises(ConfigurationError, match="rank 2.*level 1"):
            check_closure(a, part, levels, expand)

    def test_incomplete_owner_block_is_rejected(self):
        """Pointwise-closed is not enough for a block preconditioner:
        each block a step reads must be whole in the next level."""
        a = tridiag(16)
        part = Partition(16, 4)
        levels = GhostPlan.analyze(a, part, 2).levels
        check_closure(a, part, levels, "pointwise")
        with pytest.raises(ConfigurationError, match="rank 0.*level 0"):
            check_closure(a, part, levels, "block")


class TestGhostPlanPayloads:
    def test_recv_bytes_scales_with_vector_count(self):
        part = Partition(16, 4)
        plan = GhostPlan.analyze(tridiag(16), part, 2)
        one = plan.recv_bytes(n_vectors=1)
        two = plan.recv_bytes(n_vectors=2)
        for d1, d2 in zip(one, two):
            for peer in d1:
                assert d2[peer] == pytest.approx(2.0 * d1[peer])

    def test_descriptors_are_built_once_and_costed_once(self):
        """One ``HaloDescriptors`` per ``n_vectors``, as
        ``HaloPlan.recv_bytes`` hands out: the communicator remembers
        the exchange's cost on it instead of re-evaluating every rank's
        ``halo_exchange`` at every deep-halo charge."""
        part = Partition(64, 4)
        plan = GhostPlan.analyze(laplace2d(8), part, 3)
        recv = plan.recv_bytes
        first = recv(n_vectors=2)
        assert isinstance(first, HaloDescriptors)
        assert recv(n_vectors=2) is first
        assert recv(n_vectors=1) is not first
        plain = [dict(by_peer) for by_peer in first]
        comm = SimComm(generic_cpu(), 4)
        comm.charge_halo(first)
        comm.charge_halo(first)
        assert len(first.costs) == 1
        fresh = SimComm(generic_cpu(), 4)
        fresh.charge_halo(plain)
        fresh.charge_halo(plain)
        assert comm.tracer.snapshot() == fresh.tracer.snapshot()

    @pytest.mark.parametrize("ranks", [3, 4, 7])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("expand", EXPAND_MODES)
    def test_one_exchange_moves_every_ghost_row(self, expand, depth, ranks):
        """The ONE deep-halo exchange of a panel carries each rank's whole
        ``L_depth`` ghost set: per peer, 8 bytes per operand for every
        ghost row that peer owns — on ragged partitions too."""
        part = Partition(100, ranks)
        plan = GhostPlan.analyze(laplace2d(10), part, depth, expand)
        for n_vectors in (1, 2):
            for rank, by_peer in enumerate(plan.recv_bytes(n_vectors)):
                ghosts = plan.ghost_rows[rank]
                owners = np.searchsorted(part.offsets, ghosts, side="right") - 1
                peers, counts = np.unique(owners, return_counts=True)
                assert by_peer == {int(p): 8.0 * n_vectors * int(c)
                                   for p, c in zip(peers, counts)}
                assert rank not in by_peer

    def test_halo_plan_default_word_size_is_fp64(self):
        a = laplace2d(8)
        part = Partition(64, 4)
        halo = HaloPlan.analyze(a, part)
        for by_peer, counts in zip(halo.recv_bytes(),
                                   halo.recv_counts_by_peer):
            for peer, nbytes in by_peer.items():
                assert nbytes == counts[peer] * 8.0


class TestGhostPlanValidation:
    def test_rejects_negative_depth(self):
        with pytest.raises(ConfigurationError):
            GhostPlan.analyze(tridiag(8), Partition(8, 2), -1)

    def test_rejects_unknown_expand(self):
        assert "pointwise" in EXPAND_MODES
        with pytest.raises(ConfigurationError):
            GhostPlan.analyze(tridiag(8), Partition(8, 2), 1,
                              expand="diagonal")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            GhostPlan.analyze(tridiag(8), Partition(9, 3), 1)

    def test_depth_zero_is_owned_rows_only(self):
        part = Partition(8, 2)
        plan = GhostPlan.analyze(tridiag(8), part, 0)
        assert plan.ghost_rows[0].size == 0
        np.testing.assert_array_equal(plan.level_rows, [[4], [4]])
        np.testing.assert_array_equal(
            plan.level_nnz, [[tridiag(8)[:4, :].nnz], [tridiag(8)[4:, :].nnz]])
        np.testing.assert_array_equal(plan.levels[0][0], np.arange(4))


class TestNearLevels:
    """``L_0`` and ``L_1`` read off the depth-1 halo are, field for
    field, those of an analyzed plan of any depth."""

    @settings(max_examples=60, deadline=None)
    @given(nx=st.integers(2, 9), ranks=st.integers(1, 7),
           depth=st.integers(1, 4), expand=st.sampled_from(EXPAND_MODES),
           stencil=st.sampled_from([5, 9, "random"]), data=st.data())
    def test_equal_a_plans_first_two_levels(self, nx, ranks, depth, expand,
                                            stencil, data):
        n = nx * nx
        if stencil == "random":  # a nonsymmetric pattern
            a = (sp.random(n, n, density=0.08, random_state=nx * ranks)
                 + sp.eye(n)).tocsr()
        else:
            a = laplace2d(nx, stencil=stencil)
        # cut points in any order, repeats included: ranks may own nothing
        cuts = sorted(data.draw(st.lists(st.integers(0, n), min_size=ranks - 1,
                                         max_size=ranks - 1)))
        part = Partition(n, ranks, np.array([0, *cuts, n]))
        matrix = DistSparseMatrix(a, part, SimComm(generic_cpu(), ranks))
        near = matrix._near_levels(expand)
        assert matrix._ghost_plans == {}  # nothing analyzed
        plan = matrix._plan(depth, expand)
        np.testing.assert_array_equal(near.level_rows, plan.level_rows[:, :2])
        np.testing.assert_array_equal(near.level_nnz, plan.level_nnz[:, :1])
        assert near.level_ranks == [
            [levels[0].tolist(), levels[1].tolist()]
            for levels in plan.level_ranks]
        assert matrix._near_levels(expand) is near


class TestDistSparseMatrixGhostPlans:
    def test_plans_are_cached_per_depth_and_expand(self):
        comm = SimComm(generic_cpu(), 4)
        a = DistSparseMatrix(laplace2d(8), Partition(64, 4), comm)
        p1 = a.ghost_plan(3)
        p2 = a.ghost_plan(3)
        assert p1 is p2
        p3 = a.ghost_plan(3, expand="block")
        assert p3 is not p1 and p3.expand == "block"
        assert a.ghost_plan(2) is not p1
