"""The whole-partition halo analysis against its per-rank oracle.

``ghost_oracle`` is the rank-by-rank construction and closure check the
analysis in :mod:`repro.distla.halo` replaced.  Every field of a plan
must equal the oracle's on ragged partitions (empty ranks included),
depths 0-5, both expand modes, 5- and 9-point stencils and random
nonsymmetric patterns — the last catch a closure that follows
``A^T`` instead of ``A``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import ghost_oracle as oracle
from repro.distla import halo
from repro.distla.halo import EXPAND_MODES, GhostPlan, HaloPlan, \
    check_closure
from repro.exceptions import ConfigurationError
from repro.matrices.stencil import laplace2d
from repro.parallel.partition import Partition


@st.composite
def matrices(draw) -> sp.csr_matrix:
    kind = draw(st.sampled_from(["5pt", "9pt", "random"]))
    if kind != "random":
        return laplace2d(draw(st.integers(2, 7)), stencil=int(kind[0]))
    n = draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return sp.csr_matrix((rng.random((n, n)) < density).astype(float))


@st.composite
def partitions(draw, n: int) -> Partition:
    """Ragged offsets; repeated cuts leave ranks empty."""
    ranks = draw(st.integers(1, 8))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=ranks - 1,
                                max_size=ranks - 1)))
    return Partition(n, ranks, np.array([0, *cuts, n]))


@st.composite
def cases(draw) -> tuple:
    a = draw(matrices())
    part = draw(partitions(a.shape[0]))
    return a, part, draw(st.integers(0, 5)), draw(st.sampled_from(EXPAND_MODES))


def _items(counts_by_rank):
    """Per-rank ``(peer, count)`` lists: equal values in equal order."""
    return [list(by_peer.items()) for by_peer in counts_by_rank]


def _arrays_equal(got, want) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


_EMPTY_RANKS = (laplace2d(4), Partition(16, 6, np.array([0, 0, 5, 5, 16, 16, 16])))


class TestGhostPlanMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=cases())
    @example(case=(*_EMPTY_RANKS, 3, "block"))
    @example(case=(*_EMPTY_RANKS, 3, "pointwise"))
    def test_every_field(self, case):
        a, part, depth, expand = case
        plan = GhostPlan.analyze(a, part, depth, expand=expand)
        want = oracle.ghost_fields(a, part, depth, expand)
        assert len(plan.levels) == part.ranks
        for got, ref in zip(plan.levels, want["levels"]):
            assert len(got) == depth + 1
            for lvl, ref_lvl in zip(got, ref):
                assert lvl.dtype == np.intp
                np.testing.assert_array_equal(lvl, ref_lvl)
        np.testing.assert_array_equal(plan.level_rows, want["level_rows"])
        np.testing.assert_array_equal(plan.level_nnz, want["level_nnz"])
        assert plan.level_rows.dtype == plan.level_nnz.dtype == np.int64
        for got, ref in zip(plan.level_ranks, want["level_ranks"]):
            _arrays_equal(got, ref)
        _arrays_equal(plan.ghost_rows, want["ghost_rows"])
        assert _items(plan.recv_counts_by_peer) == \
            _items(want["recv_counts_by_peer"])

    def test_analyze_runs_the_closure_check(self, monkeypatch):
        def refuse(*args):
            raise ConfigurationError("checked")

        monkeypatch.setattr(halo, "check_closure", refuse)
        with pytest.raises(ConfigurationError, match="checked"):
            GhostPlan.analyze(laplace2d(4), Partition(16, 2), 1)


class TestHaloPlanMatchesOracle:
    @settings(max_examples=100, deadline=None)
    @given(case=cases())
    @example(case=(*_EMPTY_RANKS, 1, "pointwise"))
    def test_counts(self, case):
        a, part, _, _ = case
        blocks = [a[part.local_slice(r), :].tocsr() for r in range(part.ranks)]
        plan = HaloPlan.analyze(a, part)
        recv, counts = oracle.halo_fields(blocks, part)
        assert _items(plan.recv_counts_by_peer) == _items(recv)
        np.testing.assert_array_equal(plan.halo_counts, counts)
        assert plan.halo_counts.dtype == np.int64


def _verdict(check, a, part, levels, expand) -> str | None:
    try:
        check(a, part, levels, expand)
    except ConfigurationError as err:
        return str(err)
    return None


class TestCheckClosureMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(case=cases(), data=st.data())
    def test_one_row_added_or_removed(self, case, data):
        """Perturb one ``(rank, level)`` of an analyzed closure by one
        row: both checks accept, or both reject naming the same rank and
        level — under either expand rule."""
        a, part, depth, expand = case
        assume(depth >= 1)
        levels = [list(per_rank) for per_rank
                  in GhostPlan.analyze(a, part, depth, expand=expand).levels]
        rank = data.draw(st.integers(0, part.ranks - 1))
        lvl = data.draw(st.integers(0, depth))
        rows = levels[rank][lvl]
        absent = np.setdiff1d(np.arange(part.n_global), rows)
        if rows.size and (not absent.size or data.draw(st.booleans())):
            rows = np.delete(rows, data.draw(st.integers(0, rows.size - 1)))
        elif absent.size:
            rows = np.union1d(rows, absent[data.draw(
                st.integers(0, absent.size - 1))])
        levels[rank][lvl] = rows
        checked = data.draw(st.sampled_from(EXPAND_MODES))
        assert _verdict(check_closure, a, part, levels, checked) == \
            _verdict(oracle.check_closure, a, part, levels, checked)
