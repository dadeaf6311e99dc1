"""``trsm_inplace`` on panels wider than ``_TRSM_BLOCK``: one BLAS
``dtrsm`` per rank.

The stage-2 solve of the two-stage scheme (``m + 1 = 61`` columns) is
``X R = V`` solved by the BLAS routine once per rank's rows, under
either engine.  Pinned here: the result equals that per-rank
call made by the test itself, byte for byte, on uniform, ragged and
empty-rank partitions, for standalone operands and for column views of a
wider basis; and the solve copies at most one rank's rows at a time,
never the ``(n, k)`` panel.  The last test pins the narrow sweep's one
temporary on the same operand.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.blas import dtrsm

from repro.distla import blas
from repro.distla.engine import _TILE_ELEMS, _TRSM_BLOCK
from repro.distla.multivector import DistMultiVector
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

N = 3000
PARTITIONS = {
    "uniform": lambda: Partition(N, 8),
    "ragged": lambda: Partition(N, 7),
    "more_ranks_than_columns": lambda: Partition(N, 192),
    "empty_ranks": lambda: Partition(
        N, 6, offsets=np.array([0, 0, 700, 1900, 1900, 2999, N])),
}


def _upper(rng, k):
    """A well-conditioned random upper-triangular ``R``."""
    return np.triu(0.1 * rng.standard_normal((k, k))) + np.eye(k)


def _per_rank_dtrsm(v, r, part):
    """The oracle: one ``dtrsm`` per non-empty rank of ``part``."""
    want = v.copy()
    for rank in range(part.ranks):
        rows = part.local_slice(rank)
        if want[rows].size:
            want[rows] = dtrsm(1.0, r, v[rows], side=1, lower=0)
    return want


def _solve(v, r, part, engine, offset):
    comm = SimComm(generic_cpu(), part.ranks, Tracer(), engine=engine)
    n, k = v.shape
    if offset is None:
        mv = DistMultiVector.from_global(v, part, comm)
    else:
        wide = np.full((n, offset + k + 2), np.nan)
        wide[:, offset:offset + k] = v
        mv = DistMultiVector.from_global(wide, part, comm).view_cols(
            slice(offset, offset + k))
    blas.trsm_inplace(mv, r)
    return mv.to_global()


@pytest.mark.parametrize("offset", [None, 30], ids=["standalone", "view"])
@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("layout", sorted(PARTITIONS))
@pytest.mark.parametrize("k", [_TRSM_BLOCK + 1, 24, 61])
def test_equals_one_dtrsm_per_rank(k, layout, engine, offset):
    part = PARTITIONS[layout]()
    rng = np.random.default_rng(k)
    v = rng.standard_normal((N, k))
    r = _upper(rng, k)
    got = _solve(v, r, part, engine, offset)
    assert got.tobytes() == _per_rank_dtrsm(v, r, part).tobytes()


def _peak_bytes(call) -> int:
    call()  # memoized charges, lazily built shards
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _stage2_basis(engine, n=40_000, ranks=24, k=61):
    """The stage-2 operand of the benchmark: a ``(40000, 61)`` basis on
    24 ranks."""
    comm = SimComm(generic_cpu(), ranks, Tracer(), engine=engine)
    return DistMultiVector.from_global(
        np.random.default_rng(0).standard_normal((n, k)),
        Partition(n, ranks), comm)


@pytest.mark.parametrize("engine", ["loop", "batched"])
def test_stage2_solve_copies_at_most_two_rank_blocks(engine):
    """A rank's rows are 0.8 MB; an ``(n, k)`` copy is 19.5 MB."""
    v = _stage2_basis(engine)
    r = np.eye(v.n_cols)
    rank_block = v.partition.max_local_count() * v.n_cols * 8
    assert _peak_bytes(lambda: blas.trsm_inplace(v, r)) <= 2 * rank_block


@pytest.mark.parametrize("engine", ["loop", "batched"])
@pytest.mark.parametrize("k", range(1, _TRSM_BLOCK + 1))
def test_narrow_sweep_allocates_one_short_column(k, engine):
    """An s-step panel at column offset 30 of the same basis: the sweep's
    one temporary is at most ``_TILE_ELEMS // 2`` words, whatever the
    width and the rank boundaries."""
    v = _stage2_basis(engine).view_cols(slice(30, 30 + k))
    r = np.eye(k)
    peak = _peak_bytes(lambda: blas.trsm_inplace(v, r))
    assert peak <= _TILE_ELEMS // 2 * 8 + 4096
