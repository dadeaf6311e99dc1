"""Per-rank reference for the halo analysis (the oracle of
``test_ghost_oracle.py``).

One rank and one closure level at a time: a full-length row mask per
``_row_union``, owner blocks concatenated rank by rank, ``np.unique`` +
``Partition.group_by_owner`` per rank.  Slow and plain on purpose; the
whole-partition analysis in :mod:`repro.distla.halo` must agree with it
field for field.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.parallel.partition import Partition


def _row_union(a: sp.csr_matrix, row_nnz: np.ndarray,
               rows: np.ndarray) -> np.ndarray:
    """``rows ∪ cols(A[rows, :])`` as a sorted global index array
    (``row_nnz = diff(a.indptr)``)."""
    mask = np.zeros(a.shape[0], dtype=bool)
    mask[rows] = True
    # the stored entries of the selected rows, without a submatrix
    mask[a.indices[np.repeat(mask, row_nnz)]] = True
    return np.flatnonzero(mask)


def _owner_ranks(rows: np.ndarray, partition: Partition) -> np.ndarray:
    """Ranks owning at least one row of a *sorted* global row set."""
    return np.flatnonzero(np.diff(np.searchsorted(rows, partition.offsets)))


def _block_round(rows: np.ndarray, partition: Partition) -> np.ndarray:
    """Round a sorted row set up to whole owner blocks."""
    if rows.size == 0:
        return rows
    return np.concatenate(
        [np.arange(partition.offsets[p], partition.offsets[p + 1])
         for p in _owner_ranks(rows, partition)])


def check_closure(a: sp.csr_matrix, partition: Partition,
                  levels: list[list[np.ndarray]], expand: str) -> None:
    """Every rank's step landing on ``L_l`` reads only rows of
    ``L_{l+1}``; raises naming the first rank and level that fall
    short."""
    row_nnz = np.diff(a.indptr)
    held = np.zeros(partition.n_global, dtype=bool)
    for rank, per_rank in enumerate(levels):
        for lvl, (rows, outer) in enumerate(zip(per_rank, per_rank[1:])):
            reads = _row_union(a, row_nnz, rows)
            if expand == "block":
                reads = _block_round(reads, partition)
            held[outer] = True
            closed = held[reads].all()
            held[outer] = False
            if not closed:
                raise ConfigurationError(
                    f"ghost closure too small on rank {rank}: level "
                    f"{lvl} reads rows outside level {lvl + 1} "
                    f"(expand={expand!r})")


def _by_owner(partition: Partition, rows: np.ndarray) -> dict[int, int]:
    return {peer: int(owned.size)
            for peer, owned in partition.group_by_owner(rows).items()}


def ghost_fields(a: sp.csr_matrix, partition: Partition, depth: int,
                 expand: str) -> dict:
    """Every field of a ``GhostPlan``, built one rank at a time."""
    a = sp.csr_matrix(a)
    row_nnz = np.diff(a.indptr)
    levels: list[list[np.ndarray]] = []
    for rank in range(partition.ranks):
        owned = np.arange(partition.offsets[rank],
                          partition.offsets[rank + 1])
        per_rank = [owned]
        for _ in range(depth):
            grown = _row_union(a, row_nnz, per_rank[-1])
            if expand == "block":
                grown = _block_round(grown, partition)
            per_rank.append(grown)
        levels.append(per_rank)
    check_closure(a, partition, levels, expand)
    ghost_rows, recv = [], []
    for rank in range(partition.ranks):
        lo, hi = partition.offsets[rank], partition.offsets[rank + 1]
        top = levels[rank][depth]
        ghosts = top[(top < lo) | (top >= hi)]
        ghost_rows.append(ghosts)
        recv.append(_by_owner(partition, ghosts))
    return {
        "levels": levels,
        "level_rows": np.array([[lvl.size for lvl in per_rank]
                                for per_rank in levels], dtype=np.int64),
        "level_nnz": np.array([[int(row_nnz[lvl].sum()) for lvl in per_rank]
                               for per_rank in levels], dtype=np.int64),
        "level_ranks": [[_owner_ranks(lvl, partition) for lvl in per_rank]
                        for per_rank in levels],
        "ghost_rows": ghost_rows,
        "recv_counts_by_peer": recv,
    }


def halo_fields(local_blocks: list[sp.csr_matrix],
                partition: Partition) -> tuple[list[dict[int, int]],
                                               np.ndarray]:
    """``HaloPlan``'s ``(recv_counts_by_peer, halo_counts)``, rank by
    rank."""
    recv: list[dict[int, int]] = []
    counts = np.zeros(partition.ranks, dtype=np.int64)
    for rank, block in enumerate(local_blocks):
        lo, hi = partition.offsets[rank], partition.offsets[rank + 1]
        cols = np.unique(block.indices)
        external = cols[(cols < lo) | (cols >= hi)]
        counts[rank] = external.size
        recv.append(_by_owner(partition, external))
    return recv, counts
