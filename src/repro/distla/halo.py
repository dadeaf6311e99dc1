"""First-class halo subsystem: single- and multi-level ghost-zone plans.

Two planners over the same sparsity-pattern analysis:

* :class:`HaloPlan` — the depth-1 plan every standard SpMV uses: which
  off-rank operand entries each rank's rows reference, grouped by owning
  peer.  One neighbourhood exchange per SpMV (paper Sec. III, Trilinos'
  standard matrix powers kernel).
* :class:`GhostPlan` — the s-level dependency closure behind the
  communication-avoiding MPK (Chronopoulos & Kim; Demmel et al. "PA1"):
  every rank receives, in ONE aggregated exchange, the ghost rows it
  needs to execute ``s`` SpMVs *locally*, redundantly recomputing ghost
  values whose ghost region shrinks by one level per step.

The closure is taken over the *composed* operator ``A M^{-1}``: a
pointwise preconditioner (identity/Jacobi) adds no coupling, while a
block preconditioner (block Jacobi) couples every row of a rank's block,
so each level's dependency set is rounded up to whole owner blocks
(``expand="block"``).  General preconditioners have no finite ghost
closure and are rejected upstream by the kernel.

The simulator computes the CA kernel's values from ONE global
recurrence, so nothing executes the closure any more; that it is large
enough is a structural invariant :func:`check_closure` verifies once per
analysis instead.

Payloads are charged at the operand's *storage* word size (a ghost row
of an fp32 basis moves 4 bytes), so plans store per-peer row counts and
convert to bytes at exchange time — once per ``(word_bytes, n_vectors)``
(:func:`_descriptors`): every exchange of a solve reuses the same
:class:`~repro.parallel.communicator.HaloDescriptors`, and the
communicator remembers their cost on them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.parallel.communicator import HaloDescriptors
from repro.parallel.costmodel import KernelCharge
from repro.parallel.partition import Partition
from repro.precision.dtypes import word_bytes as _word_bytes

#: Closure expansion rules: how one application of ``A M^{-1}`` grows a
#: row dependency set.  ``"pointwise"`` follows the sparsity pattern
#: only; ``"block"`` additionally rounds each level up to whole owner
#: blocks (block-Jacobi couples every row of a rank's block).
EXPAND_MODES = ("pointwise", "block")

_DOUBLE = _word_bytes("fp64")


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


def _descriptors(memo: dict, key: tuple,
                 counts_by_rank: list[dict[int, int]], word_bytes: float,
                 n_vectors: int) -> HaloDescriptors:
    """Per-rank ``{peer: bytes}`` for exchanging ``n_vectors`` operands
    stored at ``word_bytes`` per element over ``counts_by_rank`` rows.

    Built once per ``key + (word_bytes, n_vectors)`` in ``memo`` and
    shared by every caller (read-only): plans are never mutated, so every
    exchange of a solve moves the same descriptors.
    """
    key += (float(word_bytes), int(n_vectors))
    recv = memo.get(key)
    if recv is None:
        scale = float(word_bytes) * int(n_vectors)
        recv = memo[key] = HaloDescriptors(
            {peer: cnt * scale for peer, cnt in by_peer.items()}
            for by_peer in counts_by_rank)
    return recv


def check_closure(a: sp.csr_matrix, partition: Partition,
                  levels: list[list[np.ndarray]], expand: str) -> None:
    """The invariant that makes ``levels`` a closure of ``A M^{-1}``.

    For every rank and level ``l`` below the deepest, the step landing
    on ``L_l`` must find all it reads inside ``L_{l+1}``: the rows
    themselves (the recurrence's ``v_k`` term), ``cols(A[L_l, :])``
    (the SpMV operand), and for ``expand="block"`` the whole owner block
    of each of those (a block solve reads its entire block).
    Raises :class:`ConfigurationError` naming the first rank and level
    that fall short.
    """
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


class HaloPlan:
    """Per-rank description of the off-rank vector entries SpMV gathers.

    Stores per-peer *row counts*; :meth:`recv_bytes` scales them by the
    operand word size (fp64 by default — bit-identical to the historical
    fixed-8-byte charge).  The plan is an analysis result: nothing
    mutates it, which is what lets it remember its descriptors.
    """

    __slots__ = ("recv_counts_by_peer", "halo_counts", "_recv_bytes")

    def __init__(self, recv_counts_by_peer: list[dict[int, int]],
                 halo_counts: np.ndarray) -> None:
        self.recv_counts_by_peer = recv_counts_by_peer
        self.halo_counts = halo_counts
        self._recv_bytes: dict[tuple, HaloDescriptors] = {}

    def recv_bytes(self, word_bytes: float = _DOUBLE,
                   n_vectors: int = 1) -> HaloDescriptors:
        """Per-rank ``{peer: bytes}`` for exchanging ``n_vectors`` operands
        stored at ``word_bytes`` per element.

        Built once per ``(word_bytes, n_vectors)`` and shared by every
        caller (read-only): every SpMV of a solve exchanges the same
        descriptors, and the communicator remembers their cost on them.
        """
        return _descriptors(self._recv_bytes, (), self.recv_counts_by_peer,
                            word_bytes, n_vectors)

    @classmethod
    def analyze(cls, local_blocks: list[sp.csr_matrix],
                partition: Partition) -> "HaloPlan":
        recv: list[dict[int, int]] = []
        counts = np.zeros(partition.ranks, dtype=np.int64)
        for rank, block in enumerate(local_blocks):
            lo, hi = partition.offsets[rank], partition.offsets[rank + 1]
            cols = np.unique(block.indices)
            external = cols[(cols < lo) | (cols >= hi)]
            counts[rank] = external.size
            by_peer = {peer: int(rows.size) for peer, rows
                       in partition.group_by_owner(external).items()}
            recv.append(by_peer)
        return cls(recv, counts)


class GhostPlan:
    """s-level ghost-zone closure for the communication-avoiding MPK.

    For each rank ``r`` the plan holds the level sets ``L_0 ⊆ L_1 ⊆ ...
    ⊆ L_depth`` where ``L_0`` is the owned row block and ``L_{l}`` is the
    set of rows whose values must be held to execute ``l`` more local
    operator applications (one :func:`expand <EXPAND_MODES>` application
    per level).  The CA kernel gathers ghost values on ``L_depth`` once,
    then step ``j`` computes the next vector on ``L_{depth-j}`` — purely
    local, redundantly recomputing the shrinking ghost region.

    What rank ``rank`` multiplies at the step landing on level ``l`` is
    the row submatrix ``A[L_l, :]`` (only levels ``0..depth-1`` are ever
    computed; ``L_depth`` is the exchanged input).  The plan keeps its
    *size* — ``level_rows`` / ``level_nnz``, what the redundant work is
    charged from — not the submatrix: the values come from one global
    product (:mod:`repro.krylov.mpk`).  An analysis result: nothing
    mutates it, which is what lets it remember descriptors and charges.
    """

    __slots__ = ("partition", "depth", "expand", "levels", "ghost_rows",
                 "recv_counts_by_peer",
                 "level_rows", "level_nnz", "level_ranks", "n_global",
                 "_eager_counts", "_ring_counts", "_recv_bytes", "charge_memo")

    def __init__(self, partition: Partition, depth: int, expand: str,
                 levels: list[list[np.ndarray]],
                 level_nnz: np.ndarray) -> None:
        self.partition = partition
        self.depth = depth
        self.expand = expand
        self.n_global = partition.n_global
        #: ``levels[rank][l]`` — sorted global rows of ``L_l`` on ``rank``.
        self.levels = levels
        #: ``ghost_rows[rank]`` — ``L_depth`` minus the owned block.
        self.ghost_rows = []
        #: ``recv_counts_by_peer[rank]`` — ghost row counts by owner.
        self.recv_counts_by_peer = []
        #: ``level_rows[rank, l]`` / ``level_nnz[rank, l]`` — size and CSR
        #: nonzeros of ``A[L_l, :]`` per rank (redundant-work costing).
        self.level_rows = np.array(
            [[lvl.size for lvl in per_rank] for per_rank in levels],
            dtype=np.int64)
        self.level_nnz = level_nnz
        #: ``level_ranks[rank][l]`` — owner ranks intersecting ``L_l``
        #: (block-preconditioner redundant applies touch these blocks).
        self.level_ranks = [
            [_owner_ranks(lvl, partition) for lvl in per_rank]
            for per_rank in levels]
        for rank in range(partition.ranks):
            lo, hi = partition.offsets[rank], partition.offsets[rank + 1]
            top = levels[rank][depth]
            ghosts = top[(top < lo) | (top >= hi)]
            self.ghost_rows.append(ghosts)
            self.recv_counts_by_peer.append(
                {peer: int(rows.size) for peer, rows
                 in partition.group_by_owner(ghosts).items()})
        self._eager_counts = None
        self._ring_counts = None
        self._recv_bytes: dict[tuple, HaloDescriptors] = {}
        #: For :meth:`CostModel.memoized <repro.parallel.costmodel
        #: .CostModel.memoized>`: charges of kernels over this plan.
        #: Level sizes never change, so every panel of a solve charges
        #: the same records.
        self.charge_memo: dict[tuple, KernelCharge] = {}

    # ------------------------------------------------------------------
    @classmethod
    def analyze(cls, a: sp.csr_matrix, partition: Partition, depth: int,
                expand: str = "pointwise") -> "GhostPlan":
        """Build the closure for ``depth`` operator applications."""
        if depth < 0:
            raise ConfigurationError(f"ghost depth must be >= 0, got {depth}")
        if expand not in EXPAND_MODES:
            raise ConfigurationError(
                f"unknown expand mode {expand!r}; expected one of "
                f"{EXPAND_MODES}")
        a = sp.csr_matrix(a)
        n = partition.n_global
        if a.shape != (n, n):
            raise ConfigurationError(
                f"matrix shape {a.shape} does not match partition "
                f"n_global={n}")
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
        level_nnz = np.array(
            [[int(row_nnz[lvl].sum()) for lvl in per_rank]
             for per_rank in levels], dtype=np.int64)
        return cls(partition, depth, expand, levels, level_nnz)

    # ------------------------------------------------------------------
    def recv_bytes(self, word_bytes: float = _DOUBLE,
                   n_vectors: int = 1) -> HaloDescriptors:
        """Per-rank ``{peer: bytes}`` of the ONE aggregated deep-halo
        exchange moving ``n_vectors`` operands at ``word_bytes``/element."""
        return _descriptors(self._recv_bytes, ("all",),
                            self.recv_counts_by_peer, word_bytes, n_vectors)

    def _split_counts(self) -> tuple[list[dict[int, int]],
                                     list[dict[int, int]]]:
        """(eager, ring) per-rank ghost row counts — the PA2 split.

        ``eager`` is the depth-1 nearest-neighbour shell of the closure
        (``L_1`` minus the owned block); ``ring`` is everything deeper
        (``L_depth`` ghosts minus the eager shell).  Together they
        partition :attr:`ghost_rows` exactly, so eager + ring payloads
        sum to :meth:`recv_bytes` peer for peer.
        """
        if self._eager_counts is None:
            eager, ring = [], []
            for rank in range(self.partition.ranks):
                lo = self.partition.offsets[rank]
                hi = self.partition.offsets[rank + 1]
                near_lvl = self.levels[rank][min(1, self.depth)]
                near = near_lvl[(near_lvl < lo) | (near_lvl >= hi)]
                far = np.setdiff1d(self.ghost_rows[rank], near,
                                   assume_unique=True)
                eager.append({peer: int(rows.size) for peer, rows
                              in self.partition.group_by_owner(near).items()})
                ring.append({peer: int(rows.size) for peer, rows
                             in self.partition.group_by_owner(far).items()})
            self._eager_counts, self._ring_counts = eager, ring
        return self._eager_counts, self._ring_counts

    def eager_recv_bytes(self, word_bytes: float = _DOUBLE,
                         n_vectors: int = 1) -> HaloDescriptors:
        """Payload of the depth-1 ghost shell — what the PA2 overlapped
        kernel exchanges eagerly (blocking) before posting the ring."""
        return _descriptors(self._recv_bytes, ("eager",),
                            self._split_counts()[0], word_bytes, n_vectors)

    def ring_recv_bytes(self, word_bytes: float = _DOUBLE,
                        n_vectors: int = 1) -> HaloDescriptors:
        """Payload of the deep-ring remainder (levels 2..depth) — what
        PA2 posts nonblocking and hides behind the first local SpMVs."""
        return _descriptors(self._recv_bytes, ("ring",),
                            self._split_counts()[1], word_bytes, n_vectors)

    def ghost_counts(self) -> np.ndarray:
        """Ghost rows per rank at the deepest level (diagnostics)."""
        return np.array([g.size for g in self.ghost_rows], dtype=np.int64)

    def __repr__(self) -> str:
        return (f"GhostPlan(depth={self.depth}, expand={self.expand!r}, "
                f"ranks={self.partition.ranks}, "
                f"max_ghosts={int(self.ghost_counts().max(initial=0))})")
