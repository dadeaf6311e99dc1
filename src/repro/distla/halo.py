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

Both analyses run over the whole partition at once, never rank by rank.
A level set of every rank is one ``(ranks x m)`` 0/1 indicator: a
closure level is one sparse product of the previous level's *frontier*
(the rows it added) with the pattern of ``A`` (``expand="pointwise"``,
``m = n``), or with the ``(ranks x ranks)`` graph of which owner blocks
touch which (``expand="block"``, every level a union of whole blocks,
materialized as rows once per level).  Who receives what from whom is
one ``(ranks x ranks)`` count matrix per level.  The indicators are
dense bools, ``(depth + 1) * ranks * n`` bytes, and live only while a
plan is analyzed and checked.

Plans store per-peer row counts and convert them to fp64 bytes once per
exchanged operand count (:func:`_descriptors`): every exchange of a
solve reuses the same :class:`~repro.parallel.communicator
.HaloDescriptors`, and the communicator remembers their cost on them.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.parallel.communicator import HaloDescriptors
from repro.parallel.costmodel import _DOUBLE, KernelCharge
from repro.parallel.partition import Partition

#: Closure expansion rules: how one application of ``A M^{-1}`` grows a
#: row dependency set.  ``"pointwise"`` follows the sparsity pattern
#: only; ``"block"`` additionally rounds each level up to whole owner
#: blocks (block-Jacobi couples every row of a rank's block).
EXPAND_MODES = ("pointwise", "block")


def _bounds(sizes: np.ndarray) -> np.ndarray:
    """Padded cumulative sum: segment ``r`` is ``bounds[r]:bounds[r+1]``
    (empty segments stay empty)."""
    bounds = np.zeros(len(sizes) + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def _segments(sizes: np.ndarray, values) -> list:
    """``values`` cut into consecutive pieces of ``sizes`` (views)."""
    cuts = _bounds(sizes).tolist()
    return [values[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _per_rank(pieces: list, ranks: int) -> list[list]:
    """Pieces ordered level-major (``l * ranks + r``) as ``[rank][l]``."""
    return [pieces[rank::ranks] for rank in range(ranks)]


def _owners(partition: Partition) -> np.ndarray:
    """Owning rank of every global row."""
    return np.repeat(np.arange(partition.ranks), partition.counts)


def _pattern(a: sp.csr_matrix) -> sp.csr_matrix:
    """0/1 pattern of the stored entries of ``a``: row ``i`` of an
    indicator times it is ``cols(A[i, :])``."""
    return sp.csr_matrix((np.ones(a.indices.size, dtype=bool), a.indices,
                          a.indptr), shape=a.shape)


def _block_pattern(a: sp.csr_matrix, owner: np.ndarray,
                   ranks: int) -> sp.csr_matrix:
    """``(n x ranks)`` 0/1: row ``i`` reads a column of owner block ``q``
    other than its own (one entry per block).  A row whose columns all
    stay in its own block has an empty row here."""
    peer = owner[a.indices]
    off = peer != np.repeat(owner, np.diff(a.indptr))
    reads = sp.csr_matrix((np.ones(int(off.sum()), dtype=bool), peer[off],
                           _bounds(off)[a.indptr]),
                          shape=(a.shape[0], ranks))
    reads.sum_duplicates()
    return reads


def _pairs(held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The set entries ``(row, node)`` of a dense ``(k x m)`` bool
    indicator, row-major."""
    return np.divmod(np.flatnonzero(held), held.shape[1])


def _indicator(rank: np.ndarray, node: np.ndarray,
               shape: tuple[int, int]) -> sp.csr_matrix:
    """CSR ``(ranks x m)`` 0/1 indicator of the pairs ``(rank, node)``,
    ``rank`` ascending."""
    indptr = _bounds(np.bincount(rank, minlength=shape[0]))
    return sp.csr_matrix((np.ones(node.size, dtype=bool), node, indptr),
                         shape=shape)


def _entry_ranks(indptr: np.ndarray) -> np.ndarray:
    """Rank of every entry of a ``(ranks x m)`` CSR structure."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _whole_blocks(held: np.ndarray, partition: Partition) -> np.ndarray:
    """``(k x ranks)`` bool: row ``i`` of the dense ``(k x n)`` indicator
    ``held`` holds all of owner block ``q``.

    Reduced over the non-empty blocks only: their starts strictly
    increase, and each block runs to the next one's start (or ``n``) —
    the empty blocks in between have no width.  An empty block is whole.
    """
    whole = np.ones((held.shape[0], partition.ranks), dtype=bool)
    full = partition.counts > 0
    whole[:, full] = np.logical_and.reduceat(
        held, partition.offsets[:-1][full], axis=1)
    return whole


def _by_peer(counts: np.ndarray) -> list[dict[int, int]]:
    """Per-rank ``{peer: count}`` of the nonzero entries of a
    ``(ranks x ranks)`` count matrix, peers ascending."""
    rank, peer = np.nonzero(counts)
    sizes = np.count_nonzero(counts, axis=1)
    return [dict(zip(p, c)) for p, c in zip(
        _segments(sizes, peer.tolist()),
        _segments(sizes, counts[rank, peer].tolist()))]


def _reach(graph: sp.csr_matrix, start: np.ndarray,
           depth: int) -> np.ndarray:
    """Frontier BFS over ``graph`` from every rank at once.

    ``start`` is the ``(ranks x m)`` bool indicator of level 0; returns
    the ``(depth + 1, ranks, m)`` indicators of levels ``0..depth``.
    Level ``l+1`` adds what the nodes *added* at level ``l`` read (a node
    reads ``cols(graph[node, :])``, hence ``frontier @ graph``): older
    nodes were read one level earlier.
    """
    levels = np.empty((depth + 1, *start.shape), dtype=bool)
    levels[0] = start
    frontier = _indicator(*_pairs(start), start.shape)
    for held, below in zip(levels[1:], levels):
        held[...] = below
        reached = frontier @ graph
        rank = _entry_ranks(reached.indptr)
        fresh = ~held[rank, reached.indices]
        rank, node = rank[fresh], reached.indices[fresh]
        held[rank, node] = True
        frontier = _indicator(rank, node, start.shape)
    return levels


def _descriptors(memo: dict, counts_by_rank: list[dict[int, int]],
                 n_vectors: int) -> HaloDescriptors:
    """Per-rank ``{peer: bytes}`` for exchanging ``n_vectors`` fp64
    operands over ``counts_by_rank`` rows.

    Built once per ``n_vectors`` in ``memo`` and shared by every caller
    (read-only): plans are never mutated, so every exchange of a solve
    moves the same descriptors.
    """
    n_vectors = int(n_vectors)
    recv = memo.get(n_vectors)
    if recv is None:
        scale = _DOUBLE * n_vectors
        recv = memo[n_vectors] = HaloDescriptors(
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

    Reads only ``a``, ``partition`` and ``levels`` — nothing the
    analysis built on the way — and checks every rank and level at once,
    on dense ``(levels * ranks x n)`` indicators of the given sets.  Of
    ``cols(A[L_l, :])`` it traverses only the rows of ``L_l`` missing
    from ``L_{l-1}`` (one product of their indicator with the pattern of
    ``A``, or with the row-to-other-owner-block pattern): the others
    were read one level down, and their reads lie in ``L_{l+1}`` when
    that level held and ``L_l ⊆ L_{l+1}``, which is checked for every
    row.  So the first level failing on a rank is the one a full
    traversal names.
    """
    ranks, n = partition.ranks, partition.n_global
    owner = _owners(partition)
    block = expand == "block"
    reads_of = _block_pattern(a, owner, ranks) if block else _pattern(a)
    # a row with nothing to read here adds nothing beyond itself
    readers = np.diff(reads_of.indptr) > 0
    # held[l * ranks + r]: the rows levels[r][l] names
    by_level = list(zip(*levels))
    held = np.zeros((len(by_level), ranks, n), dtype=bool)
    starts = np.arange(0, ranks * n, n)
    for level, rows in zip(held, by_level):
        sizes = np.fromiter(map(len, rows), dtype=np.intp, count=ranks)
        level.ravel()[np.concatenate(rows) + np.repeat(starts, sizes)] = True
    held = held.reshape(-1, n)
    inner, outer = held[:-ranks], held[ranks:]  # L_l, L_{l+1}; l < depth
    if block:
        # a read lands in a block L_{l+1} holds whole
        landed = _whole_blocks(outer, partition)
        inside = np.repeat(landed, partition.counts, axis=1)
    else:
        inside = landed = outer
    # L_l itself (its owner blocks, for "block") inside L_{l+1}
    short = (inner & ~inside).any(axis=1)
    # what the rows new at level l read
    fresh = inner & readers
    fresh[ranks:] &= ~inner[:-ranks]
    pair, rows = _pairs(fresh)
    reads = _indicator(pair, rows, fresh.shape) @ reads_of
    read_pair = _entry_ranks(reads.indptr)
    short[read_pair[~landed[read_pair, reads.indices]]] = True
    short = short.reshape(-1, ranks).T  # (ranks x depth)
    if short.any():
        rank, lvl = np.argwhere(short)[0].tolist()
        raise ConfigurationError(
            f"ghost closure too small on rank {rank}: level "
            f"{lvl} reads rows outside level {lvl + 1} "
            f"(expand={expand!r})")


class HaloPlan:
    """Per-rank description of the off-rank vector entries SpMV gathers.

    Stores per-peer *row counts*; :meth:`recv_bytes` scales them to fp64
    bytes.  The plan is an analysis result: nothing mutates it, which is
    what lets it remember its descriptors.
    """

    __slots__ = ("recv_counts_by_peer", "halo_counts", "_recv_bytes")

    def __init__(self, recv_counts_by_peer: list[dict[int, int]],
                 halo_counts: np.ndarray) -> None:
        self.recv_counts_by_peer = recv_counts_by_peer
        self.halo_counts = halo_counts
        self._recv_bytes: dict[int, HaloDescriptors] = {}

    def recv_bytes(self, n_vectors: int = 1) -> HaloDescriptors:
        """Per-rank ``{peer: bytes}`` for exchanging ``n_vectors`` operands.

        Built once per ``n_vectors`` and shared by every caller
        (read-only): every SpMV of a solve exchanges the same
        descriptors, and the communicator remembers their cost on them.
        """
        return _descriptors(self._recv_bytes, self.recv_counts_by_peer,
                            n_vectors)

    @classmethod
    def analyze(cls, a: sp.csr_matrix, partition: Partition) -> "HaloPlan":
        """Count the distinct off-rank columns of every rank by owner.

        The depth-1 closure of every rank at once: the ownership
        indicator times the pattern of the global CSR ``a`` is, row
        ``r``, every column rank ``r``'s rows read, each once; one
        ``bincount`` of the off-rank ones by ``(rank, owner)`` follows.
        No per-rank block and no per-rank ``np.unique``.
        """
        ranks, n = partition.ranks, partition.n_global
        owner = _owners(partition)
        reads = _indicator(owner, np.arange(n), (ranks, n)) @ _pattern(a)
        rank = _entry_ranks(reads.indptr)
        peer = owner[reads.indices]
        off = peer != rank
        counts = np.bincount(rank[off] * ranks + peer[off],
                             minlength=ranks * ranks).reshape(ranks, ranks)
        return cls(_by_peer(counts), counts.sum(axis=1))


class _NearLevels:
    """Levels ``L_0`` and ``L_1`` of every rank's ghost closure, read off
    the depth-1 :class:`HaloPlan` with no analysis.

    ``L_0`` is the owned block.  ``L_1`` adds what the owned rows read:
    the halo rows (``expand="pointwise"``), or the whole blocks of the
    halo's peers (``expand="block"``).  The last step of a CA panel
    reads only these two levels — its SpMV over ``A[L_0, :]`` with the
    operand on ``L_1``, the preconditioner's ghost apply over ``L_1`` —
    so the fields below are those of a :class:`GhostPlan` of any depth,
    cut to what that step reads, and charge the same records
    (``level_nnz`` holds ``L_0`` alone).
    """

    __slots__ = ("partition", "level_rows", "level_nnz", "level_ranks",
                 "charge_memo")

    def __init__(self, partition: Partition, halo: HaloPlan,
                 block_nnz: np.ndarray, expand: str) -> None:
        counts = partition.counts
        owned = [[rank] if counts[rank] else [] for rank in range(len(counts))]
        # owner blocks intersecting L_1, ascending as a plan lists them
        near = [sorted([*own, *by_peer])
                for own, by_peer in zip(owned, halo.recv_counts_by_peer)]
        if expand == "block":
            level1 = [int(counts[peers].sum()) for peers in near]
        else:
            level1 = counts + halo.halo_counts
        self.partition = partition
        self.level_rows = np.stack([counts, level1], axis=1)
        self.level_nnz = np.asarray(block_nnz, dtype=np.int64)[:, None]
        self.level_ranks = [list(levels) for levels in zip(owned, near)]
        self.charge_memo: dict[tuple, KernelCharge] = {}


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
                 "_recv_bytes", "charge_memo")

    def __init__(self, partition: Partition, depth: int, expand: str,
                 held: np.ndarray, row_nnz: np.ndarray) -> None:
        """``held[l]`` is the dense ``(ranks x n)`` bool indicator of
        ``L_l`` (``held`` is ``(depth + 1, ranks, n)``); ``row_nnz`` the
        stored entries of every row of ``A``."""
        self.partition = partition
        self.depth = depth
        self.expand = expand
        ranks = partition.ranks
        self.n_global = n = partition.n_global
        flat = held.reshape(-1, n)  # row l * ranks + r

        def rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """The rows each row of the ``(k x n)`` indicator ``h``
            holds, row after row, and ``(k x ranks)`` how many of them
            each owner block has (cuts of its sorted flat keys)."""
            found = np.flatnonzero(h)  # keys i * n + row, ascending
            base = np.arange(0, h.size, n)
            at = np.searchsorted(found, base[:, None] + partition.offsets)
            found -= np.repeat(base, at[:, -1] - at[:, 0])
            return found, np.diff(at, axis=1)

        found, counts = rows(flat)
        # counts[l, r, q]: rows of L_l on rank r owned by rank q
        counts = counts.reshape(-1, ranks, ranks)
        sizes = counts.sum(axis=2)
        #: ``level_rows[rank, l]`` / ``level_nnz[rank, l]`` — size and CSR
        #: nonzeros of ``A[L_l, :]`` per rank (redundant-work costing).
        self.level_rows = np.ascontiguousarray(sizes.T)
        nnz = np.einsum("ij,j->i", flat, row_nnz, dtype=np.int64)
        self.level_nnz = np.ascontiguousarray(nnz.reshape(-1, ranks).T)
        #: ``levels[rank][l]`` — sorted global rows of ``L_l`` on ``rank``.
        self.levels = _per_rank(_segments(sizes.ravel(), found), ranks)
        #: ``level_ranks[rank][l]`` — owner ranks intersecting ``L_l``
        #: (block-preconditioner redundant applies touch these blocks).
        owners = counts.reshape(-1, ranks)
        self.level_ranks = _per_rank(_segments(
            np.count_nonzero(owners, axis=1), np.nonzero(owners)[1]), ranks)
        ghost_counts = counts[depth] * ~np.eye(ranks, dtype=bool)
        owned = _owners(partition) == np.arange(ranks)[:, None]
        ghosts, _ = rows(held[depth] & ~owned)
        #: ``ghost_rows[rank]`` — ``L_depth`` minus the owned block.
        self.ghost_rows = _segments(ghost_counts.sum(axis=1), ghosts)
        #: ``recv_counts_by_peer[rank]`` — ghost row counts by owner.
        self.recv_counts_by_peer = _by_peer(ghost_counts)
        self._recv_bytes: dict[int, HaloDescriptors] = {}
        #: For :meth:`CostModel.memoized <repro.parallel.costmodel
        #: .CostModel.memoized>`: charges of kernels over this plan.
        #: Level sizes never change, so every panel of a solve charges
        #: the same records.
        self.charge_memo: dict[tuple, KernelCharge] = {}

    # ------------------------------------------------------------------
    @classmethod
    def analyze(cls, a: sp.csr_matrix, partition: Partition, depth: int,
                expand: str = "pointwise") -> "GhostPlan":
        """Build the closure for ``depth`` operator applications, every
        rank at once (see the module docstring), then verify it with
        :func:`check_closure`."""
        if depth < 0:
            raise ConfigurationError(f"ghost depth must be >= 0, got {depth}")
        if expand not in EXPAND_MODES:
            raise ConfigurationError(
                f"unknown expand mode {expand!r}; expected one of "
                f"{EXPAND_MODES}")
        a = sp.csr_matrix(a)
        n, ranks = partition.n_global, partition.ranks
        if a.shape != (n, n):
            raise ConfigurationError(
                f"matrix shape {a.shape} does not match partition "
                f"n_global={n}")
        owner = _owners(partition)
        if expand == "block":
            # blocks[p, q]: a row of block p reads a column of block q
            blocks = _indicator(owner, np.arange(n), (ranks, n)) @ \
                _block_pattern(a, owner, ranks)
            held = np.repeat(_reach(blocks, np.eye(ranks, dtype=bool), depth),
                             partition.counts, axis=2)
        else:
            held = _reach(_pattern(a), owner == np.arange(ranks)[:, None],
                          depth)
        plan = cls(partition, depth, expand, held, np.diff(a.indptr))
        del held  # the check builds its own indicators from plan.levels
        check_closure(a, partition, plan.levels, expand)
        return plan

    # ------------------------------------------------------------------
    def recv_bytes(self, n_vectors: int = 1) -> HaloDescriptors:
        """Per-rank ``{peer: bytes}`` of the ONE aggregated deep-halo
        exchange moving ``n_vectors`` operands."""
        return _descriptors(self._recv_bytes, self.recv_counts_by_peer,
                            n_vectors)

    def ghost_counts(self) -> np.ndarray:
        """Ghost rows per rank at the deepest level (diagnostics)."""
        return np.array([g.size for g in self.ghost_rows], dtype=np.int64)

    def __repr__(self) -> str:
        return (f"GhostPlan(depth={self.depth}, expand={self.expand!r}, "
                f"ranks={self.partition.ranks}, "
                f"max_ghosts={int(self.ghost_counts().max(initial=0))})")
