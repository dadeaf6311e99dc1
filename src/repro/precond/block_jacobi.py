"""Block Jacobi with local Gauss-Seidel (the paper's Fig. 13 setup).

Each rank smooths its own diagonal block with Gauss-Seidel sweeps; no
inter-rank coupling is used (the off-block entries are simply dropped),
so an apply costs zero messages — exactly the "local Gauss-Seidel
preconditioner (block Jacobi with Gauss-Seidel in each block [2])".

How the simulator executes it: the blocks do not couple, so the
multicolor sweeps of all ranks run as ONE sweep over the block-diagonal
part of ``A``, colour class ``c`` being the union of every block's class
``c``.  A CSR row product reads only its own row, in stored entry order,
so this equals the per-block :class:`~repro.precond.gauss_seidel
.LocalGaussSeidel` sweeps bit for bit (the per-block form survives as
the oracle in the tests); first-fit colouring only looks at neighbours
already coloured, all of them in the row's own block, so colouring the
block-diagonal part once equals colouring block by block.  Set-up
stores that part in colour order — rows and columns renumbered, every
row's entries in stored order — so an apply is one gather of ``x``'s
storage, a sweep over contiguous class slices, and one scatter of ``z``
into the result's storage; the first sweep reads only the columns of
earlier colours (see :meth:`BlockJacobiPreconditioner._solve`).  The
per-rank charges are constants of the matrix and the machine: evaluated
once, replayed per apply, and they price the full block whatever a
sweep reads.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ConfigurationError, NumericalError
from repro.parallel.costmodel import LOCAL_OPS, CostModel, KernelCharge
from repro.precond.base import Preconditioner
from repro.precond.coloring import greedy_coloring
from repro.precond.gauss_seidel import LocalGaussSeidel

_KERNEL, _GS_SWEEP = LOCAL_OPS["gs_sweep"]


def _block_diagonal_part(a: sp.csr_matrix, offsets: np.ndarray
                         ) -> sp.csr_matrix:
    """The entries of ``a`` whose column lies in their row's owner block,
    each row's kept entries in stored order."""
    # the owner block's bounds, per row and then per stored entry
    rows_per_block, entries_per_row = np.diff(offsets), np.diff(a.indptr)
    lo = np.repeat(np.repeat(offsets[:-1], rows_per_block), entries_per_row)
    hi = np.repeat(np.repeat(offsets[1:], rows_per_block), entries_per_row)
    keep = (a.indices >= lo) & (a.indices < hi)
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return sp.csr_matrix(
        (a.data[keep], a.indices[keep], kept_before[a.indptr]), shape=a.shape)


def _class_rows(data: np.ndarray, cols: np.ndarray, indptr: np.ndarray,
                classes: list[tuple[int, int]]) -> list[sp.csr_matrix]:
    """The rows ``lo:hi`` of the CSR ``(data, cols, indptr)`` as one
    matrix per class, entries in stored order."""
    n = len(indptr) - 1
    return [sp.csr_matrix((data[indptr[lo]:indptr[hi]],
                           cols[indptr[lo]:indptr[hi]],
                           indptr[lo:hi + 1] - indptr[lo]), shape=(hi - lo, n))
            for lo, hi in classes]


class BlockJacobiPreconditioner(Preconditioner):
    """One (or more) local multicolor Gauss-Seidel sweeps per block.

    Parameters
    ----------
    sweeps:
        Gauss-Seidel sweeps per apply (default 1, as a smoother).
    ordering:
        "multicolor" (GPU-style, the paper's choice) or "natural".
    """

    name = "block_jacobi_gs"
    #: The GS solve couples every row of a rank's block, so the CA-MPK
    #: ghost closure must round each level up to whole owner blocks.
    ghost_compat = "block"

    def __init__(self, sweeps: int = 1, ordering: str = "multicolor") -> None:
        super().__init__()
        if ordering not in ("natural", "multicolor"):
            raise ConfigurationError(f"unknown ordering {ordering!r}")
        if sweeps < 1:
            raise ConfigurationError(f"sweeps must be >= 1, got {sweeps}")
        self.sweeps = sweeps
        self.ordering = ordering

    def _setup_impl(self, matrix: DistSparseMatrix) -> None:
        offsets = matrix.partition.offsets
        bounds = self._bounds = list(zip(offsets[:-1], offsets[1:]))
        diag_part = _block_diagonal_part(matrix._global_csr, offsets)
        #: per block: stored entries, rows, kernel launches per sweep
        self._block_nnz = np.diff(diag_part.indptr[offsets])
        self._block_rows = matrix.partition.counts
        #: what an apply costs each rank: on its own block (key None),
        #: or redundantly over a ghost plan's level (key ``(plan, level)``)
        self._charges: dict[tuple, KernelCharge] = {}
        if self.ordering == "natural":
            # one sparse triangular solve per block and sweep
            self._solvers = [
                LocalGaussSeidel(diag_part[lo:hi, lo:hi], ordering="natural",
                                 sweeps=self.sweeps)
                for lo, hi in bounds]
            self._launches = [1] * len(bounds)
            return
        diag = diag_part.diagonal()
        if np.any(diag == 0.0):
            raise NumericalError("Gauss-Seidel requires nonzero diagonal")
        colors = greedy_coloring(diag_part)
        # multicolor ordering pays one kernel launch per colour of the
        # block (an empty block launches nothing)
        launches = np.zeros(len(bounds), dtype=np.int64)
        full = self._block_rows > 0
        launches[full] = np.maximum.reduceat(colors, offsets[:-1][full]) + 1
        self._launches = launches.tolist()
        #: rows in colour order: class ``c`` is ``_order[lo:hi]`` for
        #: ``(lo, hi) = _classes[c]``
        order = self._order = np.argsort(colors, kind="stable")
        cuts = np.concatenate(([0], np.cumsum(np.bincount(colors))))
        classes = self._classes = list(zip(cuts[:-1].tolist(),
                                           cuts[1:].tolist()))
        self._inv_diag = 1.0 / diag[order]
        # the block-diagonal part with rows and columns renumbered into
        # colour order, each row's entries still in stored order
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        by_colour = diag_part[order, :]
        data, cols = by_colour.data, position[by_colour.indices]
        #: the full rows of each class, for every sweep after the first
        self._class_rows = _class_rows(data, cols, by_colour.indptr, classes)
        # the first sweep starts from z = +0.0: a class reads only the
        # entries of the classes before it, and one with none reads
        # nothing (None; see ``_solve``)
        earlier = cols < np.repeat(cuts[colors[order]],
                                   np.diff(by_colour.indptr))
        kept_before = np.concatenate(([0], np.cumsum(earlier)))
        self._first_rows = [
            rows if rows.nnz else None
            for rows in _class_rows(data[earlier], cols[earlier],
                                    kept_before[by_colour.indptr], classes)]

    def _solve(self, x: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
        """``sweeps`` forward GS sweeps from zero on every block, for a
        global float64 vector ``x``, written into ``out`` (which may
        alias ``x``; a new array when None) and returned.

        The multicolor sweeps run in colour order: one gather of ``x``
        before, one scatter of ``z`` into ``out`` after, contiguous
        classes between.  In the first sweep ``z`` is exactly ``+0.0``
        on the classes not yet reached (the current one included: its
        product is formed before its update), and the matrix is finite,
        so every term a row reads there is ``±0``.  A CSR row sum starts
        at ``+0.0`` and never becomes ``-0.0``, so adding ``±0`` leaves
        it unchanged: dropping those terms is bit-identical, for any
        ``x``.  A class left with no term skips its product, as
        ``x - (+0.0)`` is ``x`` bit for bit.
        """
        self._check_ready()
        if out is None:
            out = np.empty_like(x)
        if self.ordering == "natural":
            # a block's solve reads only its own rows of ``x``
            for solver, (lo, hi) in zip(self._solvers, self._bounds):
                out[lo:hi] = solver.apply(x[lo:hi])
            return out
        x = x[self._order]  # a copy, so ``out`` may alias the operand
        z = np.zeros_like(x)
        for sweep in range(self.sweeps):
            rows_by_class = self._class_rows if sweep else self._first_rows
            for (lo, hi), rows in zip(self._classes, rows_by_class):
                # z_c <- z_c + D_c^{-1} (x_c - (A z)_c)
                r = x[lo:hi] if rows is None else x[lo:hi] - rows @ z
                z[lo:hi] += self._inv_diag[lo:hi] * r
        out[self._order] = z
        return out

    def _sweep(self, cost, rank: int) -> float:
        """The ``gs_sweep`` price of rank ``rank``'s block."""
        return _GS_SWEEP(cost, int(self._block_rows[rank]),
                         int(self._block_nnz[rank]), self.sweeps,
                         self._launches[rank])

    def apply(self, x: DistMultiVector, out: DistMultiVector) -> None:
        self._solve(x.flat[:, 0], out.flat[:, 0])
        x.comm.charge(*self.apply_charge(x.comm.cost))

    def apply_charge(self, cost: CostModel) -> tuple[str, KernelCharge]:
        return _KERNEL, cost.memoized(self._charges, None, lambda c: [
            self._sweep(c, rank) for rank in range(len(self._bounds))])

    # -- CA-MPK ghost composition --------------------------------------
    def apply_ghosted(self, x: np.ndarray) -> np.ndarray:
        return self._solve(x)

    def ghost_apply_charge(self, cost: CostModel, plan, level: int
                           ) -> tuple[str, KernelCharge]:
        """Every rank redundantly solves each owner block its closure
        ``level`` intersects (block-complete by the plan's invariant)."""
        return _KERNEL, cost.memoized(
            self._charges, (plan, level), lambda c: [
                sum(self._sweep(c, int(peer)) for peer in per_rank[level])
                for per_rank in plan.level_ranks])
