"""Point Jacobi (diagonal) preconditioner — communication-free."""

from __future__ import annotations

import numpy as np

from repro.distla.engine import charge_rows
from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import NumericalError
from repro.precond.base import Preconditioner


class JacobiPreconditioner(Preconditioner):
    """``M = diag(A)``: one streaming scale per apply, no messages."""

    name = "jacobi"
    ghost_compat = "pointwise"

    def __init__(self) -> None:
        super().__init__()
        self._inv_diag: np.ndarray | None = None

    def _setup_impl(self, matrix: DistSparseMatrix) -> None:
        diag = matrix.diagonal()
        if np.any(diag == 0.0):
            raise NumericalError(
                "Jacobi preconditioner requires a zero-free diagonal")
        # global: apply() scales the flat storage in one pass, and the
        # CA-MPK's whole-vector apply needs every rank's ghost rows
        self._inv_diag = 1.0 / diag

    def apply(self, x: DistMultiVector, out: DistMultiVector) -> None:
        self._check_ready()
        # elementwise, so rank boundaries do not matter
        np.multiply(x.flat, self._inv_diag[:, np.newaxis], out=out.flat)
        charge_rows(x, "scale", x.n_cols, 2)  # reads x and the diagonal

    def apply_ghosted(self, x: np.ndarray, ctype: np.dtype) -> np.ndarray:
        self._check_ready()
        # same cast chain as apply(): multiply in float64, store through
        # the container dtype
        return (x * self._inv_diag).astype(ctype).astype(np.float64)

    def charge_ghost_apply(self, comm, plan, level: int) -> None:
        comm.charge("scale", comm.cost.memoized(
            plan.charge_memo, ("jacobi", level), lambda c: [
                c.blas1(int(plan.level_rows[r, level]), n_streams=2, writes=1)
                for r in range(plan.partition.ranks)]))
