"""Point Jacobi (diagonal) preconditioner — communication-free."""

from __future__ import annotations

import numpy as np

from repro.distla.engine import charge_rows, rows_charge
from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import NumericalError
from repro.parallel.costmodel import LOCAL_OPS, CostModel, KernelCharge
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

    def apply_charge(self, cost: CostModel) -> tuple[str, KernelCharge]:
        return "scale", rows_charge(self._matrix.partition, cost,
                                    "scale", 1, 2)

    def apply_ghosted(self, x: np.ndarray) -> np.ndarray:
        self._check_ready()
        return x * self._inv_diag

    def ghost_apply_charge(self, cost: CostModel, plan, level: int
                           ) -> tuple[str, KernelCharge]:
        kernel, formula = LOCAL_OPS["scale"]
        return kernel, cost.memoized(
            plan.charge_memo, ("jacobi", level), lambda c: [
                formula(c, int(plan.level_rows[r, level]), 1, 2)
                for r in range(plan.partition.ranks)])
