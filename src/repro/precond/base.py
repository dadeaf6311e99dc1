"""Preconditioner interface.

A preconditioner approximates ``M ~ A`` and applies ``z = M^{-1} x`` to
distributed vectors.  ``setup`` receives the distributed matrix once;
``apply`` must be communication-free or charge its own communication —
the s-step MPK calls it once per step, so its synchronization pattern
directly affects the solver's communication profile (the reason the
paper uses a *local* preconditioner).

CA-MPK composition: the communication-avoiding matrix powers kernel can
only fold ``M^{-1}`` into its ghost-zone closure when the ghost values
of ``M^{-1} x`` are computable from a *finite* dependency set.
:attr:`Preconditioner.ghost_compat` declares that set's shape —
``"pointwise"`` (row ``i`` of ``M^{-1} x`` depends only on row ``i`` of
``x``: identity, Jacobi), ``"block"`` (depends on the owner rank's whole
block: block Jacobi), or ``None`` (no finite closure: polynomial and
other global preconditioners, which the CA kernel must reject).
Compatible preconditioners implement :meth:`apply_ghosted` and
:meth:`ghost_apply_charge`.  The two halves are deliberately separate:
the *modeled* machine applies ``M^{-1}`` redundantly on every rank's
ghost closure, and :meth:`ghost_apply_charge` is the record of exactly
that, from the plan's level sizes; the *host* only needs the values,
which are those of one whole-vector apply — so :meth:`apply_ghosted`
runs once per step, not once per rank.  With :meth:`apply_charge`, the
record one owned-rows :meth:`apply` charges, they are what the MPK's
``"auto"`` mode prices a cycle from, without charging anything.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ConfigurationError
from repro.parallel.costmodel import CostModel, KernelCharge


class Preconditioner(ABC):
    """Base class: ``setup`` once, ``apply`` per operator application."""

    name: str = "abstract"

    #: CA-MPK ghost-closure shape: "pointwise", "block", or None (see
    #: module docstring).  None means the CA kernel cannot compose.
    ghost_compat: str | None = None

    def __init__(self) -> None:
        self._matrix: DistSparseMatrix | None = None

    @property
    def is_setup(self) -> bool:
        return self._matrix is not None

    @property
    def matrix(self) -> DistSparseMatrix | None:
        """The matrix :meth:`setup` analyzed (None before)."""
        return self._matrix

    def setup(self, matrix: DistSparseMatrix) -> "Preconditioner":
        """Analyze/factor; returns self for chaining."""
        self._matrix = matrix
        self._setup_impl(matrix)
        return self

    def _setup_impl(self, matrix: DistSparseMatrix) -> None:
        """Subclass hook (default: nothing to precompute)."""

    @abstractmethod
    def apply(self, x: DistMultiVector, out: DistMultiVector) -> None:
        """``out = M^{-1} x`` (single-column distributed vectors)."""

    # -- CA-MPK ghost composition --------------------------------------
    def apply_ghosted(self, x: np.ndarray) -> np.ndarray:
        """``M^{-1} x`` for a global float64 vector.

        The values every rank of the CA kernel holds on its closure,
        bit-identical to what :meth:`apply` stores on the owning rank.
        """
        raise ConfigurationError(
            f"preconditioner {self.name!r} does not compose with the "
            f"CA matrix powers kernel (ghost_compat=None)")

    def apply_charge(self, cost: CostModel) -> tuple[str, KernelCharge]:
        """``(kernel, record)`` that one single-column :meth:`apply`
        charges on ``cost``'s machine."""
        raise ConfigurationError(
            f"preconditioner {self.name!r} has no apply record to price "
            f"a matrix powers kernel cycle from")

    def ghost_apply_charge(self, cost: CostModel, plan, level: int
                           ) -> tuple[str, KernelCharge]:
        """``(kernel, record)`` of one redundant ghosted apply over
        closure ``level``.

        ``plan`` is the :class:`~repro.distla.halo.GhostPlan`; per-rank
        costs follow each rank's own level size, mirroring what
        :meth:`apply_charge` prices on owned rows alone.
        """
        raise ConfigurationError(
            f"preconditioner {self.name!r} does not compose with the "
            f"CA matrix powers kernel (ghost_compat=None)")

    def _check_ready(self) -> None:
        if not self.is_setup:
            raise ConfigurationError(
                f"{type(self).__name__}.apply called before setup()")


class IdentityPreconditioner(Preconditioner):
    """No-op preconditioner (``M = I``)."""

    name = "identity"
    ghost_compat = "pointwise"

    def setup(self, matrix: DistSparseMatrix) -> "IdentityPreconditioner":
        self._matrix = matrix
        return self

    def apply(self, x: DistMultiVector, out: DistMultiVector) -> None:
        out.assign_from(x)

    def apply_ghosted(self, x: np.ndarray) -> np.ndarray:
        return x
