"""Block-row distributed sparse matrices with precomputed halo plans.

A :class:`DistSparseMatrix` slices a global CSR matrix into per-rank row
blocks and analyzes, once, which off-rank entries of the input vector each
rank's rows reference (the *halo*).  ``matvec`` then charges one
neighbourhood exchange (paper Sec. III: "applying each SpMV with
neighborhood communication ... in sequence" — Trilinos' standard, non-CA
matrix powers kernel) plus per-rank local SpMV kernels.

How the simulator executes it: the values come from ONE product of the
global CSR matrix with the operand's contiguous column, written into
the result's contiguous column, and the per-rank charges — constants of
the matrix and the machine — are evaluated once and replayed.  A CSR
row product reads only
its own row, in stored entry order, and ``a[rows, :]`` keeps that
order, so the result equals the per-block products ``block_r @ x``
bit for bit; the per-block form survives as the oracle in the tests
and as what the real-process backend's workers run.

The multi-level ghost-zone closures behind the *communication-avoiding*
MPK live in :mod:`repro.distla.halo`; :meth:`DistSparseMatrix.ghost_plan`
analyzes and caches one :class:`~repro.distla.halo.GhostPlan` per
``(depth, expand)`` so repeated s-step panels reuse the setup.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.distla.halo import GhostPlan, HaloPlan, _NearLevels
from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import CostModel, KernelCharge
from repro.parallel.partition import Partition
from repro.utils.validation import check_finite


class DistSparseMatrix:
    """Square sparse matrix in 1-D block-row distribution.

    Parameters
    ----------
    global_matrix:
        Any scipy sparse matrix (converted to CSR); must be square with
        finite entries.  A CSR input is held by reference: do not modify
        it afterwards.
    partition / comm:
        Row distribution and the simulated communicator.
    """

    def __init__(self, global_matrix: sp.spmatrix, partition: Partition,
                 comm: SimComm) -> None:
        a = sp.csr_matrix(global_matrix)
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"matrix must be square, got {a.shape}")
        if a.shape[0] != partition.n_global:
            raise ShapeError(
                f"matrix has {a.shape[0]} rows, partition expects "
                f"{partition.n_global}")
        check_finite(a.data, "matrix")
        self.partition = partition
        self.comm = comm
        self.n_global = partition.n_global
        self.halo = HaloPlan.analyze(a, partition)
        self.nnz = int(a.nnz)
        self._diag = a.diagonal().copy()
        self._global_csr = a
        self._ghost_plans: dict[tuple[int, str], GhostPlan] = {}
        #: the keys of the plans whose analysis has been charged
        self._charged_plans: set[tuple[int, str]] = set()
        #: ``expand ->`` every plan's first two levels, from the halo
        self._near: dict[str, _NearLevels] = {}
        #: ``machine ->`` the ``spmv_local`` charge
        self._spmv_charges: dict[tuple, KernelCharge] = {}

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_global, self.n_global)

    def diagonal(self) -> np.ndarray:
        """Copy of the global diagonal (used by Jacobi preconditioners)."""
        return self._diag.copy()

    def local_block(self, rank: int) -> sp.csr_matrix:
        """Rank ``rank``'s row block ``A[rows_rank, :]``, sliced anew at
        every call (the real-process workers and the tests read it)."""
        return self._global_csr[self.partition.local_slice(rank), :]

    def ghost_plan(self, depth: int, expand: str = "pointwise") -> GhostPlan:
        """Cached s-level ghost-zone closure (see :mod:`repro.distla.halo`).

        ``depth`` is the number of local operator applications the plan
        must cover; ``expand`` the per-level dependency rule of the
        composed operator (``"pointwise"`` for identity/Jacobi
        preconditioning, ``"block"`` for block Jacobi).
        """
        key = (int(depth), expand)
        plan = self._plan(*key)
        analysis = self._unpaid_analysis(*key)
        if analysis is not None:
            self._charged_plans.add(key)
            # closure analysis is real setup work — charge it on the
            # plan's first use so short solves don't get deep-halo
            # planning for free (reuse across panels/solves stays free)
            with self.comm.tracer.phase("spmv"):
                self.comm.charge("ghost_plan", analysis)
        return plan

    def _plan(self, depth: int, expand: str) -> GhostPlan:
        """The cached plan of :meth:`ghost_plan`, analyzed on a miss but
        charged nothing: what pricing a CA panel reads.  Its analysis is
        charged when :meth:`ghost_plan` first hands it out."""
        key = (int(depth), expand)
        plan = self._ghost_plans.get(key)
        if plan is None:
            plan = self._ghost_plans[key] = GhostPlan.analyze(
                self._global_csr, self.partition, depth, expand=expand)
        return plan

    def _near_levels(self, expand: str) -> _NearLevels:
        """Levels ``L_0`` and ``L_1`` of every ghost plan of ``expand``,
        read off :attr:`halo` with no analysis (cached)."""
        near = self._near.get(expand)
        if near is None:
            indptr = self._global_csr.indptr
            near = self._near[expand] = _NearLevels(
                self.partition, self.halo,
                np.diff(indptr[self.partition.offsets]), expand)
        return near

    def _unpaid_analysis(self, depth: int, expand: str
                         ) -> KernelCharge | None:
        """The ``ghost_plan`` record :meth:`ghost_plan` charges on the
        plan's first use, or None once it has been charged."""
        if (int(depth), expand) in self._charged_plans:
            return None
        plan = self._plan(depth, expand)
        return self.comm.cost.record(
            lambda c: [c.ghost_plan_analysis(float(plan.level_rows[r].sum()),
                                             float(plan.level_nnz[r].sum()))
                       for r in range(self.partition.ranks)])

    # ------------------------------------------------------------------
    def _local_spmv_charge(self, cost: CostModel) -> KernelCharge:
        """The ``spmv_local`` charge, evaluated once per machine.

        Every input — block nonzeros and rows, owned plus ghost operand
        entries — is fixed at construction, so each SpMV of a solve
        charges the same record.  A rank's block nonzeros are the span
        of its rows in the global ``indptr``.
        """
        return cost.memoized(self._spmv_charges, None, self._spmv_seconds)

    def _spmv_seconds(self, cost: CostModel) -> list[float]:
        offsets = self.partition.offsets
        nnz = np.diff(self._global_csr.indptr[offsets]).tolist()
        rows = np.diff(offsets).tolist()
        halo = self.halo.halo_counts.tolist()
        return [cost.spmv(nnz[rank], rows[rank], rows[rank] + halo[rank])
                for rank in range(self.partition.ranks)]

    def matvec(self, x: DistMultiVector, out: DistMultiVector | None = None
               ) -> DistMultiVector:
        """Distributed ``y = A @ x`` for a 1-column multivector.

        Numerically identical to a real distributed SpMV: each row
        multiplies the globally-assembled operand (which a real run would
        have gathered via the halo exchange we charge for).
        """
        if x.partition != self.partition:
            raise ShapeError("operand partition differs from matrix partition")
        if x.n_cols != 1:
            raise ShapeError(f"matvec expects 1 column, got {x.n_cols}")
        comm = self.comm
        if out is None:
            out = DistMultiVector.zeros(self.partition, comm, 1)
        elif out.n_cols != 1 or out.partition != self.partition:
            raise ShapeError("out vector is not conformal")
        # a backend with real ranks may execute the SpMV itself (each
        # worker gathers the operand and computes its own block row);
        # the simulator returns False and the driver computes below —
        # modeled charges are identical either way
        executed = comm.exec_spmv(self, x, out)
        comm.charge_halo(self.halo.recv_bytes())
        if not executed:
            # The product is complete before ``out`` (which may alias
            # ``x``) is written.  The operand is multiplied where it
            # lies: its column is contiguous.
            out.scatter_col(0, self._global_csr @ x.flat[:, 0])
        comm.charge("spmv_local", self._local_spmv_charge(comm.cost))
        return out

    def matvec_batched(self, xs: list[DistMultiVector],
                       outs: list[DistMultiVector | None] | None = None
                       ) -> list[DistMultiVector]:
        """Several :meth:`matvec` applications as ONE charged pass.

        Values are identical to per-operand calls; the modeled charges
        fuse as the members of one communicator ``group()`` — one halo
        exchange whose payload carries every operand's ghost rows, one
        local-SpMV launch over the stacked operands.  The batched
        multi-RHS solver's panel generation is exactly this pattern.
        """
        if outs is None:
            outs = [None] * len(xs)
        if len(outs) != len(xs):
            raise ShapeError(
                f"{len(xs)} operands but {len(outs)} output vectors")
        results: list[DistMultiVector] = []
        with self.comm.group():
            for x, out in zip(xs, outs):
                with self.comm.member():
                    results.append(self.matvec(x, out=out))
        return results

    def to_scipy(self) -> sp.csr_matrix:
        """Copy of the global CSR matrix."""
        return self._global_csr.copy()

    def __repr__(self) -> str:
        return (f"DistSparseMatrix(n={self.n_global}, nnz={self.nnz}, "
                f"ranks={self.partition.ranks})")
