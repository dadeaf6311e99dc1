"""Matrix powers kernels and the (right-)preconditioned operator.

Three execution modes generate the s-step basis (Fig. 1 lines 7-9):

* ``"standard"`` — Trilinos' choice, which the paper follows: "applying
  each SpMV with neighborhood communication and preconditioner in
  sequence" (Section III).  One halo exchange + local SpMV (+
  preconditioner apply) per basis column: ``s`` latency-bound
  neighbourhood synchronizations per panel.
* ``"ca"`` — the communication-avoiding MPK of the classic s-step
  formulation (Chronopoulos & Kim; Demmel et al.'s "PA1"): ONE
  aggregated deep-halo exchange per panel gathers the s-level ghost-zone
  closure (:meth:`~repro.distla.spmatrix.DistSparseMatrix.ghost_plan`),
  then every step is a purely local SpMV that redundantly recomputes a
  ghost region shrinking by one level per step.  Latency is paid once
  per panel instead of once per column, at the price of redundant flops
  on the ghost rings.  That price is what the modeled machine pays and
  what is *charged*; the simulator itself evaluates the one global
  recurrence all the redundant copies agree with
  (:meth:`MatrixPowersKernel._extend_ca`).
* ``"ca_overlap"`` — the overlapped variant (Demmel et al.'s "PA2"):
  the depth-1 nearest-neighbour shell is exchanged eagerly (blocking),
  the deep-ring remainder is *posted* as a nonblocking exchange
  (:meth:`~repro.parallel.communicator.SimComm.post_ihalo`), and the
  first step's owned-rows SpMV runs inside the overlap window — the
  ring's modeled time drains behind it and the wait charges only the
  exposed remainder.  Same aggregate payload, same redundant flops,
  (partially) hidden deep-halo latency.

All modes evaluate the identical recurrence over identical operand
values, so the generated basis is bit-identical — the tracer alone can
tell them apart.  The CA modes' per-rank charges depend only on the
ghost plan, the step's depth, the operand word size and the machine;
they are evaluated once and replayed
(:meth:`~repro.parallel.costmodel.CostModel.memoized`).

CA composes with preconditioners through the ghost closure
(:attr:`~repro.precond.base.Preconditioner.ghost_compat`):
identity/Jacobi expand pointwise, block Jacobi rounds every level up to
whole owner blocks, and anything else (polynomial, ...) has no finite
closure — :class:`MatrixPowersKernel` raises ``ConfigurationError``,
which is exactly why the paper (and Trilinos) default to the standard
kernel for general preconditioning.  ``"ca_overlap"`` is stricter
still: splitting the ghost apply around the overlap window only has a
well-defined cost split for the *unpreconditioned* operator, so any
real preconditioner is rejected.
"""

from __future__ import annotations

import numpy as np

from repro.distla import blas as dblas
from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ConfigurationError
from repro.krylov.basis import KrylovBasis, MonomialBasis
from repro.parallel.costmodel import LOCAL_OPS
from repro.precond.base import IdentityPreconditioner, Preconditioner

#: Valid ``mode`` values for :class:`MatrixPowersKernel`.
MPK_MODES = ("standard", "ca", "ca_overlap")


class PreconditionedOperator:
    """Right-preconditioned operator ``op(v) = A (M^{-1} v)``.

    Right preconditioning keeps the GMRES residual in the original
    (unpreconditioned) norm, so the paper's convergence criterion — six
    orders of relative residual reduction — is unchanged.
    """

    def __init__(self, matrix: DistSparseMatrix,
                 precond: Preconditioner | None = None) -> None:
        if precond is None:
            precond = IdentityPreconditioner()
        elif (precond.is_setup
              and precond.matrix.partition != matrix.partition):
            # its blocks would be indexed with this matrix's rows
            theirs, ours = precond.matrix.partition, matrix.partition
            raise ConfigurationError(
                f"preconditioner {precond.name!r} was set up on a matrix "
                f"with (n, ranks) = ({theirs.n_global}, {theirs.ranks}), "
                f"the operator's has ({ours.n_global}, {ours.ranks}); "
                f"set it up on this simulation's matrix")
        self.matrix = matrix
        self.precond = precond
        self._scratch: DistMultiVector | None = None

    @property
    def is_preconditioned(self) -> bool:
        return not isinstance(self.precond, IdentityPreconditioner)

    @property
    def ghost_expand(self) -> str | None:
        """Ghost-closure expansion rule of the composed operator, or
        None when the preconditioner breaks CA composition."""
        return self.precond.ghost_compat

    @property
    def supports_ca(self) -> bool:
        """True when the CA-MPK can fold ``M^{-1}`` into its closure."""
        return self.precond.ghost_compat is not None

    def _get_scratch(self, like: DistMultiVector) -> DistMultiVector:
        s = self._scratch
        if (s is None
                or s.partition != like.partition
                or s.comm is not like.comm
                or s.storage != like.storage
                or s.accumulate != like.accumulate):
            # a stale scratch bound to another communicator would charge
            # modeled time to the wrong tracer; a storage mismatch would
            # silently run (and charge) the preconditioned chain at the
            # wrong precision
            self._scratch = DistMultiVector.zeros(
                like.partition, like.comm, 1, storage=like.storage,
                accumulate=like.accumulate)
        return self._scratch

    def apply(self, x: DistMultiVector, out: DistMultiVector) -> None:
        """``out = A M^{-1} x`` with phase-correct cost attribution."""
        comm = self.matrix.comm
        if self.is_preconditioned:
            z = self._get_scratch(x)
            with comm.tracer.phase("precond"):
                self.precond.apply(x, z)
            with comm.tracer.phase("spmv"):
                self.matrix.matvec(z, out=out)
        else:
            with comm.tracer.phase("spmv"):
                self.matrix.matvec(x, out=out)

    def apply_inverse_precond(self, x: DistMultiVector,
                              out: DistMultiVector) -> None:
        """``out = M^{-1} x`` (for the solution update ``x += M^{-1} Q y``)."""
        comm = self.matrix.comm
        if self.is_preconditioned:
            with comm.tracer.phase("precond"):
                self.precond.apply(x, out)
        else:
            out.assign_from(x)


class MatrixPowersKernel:
    """Fill basis columns ``[lo, hi)`` from column ``lo - 1`` (Fig. 1 l. 7-9).

    Per step ``k`` (global Arnoldi index), the configured basis recurrence

        v_{k+1} = (op(v_k) - alpha_k v_k - gamma_k v_{k-1}) / beta_k

    is evaluated with one operator application and a cheap streaming
    combination.  ``mode`` selects how the operator applications
    communicate (see module docstring): ``"standard"`` pays one halo
    exchange per step, ``"ca"`` one aggregated deep-halo exchange per
    :meth:`extend` call.
    """

    def __init__(self, op: PreconditionedOperator,
                 basis_poly: KrylovBasis | None = None,
                 mode: str = "standard") -> None:
        self.op = op
        self.basis_poly = basis_poly if basis_poly is not None else MonomialBasis()
        if mode not in MPK_MODES:
            raise ConfigurationError(
                f"unknown MPK mode {mode!r}; expected one of {MPK_MODES}")
        if mode in ("ca", "ca_overlap") and not op.supports_ca:
            raise ConfigurationError(
                f"CA-MPK cannot compose with preconditioner "
                f"{op.precond.name!r}: its ghost values have no finite "
                f"dependency closure (ghost_compat=None); use "
                f"mode='standard' (or mpk_mode='auto' in sstep_gmres for "
                f"the automatic fallback)")
        if mode == "ca_overlap" and op.is_preconditioned:
            raise ConfigurationError(
                f"the overlapped CA-MPK (PA2) does not compose with "
                f"preconditioner {op.precond.name!r}: splitting the "
                f"ghost apply around the posted ring exchange has no "
                f"well-defined cost split for a preconditioned operator; "
                f"use mode='ca' or mode='standard'")
        self.mode = mode

    def extend(self, basis: DistMultiVector, lo: int, hi: int) -> None:
        """Generate columns ``lo..hi-1`` of ``basis`` (``lo >= 1``)."""
        if lo < 1:
            raise ConfigurationError("MPK needs a starting column before lo")
        if hi <= lo:
            return
        if self.mode in ("ca", "ca_overlap"):
            self._extend_ca(basis, lo, hi,
                            overlap=self.mode == "ca_overlap")
        else:
            self._extend_standard(basis, lo, hi)

    # ------------------------------------------------------------------
    def _extend_standard(self, basis: DistMultiVector, lo: int,
                         hi: int) -> None:
        comm = basis.comm
        for col in range(lo, hi):
            k = col - 1  # recurrence step index
            alpha, beta, gamma = self.basis_poly.coefficients(k)
            v_k = basis.view_cols(col - 1)
            v_next = basis.view_cols(col)
            self.op.apply(v_k, v_next)  # v_next = A M^{-1} v_k
            if alpha != 0.0 or gamma != 0.0 or beta != 1.0:
                with comm.tracer.phase("spmv"):
                    terms = [(1.0 / beta, v_next.copy()),
                             (-alpha / beta, v_k)]
                    if gamma != 0.0 and col >= 2:
                        terms.append((-gamma / beta, basis.view_cols(col - 2)))
                    dblas.lincomb(v_next, terms)

    # ------------------------------------------------------------------
    def _extend_ca(self, basis: DistMultiVector, lo: int, hi: int,
                   overlap: bool = False) -> None:
        """Ghost-zone CA panel: 1 aggregated exchange + ``hi - lo`` local
        steps over a shrinking closure.

        What the modeled machine does and what the host computes are
        kept apart.  On the machine every rank holds its closure level
        and redundantly recomputes the shrinking ghost region (PA1);
        all of that is *charged*, from the plan's level sizes: the deep
        halo, one ``spmv_local`` over ``A[L_depth, :]`` per step, the
        preconditioner's redundant applies, the recurrence's ``axpy``.
        The *values* a rank would hold on its closure are, row for row,
        those of the global recurrence — each row of ``A M^{-1} v`` is
        the same sum over the same operands whichever rank forms it —
        so the host evaluates that recurrence once per step on the
        whole vector, in the operation order of the standard kernel,
        which keeps the basis bit-identical to it.  That every rank's
        closure really contains what its steps read is the invariant
        :func:`~repro.distla.halo.check_closure` verifies when the plan
        is analyzed; the per-rank ghosted execution survives as the
        oracle in ``tests/krylov/test_mpk_ca_oracle.py``.

        With ``overlap`` (PA2) the exchange is split: the depth-1 shell
        goes out eagerly (blocking — the first step's owned rows need
        it), the deep ring is posted nonblocking, and the first step's
        SpMV charge is split into an owned-rows part (inside the overlap
        window, draining the posted ring) and a ghost-ring remainder
        after the wait.  Exchanges are charge-only, so the basis stays
        bit-identical to ``"ca"`` and ``"standard"``.
        """
        comm = basis.comm
        tracer = comm.tracer
        matrix = self.op.matrix
        precond = self.op.precond
        steps = hi - lo
        plan = matrix.ghost_plan(steps, self.op.ghost_expand)
        ranks = range(basis.partition.ranks)
        rows, nnz = plan.level_rows, plan.level_nnz
        word = basis.word_bytes
        ctype = basis.np_dtype
        quantized = basis.storage != "fp64"
        preconditioned = self.op.is_preconditioned

        def charge(kernel: str, key: tuple, evaluate) -> None:
            """One per-rank charge over the plan, evaluated on first use."""
            comm.charge(kernel, comm.cost.memoized(
                plan.charge_memo, (kernel, word) + key, evaluate))

        coeffs = {col: self.basis_poly.coefficients(col - 1)
                  for col in range(lo, hi)}
        # three-term recurrences reach back one extra column; the panel's
        # first step additionally needs the *previous* panel's last
        # column on the ghost region, which rides in the same exchange
        track_prev = any(g != 0.0 for (_, _, g) in coeffs.values())
        gather_prev = coeffs[lo][2] != 0.0 and lo >= 2

        # -- the ONE aggregated deep-halo exchange ----------------------
        # (PA2: eager depth-1 shell now, deep ring posted nonblocking)
        n_vec = 2 if gather_prev else 1
        ring_req = None
        with tracer.phase("spmv"):
            if overlap:
                comm.charge_halo(plan.eager_recv_bytes(word, n_vectors=n_vec))
                ring = plan.ring_recv_bytes(word, n_vectors=n_vec)
                if any(ring):  # s == 1 (or a tiny grid) has no ring
                    ring_req = comm.post_ihalo(ring)
            else:
                comm.charge_halo(plan.recv_bytes(word, n_vectors=n_vec))

        def gathered(col: int) -> np.ndarray:
            return basis.view_cols(col).to_global()[:, 0].astype(np.float64)

        v_k = gathered(lo - 1)
        v_km1 = gathered(lo - 2) if gather_prev else None

        for col in range(lo, hi):
            depth = hi - 1 - col  # ghost levels remaining after this step
            alpha, beta, gamma = coeffs[col]
            three_term = gamma != 0.0 and col >= 2
            z = v_k
            if preconditioned:
                with tracer.phase("precond"):
                    z = precond.apply_ghosted(v_k, ctype)
                    precond.charge_ghost_apply(comm, plan, depth + 1)
            with tracer.phase("spmv"):
                v_new = matrix._global_csr @ z
                if quantized:
                    v_new = basis.quantize(v_new).astype(np.float64)
                if ring_req is not None and col == lo:
                    # PA2 first step: owned rows only need the eager
                    # shell — their charge drains the posted ring...
                    charge("spmv_local", ("owned",), lambda c: [
                        c.spmv(int(nnz[r, 0]), int(rows[r, 0]),
                               int(rows[r, 1]), word_bytes=word)
                        for r in ranks])
                    # ...then the ghost-ring remainder pays whatever the
                    # wait left exposed before it may run
                    comm.wait(ring_req)
                    charge("spmv_local", ("ring", depth), lambda c: [
                        c.spmv(int(nnz[r, depth] - nnz[r, 0]),
                               int(rows[r, depth] - rows[r, 0]),
                               int(rows[r, depth + 1]), word_bytes=word)
                        for r in ranks])
                else:
                    charge("spmv_local", (depth,), lambda c: [
                        c.spmv(int(nnz[r, depth]), int(rows[r, depth]),
                               int(rows[r, depth + 1]), word_bytes=word)
                        for r in ranks])
                if alpha != 0.0 or gamma != 0.0 or beta != 1.0:
                    # identical operation order to the engines' lincomb
                    v_new *= 1.0 / beta
                    v_new += (-alpha / beta) * v_k
                    if three_term:
                        v_new += (-gamma / beta) * v_km1
                    if quantized:
                        v_new = basis.quantize(v_new).astype(np.float64)
                    streams = 3 if three_term else 2
                    kernel, formula = LOCAL_OPS["axpy"]
                    charge(kernel, (depth, streams), lambda c: [
                        formula(c, int(rows[r, depth]), 1, streams, word)
                        for r in ranks])
            basis.scatter_col(col, v_new)
            if track_prev:
                v_km1 = v_k
            v_k = v_new


def resolve_mpk_mode(op: PreconditionedOperator, mpk_mode: str) -> str:
    """Resolve a solver-level ``mpk_mode`` (possibly ``"auto"``) to a
    concrete :class:`MatrixPowersKernel` mode.

    ``"auto"`` is ``"ca"`` when the preconditioner has a finite ghost
    closure and ``"standard"`` otherwise.  It never picks
    ``"ca_overlap"``: the PA2 kernel pays an extra depth-1 exchange and
    splits the first SpMV, which costs more modeled time than the deep
    ring it hides on every machine tried.  Explicit
    modes pass through untouched (their validation lives in
    :class:`MatrixPowersKernel`).
    """
    if mpk_mode != "auto":
        return mpk_mode
    return "ca" if op.supports_ca else "standard"
