"""Matrix powers kernels and the (right-)preconditioned operator.

Two execution modes generate the s-step basis (Fig. 1 lines 7-9):

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

Both modes evaluate the identical recurrence over identical operand
values, so the generated basis is bit-identical — the tracer alone can
tell them apart.  The CA mode's per-rank charges depend only on the
ghost plan, the step's depth and the machine; they are evaluated once
and replayed
(:meth:`~repro.parallel.costmodel.CostModel.memoized`).  One helper,
:meth:`MatrixPowersKernel._panel_charges`, builds every record an
extension charges; :meth:`MatrixPowersKernel.cycle_price` sums them
without charging, which is how ``mpk_mode="auto"``
(:func:`resolve_mpk_mode`) picks the mode a solve's panels price
cheaper — after a floor on the CA price, read from the depth-1 halo
(:meth:`MatrixPowersKernel._cycle_floor`), has not already ruled CA
out.

CA composes with preconditioners through the ghost closure
(:attr:`~repro.precond.base.Preconditioner.ghost_compat`):
identity/Jacobi expand pointwise, block Jacobi rounds every level up to
whole owner blocks, and anything else (polynomial, ...) has no finite
closure — :class:`MatrixPowersKernel` raises ``ConfigurationError``,
which is exactly why the paper (and Trilinos) default to the standard
kernel for general preconditioning.
"""

from __future__ import annotations

import math

import numpy as np

from repro.distla import blas as dblas
from repro.distla.engine import rows_charge
from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ConfigurationError
from repro.krylov.basis import KrylovBasis, MonomialBasis
from repro.parallel.costmodel import LOCAL_OPS, CostModel, KernelCharge
from repro.precond.base import IdentityPreconditioner, Preconditioner

#: Valid ``mode`` values for :class:`MatrixPowersKernel`.
MPK_MODES = ("standard", "ca")


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
                or s.comm is not like.comm):
            # a stale scratch bound to another communicator would charge
            # modeled time to the wrong tracer
            self._scratch = DistMultiVector.zeros(
                like.partition, like.comm, 1)
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
        if mode == "ca" and not op.supports_ca:
            raise ConfigurationError(
                f"CA-MPK cannot compose with preconditioner "
                f"{op.precond.name!r}: its ghost values have no finite "
                f"dependency closure (ghost_compat=None); use "
                f"mode='standard' (or mpk_mode='auto' in sstep_gmres for "
                f"the automatic fallback)")
        self.mode = mode

    def extend(self, basis: DistMultiVector, lo: int, hi: int) -> None:
        """Generate columns ``lo..hi-1`` of ``basis`` (``lo >= 1``)."""
        if lo < 1:
            raise ConfigurationError("MPK needs a starting column before lo")
        if hi <= lo:
            return
        if self.mode == "ca":
            self._extend_ca(basis, lo, hi)
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
    def _panel_charges(self, cost: CostModel, lo: int, hi: int
                       ) -> tuple[list, list[list]]:
        """What extending columns ``lo..hi-1`` charges on ``cost``'s
        machine, without charging it.

        Returns ``(head, steps)``: the regions charged before the first
        step, and each step's regions.  A region is ``(phase,
        [(kernel, record), ...])``, charged in order inside one
        ``tracer.phase(phase)``.  A ``"halo"`` record is an exchange's
        per-rank descriptors (charged by
        :meth:`~repro.parallel.communicator.SimComm.charge_halo`); every
        other record is a :class:`~repro.parallel.costmodel.KernelCharge`.

        The CA kernel charges exactly these regions.  Its plan is
        analyzed if missing; while that analysis is unpaid its
        ``ghost_plan`` record leads the head.  The kernel pays it through
        :meth:`~repro.distla.spmatrix.DistSparseMatrix.ghost_plan` before
        it asks for its records, so what it charges from them never
        holds it; a price does.

        The standard kernel does not charge from these records: its
        charges are made by the kernels it calls — ``matvec``'s halo
        exchange and :meth:`~repro.distla.spmatrix.DistSparseMatrix
        ._local_spmv_charge`, the preconditioner's
        :meth:`~repro.precond.base.Preconditioner.apply_charge` and
        ``lincomb``'s ``axpy`` over the owned rows, per engine.  The
        records built here for it equal those charges by test
        (``tests/krylov/test_mpk_price.py``), not by construction.
        """
        matrix, precond = self.op.matrix, self.op.precond
        streams = self._streams(lo, hi)
        axpy_kernel = LOCAL_OPS["axpy"][0]
        if self.mode == "standard":
            spmv = [("halo", matrix.halo.recv_bytes()),
                    ("spmv_local", matrix._local_spmv_charge(cost))]
            steps = []
            for n in streams:
                regions = ([("precond", [precond.apply_charge(cost)])]
                           if self.op.is_preconditioned else [])
                regions.append(("spmv", spmv))
                if n:
                    regions.append(("spmv", [(axpy_kernel, rows_charge(
                        matrix.partition, cost, "axpy", 1, n))]))
                steps.append(regions)
            return [], steps

        plan = matrix._plan(hi - lo, self.op.ghost_expand)
        analysis = matrix._unpaid_analysis(hi - lo, self.op.ghost_expand)
        # three-term recurrences reach back one extra column; the panel's
        # first step additionally needs the *previous* panel's last
        # column on the ghost region, which rides in the same exchange
        gamma = self.basis_poly.coefficients(lo - 1)[2]
        n_vec = 2 if gamma != 0.0 and lo >= 2 else 1
        # -- the ONE aggregated deep-halo exchange ----------------------
        exchange = [("halo", plan.recv_bytes(n_vectors=n_vec))]
        # depth: the ghost levels remaining after the step
        steps = [self._ca_step(cost, plan, hi - 1 - col, n)
                 for col, n in zip(range(lo, hi), streams)]
        if analysis is not None:
            exchange.insert(0, ("ghost_plan", analysis))
        return [("spmv", exchange)], steps

    def _streams(self, lo: int, hi: int) -> list[int]:
        """The vectors the recurrence streams at each step of columns
        ``lo..hi-1``: 0 when the step is a bare SpMV."""
        streams = []
        for col in range(lo, hi):
            alpha, beta, gamma = self.basis_poly.coefficients(col - 1)
            streams.append((3 if gamma != 0.0 and col >= 2 else 2)
                           if alpha != 0.0 or gamma != 0.0 or beta != 1.0
                           else 0)
        return streams

    def _ca_step(self, cost: CostModel, plan, depth: int, n: int) -> list:
        """The regions of the CA step that lands on closure level
        ``depth`` of ``plan`` and streams ``n`` vectors (see
        :meth:`_panel_charges`).  It reads levels ``depth`` and
        ``depth + 1`` only."""
        rows, nnz = plan.level_rows, plan.level_nnz
        ranks = range(plan.partition.ranks)

        def record(kernel: str, key: tuple, evaluate) -> KernelCharge:
            """One per-rank record over the plan, evaluated on first use."""
            return cost.memoized(plan.charge_memo, (kernel,) + key, evaluate)

        regions = ([("precond", [self.op.precond.ghost_apply_charge(
            cost, plan, depth + 1)])] if self.op.is_preconditioned else [])
        spmv = [("spmv_local", record("spmv_local", (depth,),
                 lambda c: [c.spmv(int(nnz[r, depth]), int(rows[r, depth]),
                                   int(rows[r, depth + 1]))
                            for r in ranks]))]
        if n:  # last in the region: the kernel charges it apart
            axpy_kernel, axpy = LOCAL_OPS["axpy"]
            spmv.append((axpy_kernel, record(axpy_kernel, (depth, n),
                         lambda c: [axpy(c, int(rows[r, depth]), 1, n)
                                    for r in ranks])))
        regions.append(("spmv", spmv))
        return regions

    def cycle_price(self, panels) -> float:
        """Modeled seconds extending ``panels`` adds to a clock, charging
        nothing.

        ``panels`` are the solver's ``(lo, hi)`` column ranges (a first
        panel from column 0 is extended from column 1, as the solver
        does).  The price is the sum, in charge order, of the records of
        :meth:`_panel_charges` — a CA plan's unpaid analysis once, on
        the first panel that uses the plan — so it is, float for float,
        the clock a tracer started at zero reaches extending them.
        """
        comm = self.op.matrix.comm
        total = 0.0
        analyzed = set()  # the plan depths whose analysis is priced
        for lo, hi in panels:
            lo = max(lo, 1)
            if hi <= lo:
                continue
            head, steps = self._panel_charges(comm.cost, lo, hi)
            for regions in (head, *steps):
                for _, charges in regions:
                    for kernel, record in charges:
                        if kernel == "ghost_plan":
                            if hi - lo in analyzed:
                                continue
                            analyzed.add(hi - lo)
                        total += (comm._halo_cost(record)[0]
                                  if kernel == "halo" else record.seconds)
        return total

    def _cycle_floor(self, panels) -> float:
        """A lower bound on the ``"ca"`` :meth:`cycle_price` of
        ``panels`` that analyzes no ghost plan.

        The levels nest and every record's per-rank formula grows with
        the rows, nonzeros and blocks it covers, and a record costs its
        slowest rank's, so each CA step costs at least the panel's last
        step (depth 0).  That step reads only ``L_0`` and ``L_1``, which
        :meth:`~repro.distla.spmatrix.DistSparseMatrix._near_levels`
        reads off the halo.  The floor sums, in charge order, that
        step's records once per step of every panel, and leaves out the
        exchanges and the plan analysis.  Every term is ``>= 0`` on a
        machine with non-negative constants and round-to-nearest is
        monotone, so the floor is at most the price in floats too.
        """
        matrix = self.op.matrix
        near = matrix._near_levels(self.op.ghost_expand)
        total = 0.0
        for lo, hi in panels:
            for n in self._streams(max(lo, 1), hi):
                for _, charges in self._ca_step(matrix.comm.cost, near, 0, n):
                    for _, record in charges:
                        total += record.seconds
        return total

    def _extend_ca(self, basis: DistMultiVector, lo: int, hi: int) -> None:
        """Ghost-zone CA panel: 1 aggregated exchange + ``hi - lo`` local
        steps over a shrinking closure.

        What the modeled machine does and what the host computes are
        kept apart.  On the machine every rank holds its closure level
        and redundantly recomputes the shrinking ghost region (PA1);
        all of that is *charged*, from the plan's level sizes, as
        :meth:`_panel_charges` builds it: the deep halo, one
        ``spmv_local`` over ``A[L_depth, :]`` per step, the
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
        """
        comm = basis.comm
        matrix = self.op.matrix
        precond = self.op.precond
        # the plan's analysis is charged here, on its first use
        matrix.ghost_plan(hi - lo, self.op.ghost_expand)
        head, steps = self._panel_charges(comm.cost, lo, hi)

        def charge(charges) -> None:
            for kernel, record in charges:
                if kernel == "halo":
                    comm.charge_halo(record)
                else:
                    comm.charge(kernel, record)

        def gathered(col: int) -> np.ndarray:
            return basis.flat[:, col].copy()

        coeffs = {col: self.basis_poly.coefficients(col - 1)
                  for col in range(lo, hi)}
        track_prev = any(g != 0.0 for (_, _, g) in coeffs.values())
        for phase, charges in head:
            with comm.tracer.phase(phase):
                charge(charges)
        v_k = gathered(lo - 1)
        v_km1 = gathered(lo - 2) if coeffs[lo][2] != 0.0 and lo >= 2 else None

        # each charge follows the host work it models, as the mp
        # backend's measured twin times the work since the last charge
        for col, (*pre, (phase, spmv)) in zip(range(lo, hi), steps):
            alpha, beta, gamma = coeffs[col]
            z = v_k
            if pre:
                (pre_phase, pre_charges), = pre
                with comm.tracer.phase(pre_phase):
                    z = precond.apply_ghosted(v_k)
                    charge(pre_charges)
            with comm.tracer.phase(phase):
                v_new = matrix._global_csr @ z
                if alpha != 0.0 or gamma != 0.0 or beta != 1.0:
                    charge(spmv[:-1])  # the step's axpy record comes last
                    # identical operation order to the engines' lincomb
                    v_new *= 1.0 / beta
                    v_new += (-alpha / beta) * v_k
                    if gamma != 0.0 and col >= 2:
                        v_new += (-gamma / beta) * v_km1
                    charge(spmv[-1:])
                else:
                    charge(spmv)
            basis.scatter_col(col, v_new)
            if track_prev:
                v_km1 = v_k
            v_k = v_new


def resolve_mpk_mode(op: PreconditionedOperator, mpk_mode: str,
                     basis_poly: KrylovBasis, panels) -> str:
    """Resolve a solver-level ``mpk_mode`` (possibly ``"auto"``) to a
    concrete :class:`MatrixPowersKernel` mode.

    ``"auto"`` decides by price.  It prices one restart cycle of the
    solve's own ``panels`` — :meth:`MatrixPowersKernel.cycle_price` with
    ``basis_poly``'s coefficients — under
    ``"standard"``, and under ``"ca"`` when the preconditioner has a
    finite ghost closure.  The cheaper mode wins; a tie keeps ``"ca"``.
    Before it prices ``"ca"`` it prices the plan-free floor
    :meth:`MatrixPowersKernel._cycle_floor`: a ``"standard"`` price
    below it is below the ``"ca"`` price too, so ``"standard"`` is
    picked without analyzing a ghost plan it would not run.  The pick
    is the same either way; only a machine constant that the floor
    does not read (``host_flops``, which prices the plan analysis) can
    no longer make such a solve refuse.  The ``"ca"`` price holds the
    analysis of every ghost plan the matrix has not yet paid for, so
    the pick is exact for a full first cycle.  Later cycles pay no
    analysis, and a Newton basis that learns its shifts after the first
    cycle charges an ``axpy`` per step that its first-cycle price leaves
    out.  Pricing charges nothing, so
    ``"auto"``'s modeled clock is that of the mode it resolves to.  A
    price that is not finite (a machine constant that prices a kernel
    at ``inf`` or NaN) is a ``ConfigurationError`` naming the mode, the
    price and the machine: no comparison can rank it.  Explicit modes
    pass through untouched (their validation lives in
    :class:`MatrixPowersKernel`).
    """
    if mpk_mode != "auto":
        return mpk_mode
    if not op.supports_ca:
        return "standard"

    def price(cycle) -> float:
        try:
            return cycle(panels)
        except ZeroDivisionError:
            # a zero machine constant under a Python-float formula; NumPy
            # operands would have returned inf
            return math.inf

    def ranked(mode: str) -> float:
        seconds = price(MatrixPowersKernel(op, basis_poly, mode).cycle_price)
        if not math.isfinite(seconds):
            raise ConfigurationError(
                f"mpk_mode='auto' cannot rank the kernels: one cycle of "
                f"the {mode!r} kernel prices at {seconds!r} modeled s on "
                f"machine {op.matrix.comm.machine.name!r}; fix the "
                f"machine's constants or name an mpk_mode")
        return seconds

    standard = ranked("standard")
    floor = price(MatrixPowersKernel(op, basis_poly, "ca")._cycle_floor)
    if math.isfinite(floor) and standard < floor:
        return "standard"  # and no ghost plan is analyzed
    return "standard" if standard < ranked("ca") else "ca"
