"""The restart shell every solver entry point runs inside (paper Fig. 1).

All restarted GMRES variants here share one outline — explicit residual
``r = b - A x``, build basis vectors, small least squares, update
``x += M^{-1} V y``, restart — and differ only in the cycle body between
the residual and the update.  :class:`RestartedSolve` is that outline's
state and its three costed steps, written once; each solver keeps its
own loop and cycle body and calls in.  :func:`check_inputs` is the one
door check, run by every entry point before anything is charged.

Internal: nothing here is public API.
"""

from __future__ import annotations

import numpy as np

from repro.distla import blas as dblas
from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.mpk import PreconditionedOperator
from repro.krylov.result import ConvergenceHistory, SolveResult
from repro.krylov.simulation import Simulation
from repro.precond.base import Preconditioner
from repro.utils.validation import (
    check_finite,
    check_nonnegative_int,
    check_positive_int,
)


def _checked_vector(sim: Simulation, arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64).ravel()
    if arr.shape != (sim.n,):
        raise ShapeError(
            f"{name} must have {sim.n} entries, got {arr.shape[0]}")
    return check_finite(arr, name)


def check_inputs(sim: Simulation, b, x0=None, *, s: int = 1,
                 restart: int = 1, maxiter: int = 0, tol: float = 0.0
                 ) -> tuple[np.ndarray, np.ndarray | None]:
    """Refuse a solve that cannot run, before anything is charged.

    ``s = 0`` or ``restart = 0`` would loop forever, a NaN in ``b``
    would surface from inside a kernel naming no argument, and no
    residual ever passes a NaN or negative tolerance, so the solve runs
    to ``maxiter`` and reports failure at machine precision; here each
    raises :class:`ConfigurationError` (:class:`ShapeError` for a wrong
    length) naming the argument.  Callers pass the parameters they
    have (a tolerance of ``0.0`` or ``inf`` is legal).  Returns ``b``
    and ``x0`` as flat float64.
    """
    check_positive_int(s, "s")
    check_positive_int(restart, "restart")
    if restart < s:
        raise ConfigurationError(f"restart {restart} must be >= step {s}")
    check_nonnegative_int(maxiter, "maxiter")
    if not tol >= 0:  # NaN compares false
        raise ConfigurationError(
            f"tol must be a non-negative number, got {tol}")
    return (_checked_vector(sim, b, "b"),
            None if x0 is None else _checked_vector(sim, x0, "x0"))


def _explicit_residual(sim: Simulation, b_vec, x_vec, scratch) -> float:
    """``r = b - A x`` into ``scratch``; returns ||r|| (costed)."""
    with sim.tracer.phase("spmv"):
        sim.matrix.matvec(x_vec, out=scratch)
    with sim.tracer.phase("other"):
        dblas.lincomb(scratch, [(1.0, b_vec), (-1.0, scratch)])
        beta = float(dblas.column_norms(scratch)[0])
    return beta


class RestartedSolve:
    """One right-hand side's trip through the restart shell.

    Owns what is the same in every solver: the tracer snapshot the
    result's times are read against, preconditioner set-up and the
    right-preconditioned operator, the fp64 right-hand side / iterate /
    residual vectors, and the convergence bookkeeping (``beta0``,
    ``history``, ``rel_res``, ``iters``, ``restarts``, ``converged``) —
    which the solver's cycle body advances directly.  ``b`` and ``x0``
    come from :func:`check_inputs`.
    """

    def __init__(self, sim: Simulation, b: np.ndarray,
                 x0: np.ndarray | None = None,
                 precond: Preconditioner | None = None) -> None:
        self.sim = sim
        self.snap = sim.tracer.snapshot()
        if precond is not None and not precond.is_setup:
            precond.setup(sim.matrix)
        self.op = PreconditionedOperator(sim.matrix, precond)
        self.b_vec = sim.vector_from(b)
        self.x_vec = sim.vector_from(x0 if x0 is not None
                                     else np.zeros(sim.n))
        self.r_vec = sim.zeros(1)
        self.history = ConvergenceHistory()
        self.beta0: float | None = None
        self.rel_res = np.inf
        self.iters = 0
        self.restarts = 0
        self.converged = False
        self._scratch = None  # (V y, M^{-1} V y) of the update

    def residual(self) -> float:
        """Explicit ``r = b - A x`` into ``r_vec``; returns ``||r||``.

        The first call fixes the reference norm ``beta0`` and opens the
        history; every call refreshes ``rel_res``.
        """
        gamma = _explicit_residual(self.sim, self.b_vec, self.x_vec,
                                   self.r_vec)
        if self.beta0 is None:
            self.beta0 = gamma if gamma > 0 else 1.0
            self.history.record(0, gamma / self.beta0)
        self.rel_res = gamma / self.beta0
        return gamma

    def update(self, basis, c: int, y: np.ndarray) -> None:
        """``x += M^{-1} V[:, :c] y`` (right preconditioning)."""
        if self._scratch is None:
            # both are fully overwritten before they are read
            self._scratch = (self.sim.zeros(1), self.sim.zeros(1))
        tmp, z = self._scratch
        tracer = self.sim.tracer
        with tracer.phase("other"):
            dblas.matvec_small(basis.view_cols(slice(0, c)),
                               y[:, np.newaxis], tmp)
        self.op.apply_inverse_precond(tmp, z)
        with tracer.phase("other"):
            dblas.lincomb(self.x_vec, [(1.0, self.x_vec), (1.0, z)])

    def result(self, **fields) -> SolveResult:
        """The :class:`SolveResult` of everything since the snapshot;
        ``fields`` are the solver's own (``solver``, ``scheme``, ...)."""
        totals = self.sim.tracer.since(self.snap)
        times = dict(totals.by_phase)
        times["total"] = totals.clock
        ortho_breakdown = {k[1]: v for k, v in totals.by_kernel.items()
                           if k[0] == "ortho"}
        sync_count = sum(c for (ph, kern), c in totals.counts.items()
                         if kern == "allreduce")
        return SolveResult(
            x=self.x_vec.to_global()[:, 0], converged=self.converged,
            iterations=self.iters, restarts=self.restarts,
            relative_residual=float(self.rel_res), history=self.history,
            times=times, ortho_breakdown=ortho_breakdown,
            sync_count=sync_count, metrics=self.sim.metrics_doc(), **fields)
