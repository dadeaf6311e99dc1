"""Pipelined GMRES with one-reduce DCGS-2 orthogonalization (ref. [25]).

The paper's ref. [25] covers "low-synchronization orthogonalization
schemes for s-step and *pipelined* Krylov solvers in Trilinos".  This
solver is the pipelined member of that family: one fused global
reduction per iteration (vs. three for GMRES+CGS2), obtained by letting
the matrix powers application run on the *pending* (once-projected,
unnormalized) newest basis column while its reorthogonalization and
normalization are still in flight.

Algebra: the operator is applied to column ``j-1`` in its pending state
``q~_{j-1} = Q z + alpha q_{j-1}``; the representation ``[z; alpha]`` is
exactly the R column DCGS-2 reports when it settles that column, so the
Hessenberg matrix follows from the same mixed recovery the s-step solver
uses (``H = C W^{-1}``, :func:`assemble_hessenberg_mixed`) with

    W[:, k] = R column of the *content* of column k at its use time,
    C[:, k] = R column of the raw vector it produced.

Convergence is tested once per restart cycle (the classical trade-off of
pipelined variants: estimate freshness for latency); the explicit
restart residual keeps the reported convergence exact.

``options=SolverOptions(comm_overlap=True)`` posts the settle-side half
of each iteration's fused reduction *before* the operator application
(:meth:`DCGS2Orthogonalizer.post_push`): the pairs whose inputs are
final at the end of ``push(j-1)`` travel nonblocking while the matrix
powers apply runs, and ``push(j)`` waits only the exposed remainder.
Per-pair reduction trees are independent, so the solve — iterates,
history, Hessenberg — is bit-identical with the flag on or off; only
the collective *count* (two smaller messages per iteration instead of
one fused one) and the charged communication profile change.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_RESTART, DEFAULT_TOL
from repro.distla import blas as dblas
from repro.exceptions import NumericalError
from repro.krylov.hessenberg import least_squares_residual
from repro.krylov.options import SolverOptions
from repro.krylov.restart import RestartedSolve, check_inputs
from repro.krylov.result import SolveResult
from repro.krylov.simulation import Simulation
from repro.ortho.low_sync import DCGS2Orthogonalizer
from repro.precond.base import Preconditioner
import scipy.linalg


def pipelined_gmres(sim: Simulation, b: np.ndarray,
                    x0: np.ndarray | None = None, *,
                    restart: int = DEFAULT_RESTART, tol: float = DEFAULT_TOL,
                    maxiter: int = 100_000,
                    precond: Preconditioner | None = None,
                    options: SolverOptions | None = None) -> SolveResult:
    """Restarted pipelined GMRES: ~1 synchronization per iteration.

    ``options`` takes the same :class:`SolverOptions` bundle as
    :func:`~repro.krylov.sstep_gmres.sstep_gmres` so call sites can
    swap solvers without repacking their configuration; of its knobs
    only ``comm_overlap`` applies here (this solver has no s-step
    panels, solve modes, or precision policy — see the module
    docstring for what the flag does).
    """
    opts = options if options is not None else SolverOptions()
    overlap = opts.comm_overlap
    b, x0 = check_inputs(sim, b, x0, restart=restart, maxiter=maxiter,
                         tol=tol)
    tracer = sim.tracer
    backend = sim.backend
    solve = RestartedSolve(sim, b, x0, precond)
    op = solve.op
    basis = sim.zeros(restart + 1)

    while solve.iters < maxiter and not solve.converged:
        gamma = solve.residual()
        if solve.rel_res <= tol:
            solve.converged = True
            break
        with tracer.phase("ortho"):
            dblas.copy_into(basis.view_cols(0), solve.r_vec)
        ortho = DCGS2Orthogonalizer()
        with tracer.phase("ortho"):
            ortho.start(backend, basis)  # normalizes column 0 (= r/gamma)
        # W[:, k]: representation (over the final basis) of column k's
        # content at the moment A consumed it; C[:, k]: representation of
        # the raw vector that application produced.  Both settle lazily
        # out of the DCGS-2 pipeline.
        w_rep = np.zeros((restart + 1, restart))
        c_rep = np.zeros((restart + 1, restart))
        w_rep[0, 0] = 1.0  # column 0 was settled exactly before its use
        steps = 0
        for j in range(1, restart + 1):
            if overlap:
                # post the settle-side half of push(j)'s reduction so it
                # travels while the operator application runs below
                with tracer.phase("ortho"):
                    ortho.post_push(j)
            # apply the operator to the *current* (possibly pending)
            # content of column j-1 — the defining pipelined overlap
            op.apply(basis.view_cols(j - 1), basis.view_cols(j))
            try:
                with tracer.phase("ortho"):
                    settled = ortho.push(j)
            except NumericalError:
                break  # new direction vanished: truncate the cycle here
            steps = j
            solve.iters += 1
            if settled is not None:
                # column j-1 settled: the raw vector it came from is the
                # output of step j-1 ...
                c_rep[: settled.shape[0], j - 2] = settled
                # ... and its *pre-settle* content is what step j's
                # operator application just consumed.
                rep = ortho.settled_content_rep
                w_rep[: rep.shape[0], j - 1] = rep
            if solve.iters >= maxiter:
                break
        if steps < 1:
            break
        try:
            with tracer.phase("ortho"):
                last = ortho.flush()
            c_rep[: last.shape[0], steps - 1] = last
        except NumericalError:
            # the final column collapsed; drop it from the least squares
            steps -= 1
            if steps < 1:
                break
        # Hessenberg from the mixed representations: H = C W^{-1}
        c = steps
        w_small = np.triu(w_rep[:c, :c])
        h = scipy.linalg.solve_triangular(w_small, c_rep[: c + 1, :c].T,
                                          trans="T", lower=False).T
        backend.host_flops(2.0 * c ** 3)
        rhs = np.zeros(c + 1)
        rhs[0] = gamma
        y, resid = least_squares_residual(h, gamma, rhs=rhs)
        backend.host_flops(2.0 * c ** 3)
        solve.rel_res = resid / solve.beta0
        solve.history.record(solve.iters, solve.rel_res)
        # a met tolerance is confirmed by the explicit residual at loop top
        solve.update(basis, c, y)
        solve.restarts += 1

    return solve.result(solver="pipelined_gmres", scheme="dcgs2")
