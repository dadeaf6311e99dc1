"""Adaptive step-size driver for s-step GMRES.

The paper's closing argument (Sections I/VIII): the step size ``s``
"needs to be carefully chosen for each problem on a different hardware
[and] it is often infeasible to fine-tune"; in practice a conservative
``s = 5`` is used, and the two-stage scheme recovers the performance a
larger block would have given.  This module provides the *other* classic
answer for comparison — adapt ``s`` at runtime (cf. the adaptive step
size of ref. [26]): start from an aggressive ``s_max`` and halve it
whenever the matrix-powers basis breaks down, warm-starting from the
best iterate so far.

:func:`adaptive_sstep_gmres` wraps the stock solver: no changes to the
inner iteration, pure restart-level control.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import DEFAULT_RESTART, DEFAULT_TOL
from repro.exceptions import ConfigurationError
from repro.krylov.options import SolverOptions
from repro.krylov.restart import RestartedSolve, check_inputs
from repro.krylov.result import SolveResult
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.precond.base import Preconditioner


def adaptive_sstep_gmres(sim: Simulation, b: np.ndarray,
                         x0: np.ndarray | None = None, *,
                         s_max: int = 10, s_min: int = 1,
                         restart: int = DEFAULT_RESTART,
                         tol: float = DEFAULT_TOL, maxiter: int = 100_000,
                         scheme_factory=None,
                         basis: str = "monomial",
                         precond: Preconditioner | None = None,
                         options: SolverOptions | None = None
                         ) -> SolveResult:
    """s-step GMRES with runtime step-size adaptation.

    Parameters mirror :func:`~repro.krylov.sstep_gmres.sstep_gmres`
    (including ``options``, forwarded verbatim to every attempt) except
    that ``scheme_factory`` is a zero-argument callable producing
    a fresh scheme per attempt (schemes may bind to a step size — e.g.
    ``lambda: BCGSPIP2Scheme()``); defaults to BCGS-PIP2.

    Returns the :class:`SolveResult` of the whole call — iterations,
    history, telemetry and modeled times span every attempt — with the
    last attempt's convergence state; ``result.scheme`` carries the
    step-size trajectory, e.g. ``"bcgs-pip2[s=10->5]"``.
    """
    if s_min < 1 or s_max < s_min:
        raise ConfigurationError(
            f"need 1 <= s_min <= s_max, got [{s_min}, {s_max}]")
    b, x0 = check_inputs(sim, b, x0, restart=restart, maxiter=maxiter,
                         tol=tol)
    if scheme_factory is None:
        from repro.ortho.bcgs_pip import BCGSPIP2Scheme
        scheme_factory = BCGSPIP2Scheme
    # the outer shell: its snapshot spans all attempts and its iterate is
    # each attempt's warm start
    solve = RestartedSolve(sim, b, x0, precond)
    s = min(s_max, restart)
    trajectory = [s]
    telemetry: list = []
    while True:
        attempt = sstep_gmres(
            sim, b, x0=solve.x_vec.to_global()[:, 0], s=s, restart=restart,
            tol=tol, maxiter=maxiter - solve.iters, scheme=scheme_factory(),
            basis=basis, precond=precond, options=options)
        # merge bookkeeping across attempts (cycle numbers and
        # iteration counts renumbered onto the combined timeline)
        its, res = attempt.history.as_arrays()
        for i, r in zip(its, res):
            solve.history.record(int(i) + solve.iters, float(r))
        telemetry.extend(
            dataclasses.replace(rec, cycle=rec.cycle + solve.restarts,
                                iterations=rec.iterations + solve.iters)
            for rec in attempt.telemetry)
        solve.iters += attempt.iterations
        solve.restarts += attempt.restarts
        solve.x_vec.scatter_col(0, attempt.x)
        if (attempt.converged or not attempt.stalled
                or s == s_min  # stalled at the floor: give up honestly
                or solve.iters >= maxiter):
            break
        s = max(s_min, s // 2)
        trajectory.append(s)
    solve.converged = attempt.converged
    solve.rel_res = attempt.relative_residual
    label = "->".join(str(v) for v in trajectory)
    return solve.result(
        solver="adaptive_sstep_gmres", scheme=f"{attempt.scheme}[s={label}]",
        stalled=attempt.stalled, diagnostics=attempt.diagnostics,
        telemetry=telemetry)
