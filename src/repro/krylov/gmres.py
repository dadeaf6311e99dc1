"""Standard restarted GMRES(m) — the paper's baseline ("GMRES + CGS2").

One new Krylov vector per iteration, orthogonalized column-wise with
CGS2 (or MGS), Arnoldi relation maintained directly, residual estimated
per iteration through Givens rotations — so convergence can stop at any
iteration (the paper's Table III baseline stops at 60251, not a multiple
of anything).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.config import DEFAULT_RESTART, DEFAULT_TOL
from repro.distla import blas as dblas
from repro.exceptions import ConfigurationError
from repro.krylov.restart import RestartedSolve, check_inputs
from repro.krylov.result import SolveResult
from repro.krylov.simulation import Simulation
from repro.ortho.cgs import cgs2_append, mgs_append
from repro.precond.base import Preconditioner


def _givens(a: float, b: float) -> tuple[float, float]:
    """Stable Givens rotation coefficients (c, s) zeroing b against a."""
    if b == 0.0:
        return 1.0, 0.0
    if abs(b) > abs(a):
        t = a / b
        s = 1.0 / np.sqrt(1.0 + t * t)
        return t * s, s
    t = b / a
    c = 1.0 / np.sqrt(1.0 + t * t)
    return c, t * c


def gmres(sim: Simulation, b: np.ndarray, x0: np.ndarray | None = None, *,
          restart: int = DEFAULT_RESTART, tol: float = DEFAULT_TOL,
          maxiter: int = 100_000, precond: Preconditioner | None = None,
          variant: str = "cgs2") -> SolveResult:
    """Solve ``A x = b`` with restarted GMRES on the simulated machine.

    Parameters mirror the paper's setup: ``restart`` = m (60), ``tol`` =
    relative residual reduction (1e-6), right preconditioning.
    ``variant`` selects the orthogonalizer: "cgs2" (baseline) or "mgs".

    Returns a :class:`SolveResult` whose ``times`` are modeled seconds.
    """
    if variant not in ("cgs2", "mgs"):
        raise ConfigurationError(f"unknown GMRES variant {variant!r}")
    append = cgs2_append if variant == "cgs2" else mgs_append
    b, x0 = check_inputs(sim, b, x0, restart=restart, maxiter=maxiter,
                         tol=tol)
    tracer = sim.tracer
    backend = sim.backend
    solve = RestartedSolve(sim, b, x0, precond)
    op = solve.op
    basis = sim.zeros(restart + 1)

    while solve.iters < maxiter and not solve.converged:
        beta = solve.residual()
        if solve.rel_res <= tol:
            solve.converged = True
            break
        with tracer.phase("ortho"):
            dblas.copy_into(basis.view_cols(0), solve.r_vec)
            backend.scale_cols(basis.view_cols(0), np.array([1.0 / beta]))
        # Givens-rotated least-squares state
        h_tri = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        j_done = 0
        for j in range(1, restart + 1):
            op.apply(basis.view_cols(j - 1), basis.view_cols(j))
            with tracer.phase("ortho"):
                h = append(backend, basis, j)
            backend.host_flops(6.0 * j)
            # apply accumulated rotations to the new column
            col = h.copy()
            for i in range(j - 1):
                tmp = cs[i] * col[i] + sn[i] * col[i + 1]
                col[i + 1] = -sn[i] * col[i] + cs[i] * col[i + 1]
                col[i] = tmp
            c, s = _givens(col[j - 1], col[j])
            cs[j - 1], sn[j - 1] = c, s
            col[j - 1] = c * col[j - 1] + s * col[j]
            col[j] = 0.0
            h_tri[: j + 1, j - 1] = col
            g[j] = -s * g[j - 1]
            g[j - 1] = c * g[j - 1]
            solve.iters += 1
            j_done = j
            solve.rel_res = abs(g[j]) / solve.beta0
            solve.history.record(solve.iters, solve.rel_res)
            if solve.rel_res <= tol or solve.iters >= maxiter:
                break
        # solve the rotated triangular system and update the solution;
        # a met tolerance is verified by the explicit residual at loop top
        y = scipy.linalg.solve_triangular(
            h_tri[:j_done, :j_done], g[:j_done], lower=False)
        backend.host_flops(float(j_done) ** 2)
        solve.update(basis, j_done, y)
        solve.restarts += 1

    return solve.result(solver="gmres", scheme=variant)
