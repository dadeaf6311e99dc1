"""Randomized-GMRES convergence sweep — sketched vs classical solve.

The sketching subsystem's solver-level acceptance claim (ROADMAP
follow-on "sketch-space least-squares/Hessenberg recovery in
``sstep_gmres``", after arXiv:2503.16717): on Krylov bases so
ill-conditioned that the classical two-stage CholQR pipeline cannot
hold them, the *randomized* solve path —
:class:`~repro.ortho.randomized.SketchedTwoStageScheme` with
single-collective fused stage passes plus
``sstep_gmres(..., options=SolverOptions(solve_mode="sketched"))`` —
still converges, because
neither piece ever relies on explicit l2 orthogonality: the scheme only
whitens through a sketch, and the solver minimizes the small
least-squares problem in sketch space
(:func:`repro.krylov.hessenberg.sketched_least_squares`).

Construction: a log-spaced-spectrum diagonal operator with the monomial
basis and a *large* step size ``s``, so each matrix-powers panel aligns
with the dominant eigenvector and its condition number blows through
``eps^{-1/2} ~ 1e8`` (where the classical stage-1 Pythagorean Cholesky
lives) well past 1e12.  The table reports, per ``(kappa(A), s, m)``
configuration, the measured condition number of the first raw Krylov
panel and both solvers' outcomes.

Expected shape: the classical s-step solver either breaks down cycle
after cycle or — worse — keeps producing garbage checkpoints whose
coordinate least-squares "residual" diverges, while the sketched solver
drives the true relative residual below 1e-8.  The smoke-size variant
is asserted in ``tests/experiments/test_rgs_convergence.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.experiments.common import ExperimentTable, fmt
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.ortho.randomized import SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

#: ``(kappa(A), s, restart)`` configurations; every one drives the raw
#: monomial panel condition far beyond 1e12.
CONFIGS = ((30.0, 16, 32), (50.0, 14, 28), (60.0, 15, 30))


def logspec_operator(n: int, kappa: float) -> sp.csr_matrix:
    """Diagonal operator with log-spaced spectrum on ``[1, kappa]``."""
    return sp.diags(np.logspace(0.0, np.log10(kappa), n)).tocsr()


def krylov_panel_cond(a: sp.spmatrix, b: np.ndarray, cols: int) -> float:
    """Condition number of the first raw monomial Krylov panel
    ``[q0, A q0, ..., A^{cols-1} q0]`` (dense, host-side — the quantity
    the ill-conditioned-basis claim is about)."""
    q0 = b / np.linalg.norm(b)
    cols_list = [q0]
    for _ in range(cols - 1):
        cols_list.append(a @ cols_list[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.cond(np.column_stack(cols_list)))


def _status(res, tol: float) -> str:
    if res.converged and res.relative_residual <= tol:
        return "converged"
    if res.stalled:
        return "breakdown"
    if not np.isfinite(res.relative_residual) or res.relative_residual > 1.0:
        return "diverged"
    return "stagnated"


def run_case(kappa: float, s: int, restart: int, *, n: int = 400,
             tol: float = 1e-8, maxiter: int = 1500, ranks: int = 4) -> dict:
    """One configuration: classical vs sketched solve on the same system."""
    a = logspec_operator(n, kappa)
    b = np.asarray(a @ np.ones(n)).ravel()
    basis_cond = krylov_panel_cond(a, b, s + 1)
    with np.errstate(all="ignore"):
        classical = sstep_gmres(
            Simulation(a, ranks=ranks, machine=generic_cpu()), b, s=s,
            restart=restart, tol=tol, maxiter=maxiter,
            scheme=TwoStageScheme(big_step=restart, breakdown="shift"))
        sketched = sstep_gmres(
            Simulation(a, ranks=ranks, machine=generic_cpu()), b, s=s,
            restart=restart, tol=tol, maxiter=maxiter,
            scheme=SketchedTwoStageScheme(big_step=restart, fused=True),
            options=SolverOptions(solve_mode="sketched"))
    return {"kappa": kappa, "s": s, "restart": restart,
            "basis_cond": basis_cond,
            "classical": classical, "sketched": sketched,
            "classical_status": _status(classical, tol),
            "sketched_status": _status(sketched, tol), "tol": tol}


def run(n: int = 400, configs=CONFIGS, tol: float = 1e-8,
        maxiter: int = 1500) -> ExperimentTable:
    """Sweep the configurations; one table row per ``(kappa, s, m)``."""
    table = ExperimentTable(
        "rgs_convergence",
        f"classical vs sketched s-step GMRES solve on ill-conditioned "
        f"monomial bases (n={n}, tol={tol:g})",
        headers=["kappa(A)", "s", "m", "panel cond",
                 "classical", "rel res", "iters",
                 "sketched", "rel res", "iters"])
    for kappa, s, restart in configs:
        case = run_case(kappa, s, restart, n=n, tol=tol, maxiter=maxiter)
        cls, skt = case["classical"], case["sketched"]
        table.add_row(
            fmt(kappa), s, restart, fmt(case["basis_cond"]),
            case["classical_status"], fmt(cls.relative_residual),
            cls.iterations,
            case["sketched_status"], fmt(skt.relative_residual),
            skt.iterations)
    table.add_note("classical = TwoStageScheme(breakdown='shift') + "
                   "coordinate least squares; sketched = fused "
                   "SketchedTwoStageScheme (1 collective per stage pass) "
                   "+ sketch-space least squares (solve_mode='sketched')")
    table.add_note("panel cond = measured condition number of the first "
                   "raw monomial Krylov panel [q0, A q0, ..., A^s q0]")
    table.add_note("every panel cond exceeds 1e12: past the classical "
                   "Pythagorean-Cholesky cliff, inside the sketch-QR "
                   "whitening comfort zone (~1/eps)")
    return table


QUICK = {"n": 250, "maxiter": 800}
