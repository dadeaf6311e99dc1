"""GMRES-based iterative refinement (GMRES-IR) over a low-precision
inner solve.

The classical three-precision IR loop (Carson & Higham), specialized to
this library's storage policies: the *inner* s-step GMRES runs with its
Krylov basis stored — and charged — at a low-precision policy
(``SolverOptions(precision=...)``, typically fp32: half the panel bytes
of every orthogonalization kernel), while the *outer* loop computes the
true residual, the convergence test and the solution update in fp64:

    repeat:  r = b - A x          (fp64, one SpMV + axpy)
             solve A d ~= r       (inner s-step GMRES, low precision)
             x = x + d            (fp64)

Low-precision storage floors the inner solve's attainable residual near
``eps_storage``, but IR restarts it from a *fresh fp64 residual* each
time, so every refinement recovers another ``~log10(1/inner_tol)``
digits until the fp64 working precision of the outer recurrence is
reached — fp32 storage with fp64-level final backward error, the
acceptance claim of ``experiments/precision_stability.py``.

The refinement trigger reuses the sketched-solve diagnostics: inner
solves run ``solve_mode="sketched"`` by default, and when a returned
``basis_condition_max`` / ``residual_gap_max`` crosses its threshold
the loop stops trusting deeper inner convergence — it loosens the inner
tolerance (the unreliable digits were wasted synchronizations) and
leans on more, cheaper refinements instead.
"""

from __future__ import annotations

import math

import numpy as np

from repro.config import DEFAULT_RESTART, DEFAULT_STEP_SIZE, DEFAULT_TOL
from repro.distla import blas as dblas
from repro.krylov.basis import KrylovBasis
from repro.krylov.options import SolverOptions
from repro.krylov.restart import RestartedSolve, check_inputs
from repro.krylov.result import SolveResult
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.obs.telemetry import SolveTelemetry
from repro.ortho.base import BlockOrthoScheme, OrthoObserver
from repro.precision.policy import PrecisionPolicy, resolve_policy
from repro.precond.base import Preconditioner
from repro.utils.validation import check_nonnegative_int

#: Diagnostics thresholds past which an inner solve's convergence is no
#: longer trusted (cf. the residual-gap analysis of arXiv:2409.03079).
DEFAULT_COND_TRIGGER = 1.0e8
DEFAULT_GAP_TRIGGER = 1.0e-4


def gmres_ir(sim: Simulation, b: np.ndarray,
             x0: np.ndarray | None = None, *,
             precision: "PrecisionPolicy | str | None" = "fp32",
             tol: float = DEFAULT_TOL, max_refinements: int = 40,
             inner_tol: float | None = None,
             inner_maxiter: int = 10_000,
             s: int = DEFAULT_STEP_SIZE, restart: int = DEFAULT_RESTART,
             scheme: BlockOrthoScheme | None = None,
             basis: str | KrylovBasis = "monomial",
             precond: Preconditioner | None = None,
             observer: OrthoObserver | None = None,
             cond_trigger: float = DEFAULT_COND_TRIGGER,
             gap_trigger: float = DEFAULT_GAP_TRIGGER,
             options: SolverOptions | None = None) -> SolveResult:
    """Solve ``A x = b`` by iterative refinement over low-precision
    s-step GMRES.

    Parameters
    ----------
    precision:
        Storage policy of the inner solves (name or
        :class:`~repro.precision.policy.PrecisionPolicy`; default fp32).
        The outer residual/correction always run fp64.
    tol:
        Outer convergence target on the fp64 relative residual — may be
        far below what a single low-precision solve can reach.
    inner_tol:
        Relative-residual target of each inner solve.  Default:
        ``max(1e-4, 32 * eps_storage)`` — comfortably achievable in the
        storage precision, so inner iterations are never spent fighting
        the storage floor.
    max_refinements:
        Outer iteration cap.
    scheme / s / restart / basis / precond / observer / options:
        Forwarded to every inner :func:`sstep_gmres` call.  ``options``
        is the :class:`~repro.krylov.options.SolverOptions` of the
        inner solves; ``precision`` (this function's contract) always
        overrides its precision field.  Without ``options`` the inner
        solves run ``solve_mode="sketched"`` so the basis-condition and
        residual-gap monitors stay live — they are this loop's
        refinement trigger.
    cond_trigger / gap_trigger:
        When an inner solve reports ``basis_condition_max > cond_trigger``
        or ``residual_gap_max > gap_trigger``, subsequent inner solves run
        with a 10x looser tolerance (never tighter than the current one,
        capped at 0.25 — a correction four times smaller than the
        residual still contracts): past those thresholds the extra inner
        digits are unreliable, and refinement steps are the cheaper way
        to buy accuracy.

    Returns a :class:`SolveResult`: ``iterations`` counts inner Krylov
    iterations across all refinements, ``history`` records the fp64
    outer residual at each refinement boundary, and ``diagnostics``
    carries the IR bookkeeping (refinement count, trigger events, the
    per-refinement inner summaries).
    """
    policy = resolve_policy(precision)
    if inner_tol is None:
        inner_tol = max(1.0e-4, 32.0 * policy.storage_eps)
    b, x0 = check_inputs(sim, b, x0, s=s, restart=restart,
                         max_refinements=max_refinements, tol=tol,
                         inner_tol=inner_tol)
    check_nonnegative_int(inner_maxiter, "inner_maxiter")
    inner_options = (SolverOptions(solve_mode="sketched")
                     if options is None else options).replace(precision=policy)
    inner_tol = float(inner_tol)
    tracer = sim.tracer
    solve = RestartedSolve(sim, b, x0, precond)

    refinements = 0
    triggers = 0
    stalled = False
    inner_summaries: list[dict] = []
    inner_scheme_name = "" if scheme is None else scheme.name
    prev_rel = math.inf
    no_progress = 0
    tel = SolveTelemetry()  # one CycleRecord per refinement step

    while refinements < max_refinements:
        solve.residual()
        rel_res = solve.rel_res
        if refinements:
            # every refinement boundary is a checkpoint, not only the
            # first residual the shell records itself
            solve.history.record(solve.iters, rel_res)
        if rel_res <= tol:
            solve.converged = True
            break
        if rel_res >= 0.9 * prev_rel:
            # Essentially no reduction: the inner solver has hit its
            # (precision- or spectrum-imposed) floor; two in a row and
            # more refinements cannot help.  Slow-but-geometric rates
            # (contraction 0.5-0.9) are NOT a stall — they converge
            # within the max_refinements budget and must run on.
            no_progress += 1
            if no_progress >= 2:
                stalled = True
                break
        else:
            no_progress = 0
        prev_rel = rel_res

        # Inner solve for the correction A d ~= r, in low precision.
        tel.begin_cycle(refinements, mode=f"ir/{policy.name}")
        tel.note_residual(rel_res)
        rhs = solve.r_vec.to_global()[:, 0]
        inner = sstep_gmres(sim, rhs, s=s, restart=restart, tol=inner_tol,
                            maxiter=inner_maxiter, scheme=scheme,
                            basis=basis, precond=precond, observer=observer,
                            options=inner_options)
        solve.iters += inner.iterations
        solve.restarts += inner.restarts
        inner_scheme_name = inner.scheme
        diag = inner.diagnostics
        # A correction is usable only when the inner solve actually
        # reduced its own residual: applying a diverged correction
        # (rel >= 1) would amplify the outer residual instead.
        usable = (math.isfinite(inner.relative_residual)
                  and inner.relative_residual < 1.0)
        inner_summaries.append({
            "inner_tol": inner_tol,
            "iterations": inner.iterations,
            "relative_residual": inner.relative_residual,
            "applied": usable,
            "basis_condition_max": diag.get("basis_condition_max"),
            "residual_gap_max": diag.get("residual_gap_max"),
        })
        for fld, key in (("basis_condition", "basis_condition_max"),
                         ("residual_gap", "residual_gap_max")):
            if diag.get(key) is not None:
                tel.observe(fld, diag[key])
        if (not usable
                or diag.get("basis_condition_max", 0.0) > cond_trigger
                or diag.get("residual_gap_max", 0.0) > gap_trigger):
            # The monitors say the low-precision basis saturated: deeper
            # inner convergence is numerical fiction.  Loosen the inner
            # target (never tighten) and rely on more refinements.
            triggers += 1
            inner_tol = min(inner_tol * 10.0, 0.25)
            tel.event("trigger:loosen_inner_tol")
        if usable:
            # x += d, in fp64 on the simulated machine.
            d_vec = sim.vector_from(inner.x)
            with tracer.phase("other"):
                dblas.lincomb(solve.x_vec, [(1.0, solve.x_vec), (1.0, d_vec)])
        else:
            no_progress += 1
            tel.event("correction_skipped")
            if no_progress >= 2:
                stalled = True
                tel.end_cycle(solve.iters)
                break
        refinements += 1
        tel.end_cycle(solve.iters)

    return solve.result(
        solver="gmres-ir", scheme=inner_scheme_name, stalled=stalled,
        diagnostics={
            "precision": policy.name,
            "storage": policy.storage,
            "refinements": refinements,
            "refinement_triggers": triggers,
            "inner_tol_final": inner_tol,
            "inner_solves": inner_summaries,
        },
        telemetry=tel.to_list())
