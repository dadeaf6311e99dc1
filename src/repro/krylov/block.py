"""Multi-RHS block s-step GMRES: ``b`` solves, one panelized pass.

The paper's bottom line is that collective latency, not flops, dominates
s-step GMRES at scale — so serving many tenants means amortizing each
cycle's handful of allreduces across every solve in flight, not just
across the ``s`` steps of one solve.  :func:`block_sstep_gmres` runs
``b`` right-hand sides as lockstep *member* solves over a shared Krylov
block: every member advances one barrier unit per round (the yield
points of :func:`repro.krylov.sstep_gmres._solve_member`) inside the
communicator's fusion scopes — a round is one ``comm.group()``, a
member's unit one ``comm.member()`` — and the charge funnel fuses the
round's modeled charges: the first member to reach an occurrence of a
kernel pays it in full, the others only their marginal work, so a round
is one collective message, one kernel launch, ``b`` payloads.

Each member owns ALL of its numerical state: its own basis block,
orthogonalization scheme, ``R``/``W`` factors, basis polynomial,
telemetry and convergence bookkeeping.  Members share only the operator
and preconditioner (stateless per application) and the machine they are
charged on.  Consequently every member's solution, history and
iteration count are **bit-identical to ``b`` independent scalar
solves** — at every width, every ``s``, and in the ``s=1, block=1``
degenerate case the issue contract names — which the regression tests
assert outright.

**Per-request convergence exits.**  Convergence is per member: a
member whose explicit residual passes its own ``tol`` returns from its
generator, its :class:`~repro.krylov.result.SolveResult` and telemetry
freeze at that cycle, and it is deflated out of the active block — the
survivors keep fusing among themselves (occurrence matching is by
kernel kind, so the narrower block stays sound).  ``tol`` and
``maxiter`` accept per-request sequences for exactly this reason.

``times`` on each member's result reads the shared batch timeline up to
that member's own exit (members do not run on private clocks), and
``diagnostics`` gains ``batch_width``, ``batch_index`` and
``exit_cycle``.
"""

from __future__ import annotations

import numpy as np

from repro.config import (
    DEFAULT_RESTART,
    DEFAULT_STEP_SIZE,
    DEFAULT_TOL,
)
from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.basis import KrylovBasis
from repro.krylov.options import SolverOptions
from repro.krylov.result import SolveResult
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _build_members
from repro.ortho.base import OrthoObserver
from repro.precond.base import Preconditioner


def _as_columns(sim: Simulation, bs) -> np.ndarray:
    """Normalize the right-hand sides to an ``(n, width)`` column array."""
    if isinstance(bs, (list, tuple)):
        cols = [np.asarray(b, dtype=np.float64).ravel() for b in bs]
        if not cols:
            raise ShapeError("block_sstep_gmres needs at least one RHS")
        if any(col.shape != (sim.n,) for col in cols):
            raise ShapeError(
                f"every right-hand side must have {sim.n} entries, got "
                f"{[col.shape[0] for col in cols]}")
        arr = np.stack(cols, axis=1)
    else:
        arr = np.asarray(bs, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
    if arr.ndim != 2 or arr.shape[0] != sim.n:
        raise ShapeError(
            f"right-hand sides must be (n, width) columns with n={sim.n}, "
            f"got shape {arr.shape}")
    return arr


def _per_member(value, width: int, name: str) -> list:
    """Broadcast a scalar setting, or validate a per-request sequence."""
    if np.ndim(value) == 0:
        return [value] * width
    seq = list(value)
    if len(seq) != width:
        raise ConfigurationError(
            f"per-request {name} has {len(seq)} entries for {width} "
            f"right-hand sides")
    return seq


def block_sstep_gmres(sim: Simulation, bs, x0=None, *,
                      s: int = DEFAULT_STEP_SIZE,
                      restart: int = DEFAULT_RESTART,
                      tol=DEFAULT_TOL, maxiter=100_000,
                      scheme_factory=None,
                      basis: str | KrylovBasis = "monomial",
                      precond: Preconditioner | None = None,
                      observer: OrthoObserver | None = None,
                      options: SolverOptions | None = None
                      ) -> list[SolveResult]:
    """Solve ``A x_j = b_j`` for every column of ``bs`` in one batch.

    Parameters mirror :func:`~repro.krylov.sstep_gmres.sstep_gmres`
    with three deviations:

    bs:
        ``(n, width)`` array of RHS columns, or a sequence of length-n
        vectors — one solve request per column.
    tol, maxiter:
        Scalar (applies to every request) or a length-``width``
        sequence — convergence is tested per request and converged
        columns deflate out of the active block at their own cycle.
    scheme_factory:
        Zero-argument callable producing a FRESH scheme per member
        (scheme instances are stateful and cannot be shared).  Default:
        a fresh :class:`~repro.ortho.bcgs_pip.BCGSPIP2Scheme` per
        member, the scalar solver's default.

    ``x0`` may be ``None``, one length-n vector (shared start), or an
    ``(n, width)`` column array.  Returns one
    :class:`~repro.krylov.result.SolveResult` per request, in request
    order, each bit-identical to the corresponding independent
    :func:`sstep_gmres` call.
    """
    cols = _as_columns(sim, bs)
    width = cols.shape[1]
    if isinstance(basis, KrylovBasis) and width > 1:
        raise ConfigurationError(
            "a KrylovBasis instance is stateful and cannot be shared "
            "across block members; pass the basis by name so each member "
            "builds its own")
    tols = _per_member(tol, width, "tol")
    maxiters = _per_member(maxiter, width, "maxiter")
    if x0 is None:
        x0s = [None] * width
    else:
        x0_arr = np.asarray(x0, dtype=np.float64)
        if x0_arr.ndim == 1:
            x0s = [x0_arr] * width
        elif x0_arr.shape == (sim.n, width):
            x0s = [x0_arr[:, j] for j in range(width)]
        else:
            raise ShapeError(
                f"x0 must be (n,) or (n, width); got {x0_arr.shape}")

    members = list(enumerate(_build_members(
        sim, [(cols[:, j], x0s[j], tols[j], maxiters[j])
              for j in range(width)],
        s=s, restart=restart, scheme_factory=scheme_factory, basis=basis,
        precond=precond, observer=observer, options=options)))

    results: list[SolveResult | None] = [None] * width
    comm = sim.comm
    active = members
    while active:
        with comm.group():
            still = []
            for j, gen in active:
                with comm.member():
                    try:
                        next(gen)
                    except StopIteration as stop:
                        res = stop.value
                        res.solver = "block_sstep_gmres"
                        res.diagnostics["batch_width"] = width
                        res.diagnostics["batch_index"] = j
                        res.diagnostics["exit_cycle"] = res.restarts
                        results[j] = res
                    else:
                        still.append((j, gen))
            active = still
    return results  # type: ignore[return-value]
