"""Solver result containers: solution, convergence history, modeled times."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ConvergenceHistory:
    """Residual checkpoints: (iteration, relative residual) pairs.

    Checkpoints land wherever the algorithm can legally test convergence:
    every iteration for standard GMRES, every panel for one-stage s-step
    schemes, every big panel for the two-stage scheme.
    """

    iterations: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

    def record(self, iteration: int, relative_residual: float) -> None:
        self.iterations.append(int(iteration))
        self.residuals.append(float(relative_residual))

    def __len__(self) -> int:
        return len(self.iterations)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.asarray(self.iterations, dtype=np.int64),
                np.asarray(self.residuals, dtype=np.float64))


@dataclass
class SolveResult:
    """Everything a paper table needs from one solve.

    ``times`` holds *modeled* seconds by phase ("spmv", "precond",
    "ortho", "other") plus "total"; ``ortho_breakdown``
    holds the per-kernel split inside the ortho phase (the paper's
    Figs. 10-12: dot / update / trsm / allreduce / ...).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    restarts: int
    relative_residual: float
    history: ConvergenceHistory
    times: dict = field(default_factory=dict)
    ortho_breakdown: dict = field(default_factory=dict)
    sync_count: int = 0
    solver: str = ""
    scheme: str = ""
    #: True when the solver stopped because consecutive cycles produced
    #: no usable checkpoint (basis breakdown), as opposed to reaching
    #: maxiter — the signal the adaptive step-size driver reacts to.
    stalled: bool = False
    #: Solver-specific numerics diagnostics.  The sketched s-step solve
    #: path records ``solve_mode``, the worst basis condition estimate
    #: ``kappa(S V)`` seen at a checkpoint, and the largest residual gap
    #: ``| ||r||_est - ||r||_explicit | / ||b||`` observed at a restart
    #: (the backward-stability monitor of arXiv:2409.03079).  These are
    #: solve-wide reductions of :attr:`telemetry`.
    diagnostics: dict = field(default_factory=dict)
    #: Structured per-cycle telemetry: one
    #: :class:`repro.obs.telemetry.CycleRecord` per restart cycle —
    #: residual norm, residual gap, basis condition, embedding
    #: distortion, solve mode and events.
    telemetry: list = field(default_factory=list)
    #: :class:`repro.obs.metrics.MetricsSnapshot` of the simulation's
    #: modeled totals and span stream (:meth:`Simulation.metrics_doc`):
    #: per-kernel flops, bytes moved, arithmetic intensity, roofline
    #: utilization, collective wire bytes, duration histograms.  Empty
    #: dict when metrics were not enabled.  Cumulative over the
    #: simulation's lifetime, not per-solve.
    metrics: dict = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return float(self.times.get("total", 0.0))

    @property
    def ortho_time(self) -> float:
        return float(self.times.get("ortho", 0.0))

    @property
    def spmv_time(self) -> float:
        """SpMV + preconditioner time (the paper's 'SpMV' column)."""
        return float(self.times.get("spmv", 0.0)
                     + self.times.get("precond", 0.0))

    def time_per_iteration(self) -> float:
        """Modeled seconds per iteration (the paper's Table IV metric)."""
        return self.total_time / max(self.iterations, 1)

    def summary(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (f"{self.solver}[{self.scheme}]: {status} in "
                f"{self.iterations} iterations ({self.restarts} restarts), "
                f"rel.res {self.relative_residual:.3e}; modeled "
                f"SpMV {self.spmv_time:.4f}s Ortho {self.ortho_time:.4f}s "
                f"Total {self.total_time:.4f}s")
