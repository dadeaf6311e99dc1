"""Fig. 13 — preconditioned s-step GMRES (block Jacobi + Gauss-Seidel).

Paper setup: same strong-scaling study as Table III but with the local
Gauss-Seidel preconditioner (block Jacobi with multicolor Gauss-Seidel in
each block) applied at every step of the matrix powers kernel; the paper
plots per-iteration time breakdowns (SpMV+precond / Ortho / rest) with
the orthogonalization and iteration speedups annotated.

Expected shape: the preconditioner adds a communication-free,
SpMV-shaped cost to every step, so the *ortho* speedups of the s-step
variants persist while the *total* speedups shrink relative to the
unpreconditioned Table III — "a similar performance trend".
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, fmt, speedup
from repro.experiments.estimator import PrecondShape
from repro.experiments.sweep import PAPER_CONFIGS, strong_scaling, sweep


def grid(node_counts: list | None = None, nx: int = 2000, m: int = 60,
         s: int = 5) -> list:
    """Table III's grid with one Gauss-Seidel sweep (two colours) applied
    at every matrix-powers step."""
    return strong_scaling(node_counts, PAPER_CONFIGS, nx, m, s,
                          precond=PrecondShape(sweeps=1, colors=2))


def run(node_counts: list | None = None, nx: int = 2000, m: int = 60,
        s: int = 5) -> ExperimentTable:
    ours = sweep(grid(node_counts, nx, m, s)).per_iteration(m)
    table = ExperimentTable(
        "fig13",
        f"Preconditioned (block-Jacobi/GS) time per iteration, "
        f"2D Laplace n={nx}^2",
        headers=["nodes", "config", "SpMV+prec ms", "Ortho ms", "Total ms",
                 "ortho spdp", "iter spdp"])
    for nodes, per_config in ours.items():
        base = per_config["gmres"]
        for key, t in per_config.items():
            table.add_row(nodes, key,
                          fmt(t["spmv"] * 1e3), fmt(t["ortho"] * 1e3),
                          fmt(t["total"] * 1e3),
                          speedup(base["ortho"], t["ortho"]),
                          speedup(base["total"], t["total"]))
    table.add_note("paper Fig. 13: same trend as Table III; ortho speedups "
                   "persist, total speedups shrink because the "
                   "preconditioner grows the non-ortho share")
    return table
