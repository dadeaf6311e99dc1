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

from repro.experiments.common import ExperimentTable, fmt, resolve_machine, speedup
from repro.experiments.estimator import (
    CONFIGS,
    CycleCostEstimator,
    PrecondShape,
    ProblemShape,
)


def per_iteration_times(nodes: int, nx: int = 2000, m: int = 60, s: int = 5,
                        sweeps: int = 1, colors: int = 2,
                        machine: str = "summit") -> dict:
    mach = resolve_machine(machine)
    ranks = nodes * mach.ranks_per_node
    est = CycleCostEstimator(
        mach, ranks, ProblemShape.stencil2d(nx, 9), m=m, s=s,
        precond=PrecondShape(sweeps=sweeps, colors=colors))
    out = {}
    for key in CONFIGS:
        ph = est.per_iteration(est.cycle(key))
        out[key] = {"spmv_prec": ph["spmv"] + ph["precond"],
                    "ortho": ph["ortho"], "total": ph["total"]}
    return out


def run(node_counts: list | None = None, nx: int = 2000, m: int = 60,
        s: int = 5) -> ExperimentTable:
    node_counts = node_counts or [1, 2, 4, 8, 16, 32]
    table = ExperimentTable(
        "fig13",
        f"Preconditioned (block-Jacobi/GS) time per iteration, "
        f"2D Laplace n={nx}^2",
        headers=["nodes", "config", "SpMV+prec ms", "Ortho ms", "Total ms",
                 "ortho spdp", "iter spdp"])
    for nodes in node_counts:
        ours = per_iteration_times(nodes, nx=nx, m=m, s=s)
        base = ours["gmres"]
        for key in CONFIGS:
            t = ours[key]
            table.add_row(nodes, key,
                          fmt(t["spmv_prec"] * 1e3), fmt(t["ortho"] * 1e3),
                          fmt(t["total"] * 1e3),
                          speedup(base["ortho"], t["ortho"]),
                          speedup(base["total"], t["total"]))
    table.add_note("paper Fig. 13: same trend as Table III; ortho speedups "
                   "persist, total speedups shrink because the "
                   "preconditioner grows the non-ortho share")
    return table


def main(argv: list | None = None) -> None:
    import argparse
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--nx", type=int, default=2000)
    args = p.parse_args(argv)
    print(run(nx=args.nx).render())


if __name__ == "__main__":
    main()
