"""Table IV — time per iteration across the matrix suite on 96 GPUs.

Paper setup: 3D model problems (Laplace3D, Elasticity3D) plus five
SuiteSparse matrices on 16 Summit nodes (96 GPUs, ParMETIS partitions);
for each matrix and each solver configuration, the time per iteration
split into SpMV / Ortho / Total, with speedup factors over standard
GMRES annotated.

Our reproduction evaluates the cycle cost model at each matrix's
(n, nnz) — exactly the paper's values — with a surface-law halo estimate
standing in for the ParMETIS partition.  Optionally a reduced-scale
surrogate convergence run exercises the same numerics.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentTable, fmt, resolve_machine, speedup
from repro.experiments.estimator import ProblemShape
from repro.experiments.paper_data import TABLE4, TABLE4_SHAPES
from repro.experiments.sweep import PAPER_CONFIGS, Point, sweep


def problem_shape(name: str, ranks: int) -> ProblemShape:
    paper_n, nnz_per_row, kind = TABLE4_SHAPES[name]
    if kind == "stencil3d":
        return ProblemShape.stencil3d(100, nnz_per_row=nnz_per_row)
    if kind == "elasticity":
        return ProblemShape.stencil3d(100, dofs_per_node=3,
                                      nnz_per_row=nnz_per_row)
    return ProblemShape.irregular(paper_n, nnz_per_row, ranks)


def grid(matrices: list | None = None, nodes: int = 16, m: int = 60,
         s: int = 5, machine: str = "summit") -> list[Point]:
    """Table IV's grid, keyed by matrix name (all of them by default)."""
    matrices = list(TABLE4_SHAPES if matrices is None else matrices)
    if (not matrices or set(matrices) - set(TABLE4_SHAPES)
            or len(set(matrices)) < len(matrices)):
        raise ConfigurationError(f"Table IV matrices must be distinct names "
                                 f"from {', '.join(TABLE4_SHAPES)}; got {matrices}")
    mach = resolve_machine(machine)
    ranks = nodes * mach.ranks_per_node
    return [Point(name, mach, ranks, problem_shape(name, ranks), None, m, s,
                  PAPER_CONFIGS) for name in matrices]


def per_iteration_times(name: str, nodes: int = 16, m: int = 60,
                        s: int = 5, machine: str = "summit") -> dict:
    return sweep(grid([name], nodes, m, s, machine)).per_iteration(m)[name]


def run(nodes: int = 16, m: int = 60, s: int = 5,
        matrices: list | None = None) -> ExperimentTable:
    ours = sweep(grid(matrices, nodes, m, s)).per_iteration(m)
    table = ExperimentTable(
        "table4",
        f"Time per iteration (ms) on {nodes} Summit nodes "
        f"({nodes * 6} GPUs)",
        headers=["matrix", "config", "SpMV ms", "Ortho ms", "Total ms",
                 "ortho spdp", "total spdp", "paper ortho ms",
                 "paper total ms", "paper iters"])
    for name, per_config in ours.items():
        base = per_config["gmres"]
        for key, t in per_config.items():
            paper = TABLE4[name][key]
            table.add_row(
                name, key,
                fmt(t["spmv"] * 1e3), fmt(t["ortho"] * 1e3),
                fmt(t["total"] * 1e3),
                speedup(base["ortho"], t["ortho"]),
                speedup(base["total"], t["total"]),
                paper[2], paper[3], paper[0])
    table.add_note("modeled ms/iteration at the paper's (n, nnz) with a "
                   "surface-law halo standing in for ParMETIS partitions")
    return table
