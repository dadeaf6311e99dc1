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

from repro.experiments.common import ExperimentTable, fmt, resolve_machine, speedup
from repro.experiments.estimator import CONFIGS, CycleCostEstimator, ProblemShape
from repro.experiments.paper_data import TABLE4, TABLE4_SHAPES


def problem_shape(name: str, ranks: int) -> ProblemShape:
    paper_n, nnz_per_row, kind = TABLE4_SHAPES[name]
    if kind == "stencil3d":
        return ProblemShape.stencil3d(100, nnz_per_row=nnz_per_row)
    if kind == "elasticity":
        return ProblemShape.stencil3d(100, dofs_per_node=3,
                                      nnz_per_row=nnz_per_row)
    return ProblemShape.irregular(paper_n, nnz_per_row, ranks)


def per_iteration_times(name: str, nodes: int = 16, m: int = 60,
                        s: int = 5, machine: str = "summit") -> dict:
    mach = resolve_machine(machine)
    ranks = nodes * mach.ranks_per_node
    shape = problem_shape(name, ranks)
    est = CycleCostEstimator(mach, ranks, shape, m=m, s=s)
    out = {}
    for key in CONFIGS:
        ph = est.per_iteration(est.cycle(key))
        out[key] = {"spmv": ph["spmv"] + ph["precond"],
                    "ortho": ph["ortho"], "total": ph["total"]}
    return out


def run(nodes: int = 16, m: int = 60, s: int = 5,
        matrices: list | None = None) -> ExperimentTable:
    matrices = matrices or list(TABLE4_SHAPES)
    table = ExperimentTable(
        "table4",
        f"Time per iteration (ms) on {nodes} Summit nodes "
        f"({nodes * 6} GPUs)",
        headers=["matrix", "config", "SpMV ms", "Ortho ms", "Total ms",
                 "ortho spdp", "total spdp", "paper ortho ms",
                 "paper total ms", "paper iters"])
    for name in matrices:
        ours = per_iteration_times(name, nodes=nodes, m=m, s=s)
        base = ours["gmres"]
        for key in CONFIGS:
            t = ours[key]
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


def main(argv: list | None = None) -> None:
    import argparse
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--nodes", type=int, default=16)
    args = p.parse_args(argv)
    print(run(nodes=args.nodes).render())


if __name__ == "__main__":
    main()
