"""Table III — strong scaling of the four solver configurations.

Paper setup: 9-point 2D Laplace, n = 2000^2, 1..32 Summit nodes (6 MPI
ranks = 6 V100 per node, 192 GPUs at 32 nodes); configurations
GMRES+CGS2, s-step+BCGS2-CholQR2, s-step+BCGS-PIP2, and
s-step+two-stage(bs=m); per node count the paper reports iterations,
SpMV / Ortho / Total seconds, and the speedups of each s-step variant
over standard GMRES.

Our reproduction evaluates the validated cycle-cost model at each rank
count and multiplies by the paper's iteration counts.  The target shape:
BCGS-PIP2 beats BCGS2 increasingly with node count (latency), two-stage
beats BCGS-PIP2 by ~1.4-1.7x in Ortho, and the total-time speedup of
two-stage over GMRES grows from ~1.7x (1 node) to ~2.5x (32 nodes).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, fmt, speedup
from repro.experiments.paper_data import TABLE3, TABLE3_ITERS
from repro.experiments.sweep import PAPER_CONFIGS, strong_scaling, sweep


def modeled_config_times(nodes: int, nx: int = 2000, m: int = 60,
                         s: int = 5, machine: str = "summit") -> dict:
    return sweep(strong_scaling([nodes], PAPER_CONFIGS, nx, m, s, machine)
                 ).per_run(TABLE3_ITERS, m)[nodes]


def run(node_counts: list | None = None, nx: int = 2000, m: int = 60,
        s: int = 5) -> ExperimentTable:
    ours = sweep(strong_scaling(node_counts, PAPER_CONFIGS, nx, m, s)
                 ).per_run(TABLE3_ITERS, m)
    table = ExperimentTable(
        "table3",
        f"Strong scaling, 9-pt 2D Laplace n={nx}^2, 6 ranks/node (Summit)",
        headers=["nodes", "config", "iters(paper)", "SpMV s", "Ortho s",
                 "Total s", "ortho speedup", "total speedup",
                 "paper ortho", "paper total", "paper ortho-spdp"])
    for nodes, per_config in ours.items():
        base = per_config["gmres"]
        paper_rows = TABLE3.get(nodes, {})
        for key, t in per_config.items():
            paper = paper_rows.get(key)
            paper_base = paper_rows.get("gmres")
            table.add_row(
                nodes, key, TABLE3_ITERS[key],
                fmt(t["spmv"]), fmt(t["ortho"]), fmt(t["total"]),
                speedup(base["ortho"], t["ortho"]),
                speedup(base["total"], t["total"]),
                paper[1] if paper else "-",
                paper[2] if paper else "-",
                (f"{paper_base[1] / paper[1]:.1f}x"
                 if paper and paper_base and key != "gmres" else "-"))
    table.add_note("modeled seconds = validated cycle cost model x paper "
                   "iteration counts (docs/cost-model.md)")
    return table
