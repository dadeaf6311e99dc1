"""Figs. 10-12 — orthogonalization time breakdown per algorithm.

Paper setup: for 2D Laplace n = 2000^2 across 1..32 Summit nodes, break
the orthogonalization time into its kernels: the paper plots
"dot-products" (projection GEMMs + their global reduces), "vector
updates", and the remainder (Cholesky/TRSM/normalization), in seconds
(a) and as fractions (b), for BCGS2+CholQR2 (Fig. 10), BCGS-PIP2
(Fig. 11) and the two-stage approach with bs = m (Fig. 12).

Expected shape: at scale the BCGS2 breakdown becomes dominated by the
reduce-bearing dot-products; BCGS-PIP2 halves that; two-stage removes
most of the remaining reduce time while also shrinking the local GEMM
time through the bs-wide second stage.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, fmt, resolve_machine
from repro.experiments.estimator import CycleCostEstimator, ProblemShape
from repro.experiments.paper_data import TABLE3_ITERS

SCHEMES = {"fig10": "bcgs2", "fig11": "pip2", "fig12": "two_stage"}


def ortho_breakdown(scheme: str, nodes: int, nx: int = 2000, m: int = 60,
                    s: int = 5, machine: str = "summit") -> dict:
    """Ortho-phase kernel seconds for one cycle, scaled to paper iters."""
    mach = resolve_machine(machine)
    est = CycleCostEstimator(mach, nodes * mach.ranks_per_node,
                             ProblemShape.stencil2d(nx, 9), m=m, s=s)
    tr = est.cycle(scheme)
    cycles = TABLE3_ITERS[scheme] / m
    kernels = {k[1]: v * cycles for k, v in tr.by_kernel.items()
               if k[0] == "ortho"}
    dot = kernels.get("dot", 0.0) + kernels.get("allreduce", 0.0)
    update = kernels.get("update", 0.0) + kernels.get("trsm", 0.0)
    other = sum(v for k, v in kernels.items()
                if k not in ("dot", "allreduce", "update", "trsm"))
    total = dot + update + other
    return {"dot": dot, "update": update, "other": other, "total": total,
            "reduce_only": kernels.get("allreduce", 0.0) * 1.0}


def run(figure: str = "fig10", node_counts: list | None = None,
        nx: int = 2000, m: int = 60, s: int = 5) -> ExperimentTable:
    scheme = SCHEMES[figure]
    node_counts = node_counts or [1, 2, 4, 8, 16, 32]
    table = ExperimentTable(
        figure,
        f"Ortho time breakdown [{scheme}] for 2D Laplace n={nx}^2",
        headers=["nodes", "dot s", "update s", "other s", "total s",
                 "dot %", "update %", "reduce-only s"])
    for nodes in node_counts:
        b = ortho_breakdown(scheme, nodes, nx=nx, m=m, s=s)
        table.add_row(nodes, fmt(b["dot"]), fmt(b["update"]),
                      fmt(b["other"]), fmt(b["total"]),
                      f"{100 * b['dot'] / b['total']:.0f}%",
                      f"{100 * b['update'] / b['total']:.0f}%",
                      fmt(b["reduce_only"]))
    table.add_note("'dot' includes the global reduces (paper: "
                   "'dot-products with the global reduces')")
    return table


def run_all(node_counts: list | None = None, **kw) -> list:
    return [run(fig, node_counts=node_counts, **kw) for fig in SCHEMES]


def main(argv: list | None = None) -> None:
    import argparse
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("figure", nargs="?", default="all",
                   choices=["fig10", "fig11", "fig12", "all"])
    args = p.parse_args(argv)
    figs = list(SCHEMES) if args.figure == "all" else [args.figure]
    for f in figs:
        print(run(f).render())
        print()


if __name__ == "__main__":
    main()
