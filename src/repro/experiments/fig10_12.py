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

from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentTable, fmt
from repro.experiments.paper_data import TABLE3_ITERS
from repro.experiments.sweep import Frame, strong_scaling, sweep

SCHEMES = {"fig10": "bcgs2", "fig11": "pip2", "fig12": "two_stage"}


def breakdowns(frame: Frame, m: int = 60) -> dict:
    """``{nodes: {scheme: {dot, update, other, total, reduce_only}}}``:
    the frame's ortho-phase kernel seconds, scaled to the paper's
    iterations and grouped as the paper plots them."""
    out: dict = {}
    for nodes, per_scheme in frame.pivot("ortho").items():
        for scheme, per_cycle in per_scheme.items():
            k = {name: v * (TABLE3_ITERS[scheme] / m)
                 for name, v in per_cycle.items()}
            b = {"dot": k.get("dot", 0.0) + k.get("allreduce", 0.0),
                 "update": k.get("update", 0.0) + k.get("trsm", 0.0),
                 "other": sum(v for name, v in k.items() if name not in
                              ("dot", "allreduce", "update", "trsm")),
                 "reduce_only": k.get("allreduce", 0.0)}
            b["total"] = b["dot"] + b["update"] + b["other"]
            out.setdefault(nodes, {})[scheme] = b
    return out


def run(figure: str = "fig10", node_counts: list | None = None,
        nx: int = 2000, m: int = 60, s: int = 5) -> ExperimentTable:
    if figure not in SCHEMES:
        raise ConfigurationError(
            f"unknown figure {figure!r}; figures: {', '.join(SCHEMES)}")
    scheme = SCHEMES[figure]
    frame = sweep(strong_scaling(node_counts, ((scheme, scheme, None),),
                                 nx, m, s))
    table = ExperimentTable(
        figure,
        f"Ortho time breakdown [{scheme}] for 2D Laplace n={nx}^2",
        headers=["nodes", "dot s", "update s", "other s", "total s",
                 "dot %", "update %", "reduce-only s"])
    for nodes, per_scheme in breakdowns(frame, m).items():
        b = per_scheme[scheme]
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
