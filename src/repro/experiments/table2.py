"""Table II — second-step-size (bs) sweep on 4 V100s (Vortex).

Paper setup: 2D Laplace n = 2000^2, s = 5, m = 60, two-stage with
bs in {5, 20, 40, 60}, compared against standard GMRES and the original
s-step GMRES (BCGS2+CholQR2).  Rows: iterations, SpMV, Ortho, Total.

Our reproduction: modeled per-cycle phase times at the paper's exact
problem shape, multiplied by the paper's iteration counts (the workload);
optionally a reduced-scale convergence run measures iteration counts to
confirm their bs-quantization structure.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentTable, fmt, resolve_machine
from repro.experiments.estimator import ProblemShape
from repro.experiments.paper_data import TABLE2
from repro.experiments.sweep import Point, sweep
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.krylov.gmres import gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.two_stage import TwoStageScheme

#: ``(row label, estimator config, bs)`` of the sweep, in paper order
SWEEP = (("gmres", "gmres", None), ("bcgs2", "bcgs2", None),
         *((f"two_stage_bs{bs}", "two_stage", bs) for bs in (5, 20, 40, 60)))


def measured_iterations(nx: int = 120, ranks: int = 4, m: int = 60,
                        s: int = 5, tol: float = 1e-6,
                        maxiter: int = 60_000) -> dict:
    """Reduced-scale convergence run: iteration counts per config."""
    out = {}
    for label, config, bs in SWEEP:
        sim = Simulation(laplace2d(nx), ranks=ranks,
                         machine=resolve_machine("vortex"))
        b = sim.ones_solution_rhs()
        if config == "gmres":
            res = gmres(sim, b, restart=m, tol=tol, maxiter=maxiter)
        else:
            scheme = (BCGS2Scheme() if config == "bcgs2"
                      else TwoStageScheme(big_step=bs))
            res = sstep_gmres(sim, b, s=s, restart=m, tol=tol,
                              maxiter=maxiter, scheme=scheme)
        out[label] = res.iterations
    return out


def run(nx: int = 2000, ranks: int = 4, m: int = 60, s: int = 5,
        measure_nx: int | None = None) -> ExperimentTable:
    ours = sweep([Point(ranks, resolve_machine("vortex"), ranks,
                        ProblemShape.stencil2d(nx, 5), None, m, s, SWEEP)]
                 ).per_run({k: TABLE2[k]["iters"] for k in TABLE2}, m)[ranks]
    measured = (measured_iterations(nx=measure_nx, m=m, s=s)
                if measure_nx else None)
    table = ExperimentTable(
        "table2",
        f"Two-stage bs sweep: 2D Laplace n={nx}^2 on {ranks} V100 (Vortex)",
        headers=["config", "iters(paper)", "SpMV s", "Ortho s", "Total s",
                 "paper SpMV", "paper Ortho", "paper Total"]
                + (["iters(measured@%d^2)" % measure_nx] if measured else []))
    for key, t in ours.items():
        paper = TABLE2[key]
        row = [key, paper["iters"],
               fmt(t["spmv"]), fmt(t["ortho"]), fmt(t["total"]),
               paper["spmv"], paper["ortho"], paper["total"]]
        if measured:
            row.append(measured[key])
        table.add_row(*row)
    table.add_note("modeled seconds = per-cycle cost model x paper "
                   "iteration count; ratios are the reproduction target")
    table.add_note("paper: larger bs monotonically reduces Ortho; best at "
                   "bs = m")
    return table


QUICK = {"measure_nx": 64}
