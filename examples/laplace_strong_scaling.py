#!/usr/bin/env python
"""Strong-scaling study on the simulated Summit (paper Table III shape).

Projects the four solver configurations across 1..32 nodes at the
paper's full problem size using the validated cycle-cost model, then —
optionally — runs a reduced-scale *live* solve at a chosen node count so
you can see that the cost model and the executing simulator agree.

    python examples/laplace_strong_scaling.py [--live-nodes 2]
"""

from __future__ import annotations

import argparse

import repro
from repro.experiments import table3
from repro.experiments.estimator import CycleCostEstimator, ProblemShape
from repro.parallel.machine import summit
from repro.utils.formatting import render_table


def live_check(nodes: int, nx: int = 40) -> None:
    ranks = nodes * 6
    print(f"\n== live simulator check at {nodes} node(s), "
          f"reduced nx={nx} ==")
    a = repro.matrices.laplace2d(nx, stencil=9)
    rows = []
    for label, config, scheme in [
            ("pip2", "pip2", repro.BCGSPIP2Scheme()),
            ("two-stage", "two_stage", repro.TwoStageScheme(60))]:
        sim = repro.Simulation(a, ranks=ranks, machine=summit())
        b = sim.ones_solution_rhs()
        res = repro.sstep_gmres(sim, b, s=5, restart=60, tol=1e-30,
                                maxiter=60, scheme=scheme)
        est = CycleCostEstimator(summit(), ranks,
                                 ProblemShape.stencil2d(nx, 9), m=60, s=5)
        model = est.phase_seconds(est.cycle(config))
        rows.append([label, f"{res.ortho_time * 1e3:.3f}",
                     f"{model['ortho'] * 1e3:.3f}",
                     f"{res.total_time * 1e3:.3f}",
                     f"{model['total'] * 1e3:.3f}"])
    print(render_table(
        ["scheme", "live ortho ms", "model ortho ms", "live total ms",
         "model total ms"], rows,
        title="one live restart cycle vs the analytic cost model"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--live-nodes", type=int, default=2)
    parser.add_argument("--skip-live", action="store_true")
    args = parser.parse_args()
    print(table3.run().render())
    if not args.skip_live:
        live_check(args.live_nodes)


if __name__ == "__main__":
    main()
