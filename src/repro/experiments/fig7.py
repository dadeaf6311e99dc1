"""Fig. 7 — one-stage BCGS-PIP2 on glued matrices.

Paper setup: glued matrices where each panel and the overall matrix share
"the same specified order of the condition number" (our glued construction
with growth = 1); sweep that condition number, track (a) the condition
number of the accumulated basis after the first BCGS-PIP pass and (b) the
orthogonality errors after the first and second passes.

Expected shape (paper Fig. 7): for kappa < eps^{-1/2}, first-pass error
~ kappa^2 * eps, accumulated condition stays O(1), second-pass error is
O(eps) — the same error CholQR2/BCGS2 reaches (Theorem IV.2).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CholeskyBreakdownError
from repro.experiments.common import ExperimentTable, fmt
from repro.matrices.synthetic import glued_matrix
from repro.ortho.analysis import condition_number, orthogonality_error
from repro.ortho.base import BlockDriver
from repro.ortho.bcgs_pip import BCGSPIP2Scheme, BCGSPIPScheme
from repro.utils.rng import default_rng


def run(n: int = 100_000, s: int = 5, n_panels: int = 6,
        kappas: list | None = None, seeds: int = 10,
        base_seed: int = 0) -> ExperimentTable:
    if kappas is None:
        kappas = [10.0 ** e for e in range(1, 13)]
    table = ExperimentTable(
        "fig7", f"one-stage BCGS-PIP2 on glued matrix "
                f"({n}x{s * n_panels}, {n_panels} panels)",
        headers=["kappa(V)", "kappa(Qhat) avg", "err1 avg", "err2 avg",
                 "breakdowns"])
    for kappa in kappas:
        conds, errs1, errs2 = [], [], []
        breakdowns = 0
        for seed in range(seeds):
            rng = default_rng(base_seed + 1000 * seed + 7)
            g = glued_matrix(n, s, n_panels, panel_cond=kappa, growth=1.0,
                             rng=rng)
            try:
                out1 = BlockDriver(BCGSPIPScheme(), s).run(g.matrix)
                conds.append(condition_number(out1.q))
                errs1.append(orthogonality_error(out1.q))
                out2 = BlockDriver(BCGSPIP2Scheme(), s).run(g.matrix)
                errs2.append(orthogonality_error(out2.q))
            except CholeskyBreakdownError:
                breakdowns += 1
        row = [fmt(kappa)]
        if conds:
            row += [fmt(float(np.mean(conds))), fmt(float(np.mean(errs1))),
                    fmt(float(np.mean(errs2)))]
        else:
            row += ["-", "-", "-"]
        row.append(f"{breakdowns}/{seeds}")
        table.add_row(*row)
    table.add_note(
        "paper: err1 ~ kappa^2*eps, kappa(Qhat) = O(1), err2 = O(eps) for "
        "kappa < eps^{-1/2} (Theorem IV.2)")
    return table


QUICK = {"n": 10_000, "seeds": 3}
