"""Fig. 6 — CholQR2 orthogonality error vs. input conditioning.

Paper setup: 1e5-by-5 "Logscaled" matrices (X Sigma Y.T with log-spaced
singular values), kappa swept over decades, ten random seeds; plot the
orthogonality error after the first and second CholQR pass and the
condition number after the first pass.

Expected shape (paper Fig. 6): first-pass error grows as kappa^2 * eps
until kappa ~ eps^{-1/2} (~1e8) where Cholesky breaks down; wherever the
first pass succeeds, the second pass reaches O(eps) (Theorem IV.1).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CholeskyBreakdownError
from repro.experiments.common import ExperimentTable, fmt
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho.analysis import condition_number, orthogonality_error
from repro.ortho.backend import NumpyBackend
from repro.ortho.cholqr import CholQR
from repro.utils.rng import default_rng


def run(n: int = 100_000, k: int = 5,
        kappas: list | None = None, seeds: int = 10,
        base_seed: int = 0) -> ExperimentTable:
    """Sweep kappa; returns min/avg/max errors across seeds per kappa."""
    if kappas is None:
        kappas = [10.0 ** e for e in range(1, 16)]
    nb = NumpyBackend()
    table = ExperimentTable(
        "fig6", f"CholQR2 on {n}-by-{k} Logscaled matrix",
        headers=["kappa(V)", "err1 min", "err1 avg", "err1 max",
                 "kappa(Q1) avg", "err2 avg", "breakdowns"])
    for kappa in kappas:
        errs1, errs2, conds1 = [], [], []
        breakdowns = 0
        for seed in range(seeds):
            rng = default_rng(base_seed + 1000 * seed + 1)
            v = logscaled_matrix(n, k, kappa, rng)
            q = v.copy()
            try:
                CholQR().factor(nb, q)
            except CholeskyBreakdownError:
                breakdowns += 1
                continue
            errs1.append(orthogonality_error(q))
            conds1.append(condition_number(q))
            try:
                CholQR().factor(nb, q)
                errs2.append(orthogonality_error(q))
            except CholeskyBreakdownError:
                breakdowns += 1
        row = [fmt(kappa)]
        if errs1:
            row += [fmt(min(errs1)), fmt(float(np.mean(errs1))),
                    fmt(max(errs1)), fmt(float(np.mean(conds1)))]
            row += [fmt(float(np.mean(errs2))) if errs2 else "-"]
        else:
            row += ["-", "-", "-", "-", "-"]
        row.append(f"{breakdowns}/{seeds}")
        table.add_row(*row)
    table.add_note(
        "paper: err1 ~ kappa^2*eps, Cholesky breaks near kappa ~ 1e8; "
        "err2 = O(eps) wherever pass 1 succeeds (Theorem IV.1)")
    return table


QUICK = {"n": 20_000, "seeds": 3}
